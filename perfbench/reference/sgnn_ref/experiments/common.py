"""Shared plumbing for the experiment pipelines: the plot-ready results
table format and an optional on-disk dataset cache controlled by the
``SGNN_LAB_DATA_DIR`` environment variable."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

RESULT_COLUMNS = ("p", "method", "seed", "metric", "value")


def rows_to_records(rows: list[dict]) -> list[dict]:
    """Normalize result rows to the fixed column set, in order."""
    return [{col: row[col] for col in RESULT_COLUMNS} for row in rows]


def write_results(rows: list[dict], path, fmt: str = "csv") -> None:
    """Write a results table as CSV (default) or JSON."""
    records = rows_to_records(rows)
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(RESULT_COLUMNS) + "\n")
            for row in records:
                fh.write(",".join(_cell(row[col]) for col in RESULT_COLUMNS) + "\n")
    elif fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown results format {fmt!r}")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def data_dir() -> Path | None:
    root = os.environ.get("SGNN_LAB_DATA_DIR")
    return Path(root) if root else None


def cache_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:24]


def cache_load(name: str) -> dict | None:
    root = data_dir()
    if root is None:
        return None
    path = root / f"{name}.npz"
    if not path.exists():
        return None
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def cache_store(name: str, arrays: dict) -> None:
    root = data_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    np.savez(root / f"{name}.npz", **arrays)


def map_over_seeds(worker, cfg, seeds, jobs: int = 1) -> list:
    """Run ``worker(cfg, seed)`` per seed, optionally on a process pool.
    Results come back in seed order either way."""
    if jobs <= 1:
        return [worker(cfg, seed) for seed in seeds]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, [cfg] * len(seeds), seeds))
