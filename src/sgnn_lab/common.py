"""The package's one table writer, ``write_results``, and one seed driver, ``run_seeds``."""

from __future__ import annotations

import json
from pathlib import Path

RESULT_COLUMNS = ("p", "method", "seed", "metric", "value")


def rows_to_records(rows: list[dict], columns=RESULT_COLUMNS) -> list[dict]:
    """Normalize result rows to the given column set, in order."""
    return [{col: row[col] for col in columns} for row in rows]


def write_results(rows: list[dict], path, fmt: str = "csv", columns=RESULT_COLUMNS) -> Path:
    """Write a table as CSV (default) or JSON, creating the parent
    directory; floats are written with ``repr`` so they round-trip."""
    records = rows_to_records(rows, columns)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(columns) + "\n")
            for row in records:
                fh.write(",".join(_cell(row[col]) for col in columns) + "\n")
    elif fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown results format {fmt!r}")
    return path


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_seeds(worker, cfg, jobs: int = 1) -> tuple[list, list[dict]]:
    """Run ``worker(cfg, seed)`` for every seed in ``cfg.seeds`` (on a pool of ``jobs``
    processes if jobs > 1); the results in seed order, and their rows joined."""
    if jobs <= 1:
        results = [worker(cfg, seed) for seed in cfg.seeds]
    else:
        # imported here: it pulls in multiprocessing, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, [cfg] * len(cfg.seeds), cfg.seeds))
    return results, [row for result in results for row in result["rows"]]
