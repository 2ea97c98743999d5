"""Golden outputs of the six CLI subcommands, for ``tests/test_golden.py``.

Runs every subcommand at ``--seed 0`` with the quick arguments of acceptance
criterion 10 (train-source on ``seeds=0;1``), once per output format, and
reads back every file it writes: tables cell by cell, training traces row by
row, and checkpoints through ``load_checkpoint``.  The values, not hashes,
are stored in ``golden.json`` next to this script, so a failing comparison
names the file, row and column that moved.

Regenerate the fixture after an intended output change with

    python tests/data/make_golden.py

It prints every file that moved against the old fixture, with its largest
relative change, and rewrites only those: a file within the tolerance keeps its
old values, so a run that moves nothing leaves the fixture byte for byte.  Say in
the change description why the values moved.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden.json")
FORMATS = ("csv", "json")
RUNS = {
    "moment-check": ["--samples", "20000", "--max-edges", "8"],
    "variance-sweep": ["--samples", "300", "--p", "0", "0.9", "1"],
    "grad-check": ["--cases", "3"],
    "convergence": ["--T", "50", "--seeds", "2"],
    "train-source": ["nodes=8", "communities=2", "tau_max=4", "train_size=60",
                     "val_size=12", "test_size=24", "features=8", "order=2",
                     "iterations=25", "batch_size=30", "test_p=1.0;0.7", "seeds=0;1"],
    "train-flock": ["agents=5", "steps=10", "train_trajectories=2",
                    "eval_trajectories=1", "features=6", "order=2",
                    "iterations=15", "batch_size=10", "test_p=1.0;0.7", "seeds=0"],
}
REL_TOL = 1e-12


def run_all(out: Path) -> None:
    """Write every subcommand's outputs under ``out/<format>/<command>/``."""
    from sgnn_lab.cli import main

    for fmt in FORMATS:
        for command, extra in RUNS.items():
            rc = main([command, "--seed", "0", "--format", fmt,
                       "--out", str(out / fmt / command), *extra])
            if rc != 0:
                raise RuntimeError(f"{command} --format {fmt} exited {rc}")


def _parse_cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_file(path: Path):
    """The values one output file holds."""
    if path.suffix == ".ckpt":
        from sgnn_lab.model import load_checkpoint

        tensor, kind = load_checkpoint(path)
        return {"kind": kind, "config": dataclasses.asdict(tensor.cfg),
                "taps": tensor.flatten().tolist()}
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="ascii"))
    lines = path.read_text(encoding="ascii").splitlines()
    return [lines[0].split(",")] + [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]


def read_outputs(out: Path) -> dict:
    """Every file under ``out``, keyed by its path relative to ``out``."""
    return {path.relative_to(out).as_posix(): read_file(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


def differences(want, got, where: str = "") -> list[str]:
    """Where ``got`` departs from ``want``: floats beyond ``REL_TOL``
    relative, anything else not exactly equal (types included)."""
    if type(want) is not type(got):
        return [f"{where}: {got!r} ({type(got).__name__}), expected {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)}, expected {sorted(want)}"]
        return [d for key in want for d in differences(want[key], got[key], f"{where}/{key}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries, expected {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]")]
    if isinstance(want, float):
        same = (math.isnan(want) and math.isnan(got)) or (
            abs(want - got) <= REL_TOL * max(abs(want), abs(got)))
        return [] if same else [f"{where}: {got!r}, expected {want!r}"]
    return [] if want == got else [f"{where}: {got!r}, expected {want!r}"]


def _numbers(value):
    """The numeric leaves of ``value``, depth first, dict keys in sorted order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _numbers(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def moved_files(old: dict, new: dict) -> dict[str, float]:
    """Files whose values in ``new`` depart from ``old`` by :func:`differences`,
    each with the largest relative change of its numbers; ``inf`` where a file
    was added or removed or its count of numbers changed."""
    moved = {}
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            moved[name] = math.inf
        elif differences(old[name], new[name], name):
            a, b = list(_numbers(old[name])), list(_numbers(new[name]))
            moved[name] = (math.inf if len(a) != len(b) else
                           max(map(_relative_change, a, b), default=0.0))
    return moved


def keep_unmoved(old: dict, new: dict, moved: dict) -> dict:
    """``new`` with the ``old`` values of every file that ``moved`` (as
    :func:`moved_files` returns it) does not name."""
    return {name: values if name in moved else old[name] for name, values in new.items()}


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp))
        outputs = read_outputs(Path(tmp))
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text(encoding="ascii"))
        moved = moved_files(old, outputs)
        print(f"{len(moved)} files moved against the old fixture")
        for name, change in moved.items():
            print(f"  {name}: largest relative change {change:.3g}")
        outputs = keep_unmoved(old, outputs, moved)
    # one file per line, so a regenerated fixture diffs file by file
    lines = (f"{json.dumps(name)}: {json.dumps(values, sort_keys=True)}"
             for name, values in outputs.items())
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="ascii")
    print(f"{len(outputs)} files -> {FIXTURE}")


if __name__ == "__main__":
    main()
