"""sgnn-lab benchmark: one seeded workload, timed, checked, and reported.

Usage, from the root of a source checkout (the library is imported from
``src/``; nothing needs installing)::

    python3 perfbench/run.py --workload source --seed 1 --seconds 30 --trace 0

The process pins BLAS to one thread, itself to one CPU, and clears
``SGNN_LAB_DATA_DIR`` before numpy or the library is imported, so the
workload runs single-threaded with no dataset cache.  With ``--trace 0`` it
then

1. times set-up (interpreter start, imports, a warm-up run of a tiny
   version of the workload) in ``SETUP_SAMPLES`` fresh child processes;
2. runs workload instances whose seeds derive from ``--seed`` until
   ``--seconds`` is spent, each on the checkout's library and, at the same
   time in a second thread, on the frozen reference copy of the library in
   ``perfbench/reference``; checks the checkout's outputs; and runs the
   first instance twice to check that its output digest repeats (see
   ``_measure_untraced``);
3. prints one line of run details (environment, digests, per-repetition
   times) and, as the last line, the result object.

The host's speed drifts by up to 2x, from one second to the next and
differently for different code, so the untraced times are CPU times
relative to the reference: the median over the instances of the checkout's
thread CPU time over the reference's.  The two threads take turns on one
CPU every few milliseconds, so both see the same host.  Only the whole
repetition and its fit and evaluation calls are timed.  With ``--trace 1``
every instance runs untraced and then fully traced on the checkout's
library alone; the metrics are the per-layer ones from the traced
repetitions, the call counts are checked against the workload config, and
the tracing overhead is the difference of the mean traced and untraced
repetition times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer

# Must precede the first numpy import, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
DATA_DIR_WAS_SET = os.environ.pop("SGNN_LAB_DATA_DIR", None) is not None

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("source", "flock", "variance")
SETUP_SAMPLES = 7
MIN_REPS = 3
# The frozen copy of the library that every untraced timing is divided by.
REFERENCE = Path(__file__).resolve().parent / "reference"
REF_PACKAGE = "sgnn_ref"
MAX_INSTANCES = 1000
# Set-up CPU seconds of the reference on the reference machine (median of
# pairs, see ``_time_setup``).  ``setup_s`` is the checkout's set-up time
# relative to the reference's, times this, so it reads in seconds of that
# machine whatever the host's speed at the time.
REF_SETUP_CPU_S = {"source": 0.332, "flock": 0.406, "variance": 0.339}
# Largest share of a pair's timed CPU seconds that the process may spend
# outside the two timed threads (thread start-up and joins).
OUTSIDE_CPU_SHARE = 0.02
SETUP_TIMEOUT_S = 120


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=("checkout", "reference"),
                        help="import and warm up that copy of the library, print the "
                             "process's CPU seconds and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_library() -> None:
    """Import ``sgnn_lab`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sgnn_lab" / "__init__.py").is_file():
        raise ImportError(f"no sgnn_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgnn_lab

    if Path(sgnn_lab.__file__).resolve().parent != (SRC / "sgnn_lab").resolve():
        raise ImportError(f"sgnn_lab imported from {sgnn_lab.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "workload_seed": seed,
        "sgnn_lab_data_dir_cleared": True,
        "sgnn_lab_data_dir_was_set": DATA_DIR_WAS_SET,
    }


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    """Hash of the library sources, which identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sgnn_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _time_setup(args) -> tuple[list[float], list[float]]:
    """CPU seconds that a fresh interpreter takes to set up, on the
    checkout's library and on the reference, for ``SETUP_SAMPLES`` pairs of
    child processes started together on the pinned CPU."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = {"checkout": [], "reference": []}
    for i in range(SETUP_SAMPLES):
        order = ("checkout", "reference") if i % 2 == 0 else ("reference", "checkout")
        procs = {which: subprocess.Popen(cmd + [which], stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE, text=True)
                 for which in order}
        try:
            outs = {which: proc.communicate(timeout=SETUP_TIMEOUT_S)
                    for which, proc in procs.items()}
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        for which, proc in procs.items():
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args, *outs[which])
            samples[which].append(float(outs[which][0].split()[-1]))
    return samples["checkout"], samples["reference"]


def _set_up(package: str, args) -> int:
    """Body of a ``--setup-only`` child: warm up ``package`` on the tiny
    workload and print the process's CPU seconds so far."""
    from workloads import Library, workloads

    workload = workloads(Library(package))[args.workload]
    workload.run(workload.tiny, _instance_seed(args.seed, 0))
    print(repr(time.process_time()))
    return 0


def _rep(workload, seed, tracer):
    """One repetition under ``tracer``; returns (seconds on the tracer's
    clock, outcome, stats)."""
    tracer.reset()
    tracer.install()
    start = tracer.clock()
    try:
        outcome = workload.run(workload.config, seed)
    finally:
        elapsed = tracer.clock() - start
        tracer.uninstall()
    return elapsed, outcome, tracer.snapshot()


def _layer_values(stats) -> dict[str, float]:
    values = {}
    for name, stat in stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.busy_s"] = stat.busy_s
        values[f"{name}.self_s"] = stat.self_s
        if LAYERS[name] is not None:
            values[f"{name}.{LAYERS[name][0]}"] = stat.work
    return values


def _instance_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th workload instance of a run; distinct runs'
    seeds never share an instance."""
    return seed * MAX_INSTANCES + index


def _fits(elapsed: float, done: int, args) -> bool:
    """Whether one more unit of ``elapsed / done`` seconds still ends within
    ``--seconds``."""
    return done < MIN_REPS or elapsed * (done + 1) / done <= args.seconds


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _pair(jobs):
    """Run each ``(workload, seed, tracer)`` job in a thread of its own, all
    at once, timed on each thread's CPU clock.  Returns the ``_rep`` result
    of each job and the CPU seconds the process and its children spent
    outside those threads."""
    results = [None] * len(jobs)

    def target(i, job):
        try:
            results[i] = _rep(*job)
        except BaseException as exc:  # re-raised below, in the calling thread
            results[i] = exc

    threads = [threading.Thread(target=target, args=(i, job)) for i, job in enumerate(jobs)]
    cpu, children = time.process_time(), _children_cpu_s()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cpu, children = time.process_time() - cpu, _children_cpu_s() - children
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results, cpu - sum(r[0] for r in results) + children


def _measure_untraced(args, workload, reference):
    """Instance 0 alone on the checkout's library, then pairs until
    ``--seconds`` is spent: instance ``i`` on the checkout's library and on
    the frozen reference, in two threads at once on one CPU.  ``reference()``
    gives the reference's workload; it is called after the first
    repetition, so that the peak memory read then is the checkout's alone.
    Instance 0 runs twice, which checks that its outputs repeat.

    Returns (outcomes, solo_wall_s, pairs, peak_rss_mb, errors):
    ``outcomes`` holds the checkout's (instance, outcome), and ``pairs``
    (cpu_s, stats, ref_cpu_s, ref_stats, outside_cpu_s) by instance."""
    outcomes, pairs, solo_wall, peak_rss_mb = [], [], None, None
    start = time.perf_counter()
    try:
        solo_wall, outcome, _ = _rep(workload, _instance_seed(args.seed, 0),
                                     Tracer((workload.fit, workload.evaluate)))
        outcomes.append((0, outcome))
        peak_rss_mb = _peak_rss_mb()
        ref = reference()
        ref.run(ref.tiny, _instance_seed(args.seed, 0))
        phases = Tracer((workload.fit, workload.evaluate), clock=time.thread_time)
        ref_phases = Tracer((ref.fit, ref.evaluate), REF_PACKAGE, clock=time.thread_time)
        while _fits(time.perf_counter() - start, len(pairs), args):
            seed = _instance_seed(args.seed, len(pairs))
            jobs = [(workload, seed, phases), (ref, seed, ref_phases)]
            if len(pairs) % 2:
                jobs.reverse()
            (mine, theirs), outside = _pair(jobs)
            if len(pairs) % 2:
                mine, theirs = theirs, mine
            outcomes.append((len(pairs), mine[1]))
            pairs.append((mine[0], mine[2], theirs[0], theirs[2], outside))
    except Exception:  # a failed repetition is counted and ends the run
        traceback.print_exc()
        return outcomes, solo_wall, pairs, peak_rss_mb, 1
    return outcomes, solo_wall, pairs, peak_rss_mb, 0


def _measure_traced(args, workload):
    """Each instance untraced and then fully traced, until ``--seconds``
    is spent.  Returns (reps, errors, binding_sites); ``reps`` holds
    (instance, traced, wall_s, outcome, stats)."""
    phases, full = Tracer((workload.fit, workload.evaluate)), Tracer(LAYERS)
    reps = []
    start = time.perf_counter()
    done = 0
    try:
        while _fits(time.perf_counter() - start, done, args):
            seed = _instance_seed(args.seed, done)
            for traced in (False, True):
                wall, outcome, stats = _rep(workload, seed, full if traced else phases)
                reps.append((done, traced, wall, outcome, stats))
            done += 1
    except Exception:  # a failed repetition is counted and ends the run
        traceback.print_exc()
        return reps, 1, full.binding_sites
    return reps, 0, full.binding_sites


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _relative(values, ref_values) -> float:
    """Median over the pairs of a checkout value over its reference value."""
    return statistics.median(v / r for v, r in zip(values, ref_values))


def _outcome_counts(outcomes, errors: int) -> tuple[int, int, bool]:
    """(attempted, failed, digests_repeat) over ``(instance, outcome)``."""
    first = {}
    for instance, outcome in outcomes:
        first.setdefault(instance, outcome.digest)
    mismatched = [o for i, o in outcomes if o.digest != first[i]]
    attempted = sum(o.attempted for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes) + sum(o.attempted for o in mismatched)
    if errors:
        # The aborted repetition attempted as much as a completed one would.
        per_rep = outcomes[0][1].attempted if outcomes else 1
        attempted += per_rep
        failed += per_rep
    return attempted, failed, not mismatched


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One CPU for the process and its children: the two timed threads of a
    # pair then share it, and with it every change in the host's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.append(str(REFERENCE))
    if args.setup_only == "reference":
        return _set_up(REF_PACKAGE, args)
    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _set_up("sgnn_lab", args)
    from workloads import Library, workloads

    workload = workloads(Library("sgnn_lab"))[args.workload]
    setup_cpu, ref_setup_cpu = ([], []) if args.trace else _time_setup(args)
    workload.run(workload.tiny, _instance_seed(args.seed, 0))
    details = {"workload": args.workload, "seed": args.seed,
               "environment": _environment(args.seed)}

    if args.trace:
        reps, errors, binding_sites = _measure_traced(args, workload)
        attempted, failed, repeat = _outcome_counts([(r[0], r[3]) for r in reps], errors)
        traced = [r for r in reps if r[1]]
        untraced = [r for r in reps if not r[1]]
        layer_reps = [_layer_values(r[4]) for r in traced]
        layers = {name: statistics.fmean(v[name] for v in layer_reps)
                  for name in (layer_reps[0] if layer_reps else ())}
        mismatches = {name: {"expected": want, "seen": sorted({v[name] for v in layer_reps})}
                      for name, want in workload.counts(workload.config).items()
                      if any(v[name] != want for v in layer_reps)}
        details.update({
            "reps": len(reps),
            "rep_instance_seed": [_instance_seed(args.seed, r[0]) for r in reps],
            "rep_traced": [r[1] for r in reps],
            "rep_wall_s": [r[2] for r in reps],
            "rep_digest": [r[3].digest for r in reps],
            "self_check": {"passed": not mismatches, "mismatches": mismatches},
            "binding_sites": binding_sites,
        })
        if traced and untraced:
            details["traced_wall_s"] = statistics.fmean([r[2] for r in traced])
            details["untraced_wall_s"] = statistics.fmean([r[2] for r in untraced])
            details["trace_overhead_s"] = details["traced_wall_s"] - details["untraced_wall_s"]
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith(("busy_s", "self_s")) else "count"}
                   for name, value in layers.items()}
        ok = bool(layer_reps) and not mismatches
    else:
        outcomes, solo_wall, pairs, peak_rss_mb, errors = _measure_untraced(
            args, workload, lambda: workloads(Library(REF_PACKAGE))[args.workload])
        attempted, failed, repeat = _outcome_counts(outcomes, errors)
        fit, evaluate = workload.fit, workload.evaluate

        def per_sample(stats):
            return stats[evaluate].busy_s / stats[evaluate].work

        cpu, ref_cpu = [p[0] for p in pairs], [p[2] for p in pairs]
        fit_s, ref_fit_s = [p[1][fit].busy_s for p in pairs], [p[3][fit].busy_s for p in pairs]
        eval_s, ref_eval_s = [per_sample(p[1]) for p in pairs], [per_sample(p[3]) for p in pairs]
        outside = [p[4] for p in pairs]
        # Work the library hands to other threads or processes would escape
        # the per-thread clocks; such a run measures nothing.
        escaped = [o for o, c, r in zip(outside, cpu, ref_cpu) if o > OUTSIDE_CPU_SHARE * (c + r)]
        details.update({
            "setup_cpu_s": setup_cpu, "ref_setup_cpu_s": ref_setup_cpu,
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "solo_wall_s": solo_wall,
            "pairs": len(pairs),
            "outcome_instance_seed": [_instance_seed(args.seed, i) for i, _ in outcomes],
            "outcome_digest": [o.digest for _, o in outcomes],
            "pair_cpu_s": cpu, "pair_ref_cpu_s": ref_cpu,
            "pair_fit_s": fit_s, "pair_ref_fit_s": ref_fit_s,
            "pair_eval_s_per_sample": eval_s, "pair_ref_eval_s_per_sample": ref_eval_s,
            "pair_outside_cpu_s": outside,
            "cpu_outside_timed_threads": bool(escaped),
        })
        if escaped:
            print("perfbench: the library spent CPU time outside the timed threads "
                  "(other threads or processes); no metric is reported", file=sys.stderr)
        metrics = {}
        if pairs and setup_cpu and not escaped:
            metrics = {
                "cpu_vs_ref": {"value": _relative(cpu, ref_cpu), "unit": "ratio"},
                "setup_s": {"value": REF_SETUP_CPU_S[args.workload]
                            * _relative(setup_cpu, ref_setup_cpu), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "fit_vs_ref": {"value": _relative(fit_s, ref_fit_s), "unit": "ratio"},
                "eval_vs_ref": {"value": _relative(eval_s, ref_eval_s), "unit": "ratio"},
            }
        ok = bool(metrics)

    details["digests_repeat"] = repeat
    details["errors"] = errors
    correct = ok and not errors and failed == 0
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": max(int(attempted), 1),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
