"""Command-line entry point exposing the verification suites and the two
experiments.

Subcommands and the flags each one reads, beyond ``--seed``, ``--out`` and
``--format``::

    moment-check    closed-form second moments and nonlinearity variance
                    contraction vs brute-force enumeration / Monte Carlo
                    (--kind, --max-edges, --samples)
    variance-sweep  Monte-Carlo output variance vs the first-order bound
                    over a grid of link probabilities
                    (--p P [P ...], --samples, --assert)
    grad-check      analytic gradients vs central finite differences
                    (--cases)
    convergence     training runs on seeds --seed .. --seed+--seeds-1
                    reporting the running minimum of the squared gradient
                    norm (--T, required; --p, --seeds, --schedule)
    train-source    the source-localization experiment (accuracy table)
    train-flock     the flocking experiment (closed-loop cost table)
                    (both: --jobs, --assert, key=value config overrides
                    such as ``train_p=``, ``iterations=`` and ``seeds=``)

Every subcommand takes ``--seed`` and bit-reproduces its output files under
a fixed seed (timing columns are zeroed in files for that reason).  Exit
codes: 0 success, 1 assertion failure (moment-check and grad-check always
check; the others with ``--assert``), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import common, variance
from .errors import ConfigError, DivergenceError
from .experiments.flocking import FlockingConfig, run_flock_seed
from .experiments.source import SourceLocConfig, gen_source_dataset, run_source_seed
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    ShiftOperator,
    build_sbm,
    expected_shift_square,
    to_shift,
)
from .model import (SgnnConfig, backward, forward, init_tensor, sample_architecture,
                    save_checkpoint)
from .rng import Rng
from .training import (TrainConfig, TrainingSet, _loss_pair, central_differences,
                       convergence_metric, gradient_rel_error, train)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


def _small_graphs(rng: Rng, max_edges: int) -> list[tuple[str, ShiftOperator]]:
    """The enumeration battery: triangle, path, star, and one random graph."""
    triangle = build_sbm(3, 1, 1.0, 1.0, rng.child(0))
    path4 = ShiftOperator(ADJACENCY, np.diag([1.0, 1, 1], 1) + np.diag([1.0, 1, 1], -1))
    star = np.zeros((6, 6))
    star[0, 1:] = star[1:, 0] = 1.0
    graphs = [("k3", triangle), ("p4", path4), ("star5", ShiftOperator(ADJACENCY, star))]
    for attempt in range(1, 1000):
        random_adj = build_sbm(6, 2, 0.8, 0.5, rng.child(attempt))
        if 1 <= random_adj.num_edges <= max_edges:
            graphs.append(("random6", random_adj))
            break
    return [(name, g) for name, g in graphs if g.num_edges <= max_edges]


def _apply_overrides(cfg, overrides: list[str]):
    """Apply key=value overrides to a dataclass config; unknown keys are
    rejected."""
    fields = {f.name: f for f in dataclasses.fields(cfg)}
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} (known: {sorted(fields)})")
        current = getattr(cfg, key)
        try:
            if isinstance(current, int):
                updates[key] = int(raw)
            elif isinstance(current, float):
                updates[key] = float(raw)
            elif isinstance(current, tuple):
                elem = float if (len(current) == 0 or isinstance(current[0], float)) else int
                updates[key] = tuple(elem(v) for v in raw.split(";") if v != "")
            else:
                updates[key] = raw
        except ValueError:
            raise ConfigError(f"{key}={raw!r} does not parse like its default "
                              f"{current!r}") from None
    return dataclasses.replace(cfg, **updates)


# ---------------------------------------------------------------------------
# moment-check


def cmd_moment_check(args) -> int:
    rng = Rng(args.seed)
    kinds = [ADJACENCY, LAPLACIAN] if args.kind == "both" else [args.kind]
    rows = []
    ok = True
    for name, adj in _small_graphs(rng.child(0), args.max_edges):
        for kind in kinds:
            shift = to_shift(adj, kind)
            for p in (0.3, 0.5, 0.9):
                closed = expected_shift_square(shift, p)
                brute = variance.enumerate_expected_shift_square(shift, p, args.max_edges)
                err = float(np.abs(closed - brute).max())
                passed = err <= 1e-12
                ok &= passed
                rows.append({"check": "second_moment", "case": f"{name}/{kind}/p={p}",
                             "value": err, "pass": passed})
    dists = [
        ("normal", lambda r, n: r.normal(0.0, 1.0, n)),
        ("uniform", lambda r, n: r.uniform(-2.0, 3.0, n)),
        ("exponential", lambda r, n: r.generator.exponential(1.5, n) - 1.0),
        ("coin", lambda r, n: np.where(r.random(n) < 0.5, -1.0, 1.0)),
        ("laplace", lambda r, n: r.generator.laplace(0.5, 1.0, n)),
    ]
    for kind in ("relu", "abs"):
        for d_idx, (dist_name, sampler) in enumerate(dists):
            child = rng.child(100 + d_idx)
            var_in, var_out = variance.check_nonlinearity_variance(
                kind, lambda n: sampler(child, n), args.samples)
            rel_se = variance.variance_std_error(sampler(rng.child(200 + d_idx), args.samples)) / max(var_in, 1e-12)
            passed = var_out <= var_in * (1.0 + 3.0 * rel_se)
            ok &= passed
            rows.append({"check": "nonlinearity_variance", "case": f"{kind}/{dist_name}",
                         "value": var_out / max(var_in, 1e-12), "pass": passed})
    path = common.write_results(rows, Path(args.out) / f"moment_check.{args.format}",
                                args.format, columns=("check", "case", "value", "pass"))
    print(f"moment-check: {sum(r['pass'] for r in rows)}/{len(rows)} cases pass -> {path}")
    return EXIT_OK if ok else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# variance-sweep


def cmd_variance_sweep(args) -> int:
    rng = Rng(args.seed)
    adj = build_sbm(10, 2, 0.8, 0.2, rng.child(0))
    base = to_shift(adj, NORMALIZED_ADJACENCY)
    cfg = SgnnConfig(layers=2, features=2, order=2, nonlinearity="relu")
    tensor = init_tensor(cfg, rng.child(1), 0.4)
    x = rng.child(2).normal(size=10)
    constants = variance.tensor_constants(tensor, base, rng=rng.child(3))
    p_grid = args.p if args.p else [0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0]
    reports = [
        variance.make_sgnn_report(tensor, base, p, x, args.samples, rng.child(10 + i), constants)
        for i, p in enumerate(p_grid)
    ]
    if args.format == "json":  # one nested record per row, `constants` kept whole
        rows = [dataclasses.asdict(r) for r in reports]
        columns = tuple(f.name for f in dataclasses.fields(variance.VarianceReport))
    else:
        rows, columns = [r.as_row() for r in reports], variance.REPORT_COLUMNS
    path = common.write_results(rows, Path(args.out) / f"variance_sweep.{args.format}",
                                args.format, columns)
    print(f"variance-sweep: {len(reports)} rows -> {path}")
    if args.check:
        for r in reports:
            if r.p in (0.0, 1.0) and r.mc_variance > 1e-12:
                print(f"  FAIL p={r.p}: deterministic endpoint has variance {r.mc_variance}")
                return EXIT_ASSERTION
            if r.p >= 0.9 and r.p < 1.0 and r.mc_variance > r.bound_first_order + 3 * r.mc_std_error:
                print(f"  FAIL p={r.p}: mc {r.mc_variance} exceeds bound {r.bound_first_order}")
                return EXIT_ASSERTION
        print("  bound holds on the stable-link grid")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grad-check


def cmd_grad_check(args) -> int:
    rng = Rng(args.seed)
    rows = []
    worst = 0.0
    case = 0
    attempts = 0
    while case < args.cases and attempts < args.cases * 20:
        attempts += 1
        r = rng.child(attempts)
        n = int(r.child(0).integers(6, 11))
        adj = build_sbm(n, 2, 0.9, 0.4, r.child(1)) if n % 2 == 0 else build_sbm(n - 1, 2, 0.9, 0.4, r.child(1))
        n = adj.n
        if adj.num_edges == 0:
            continue
        base = to_shift(adj, NORMALIZED_ADJACENCY)
        nl = ("relu", "abs", "tanh")[case % 3]
        loss = ("mse", "cross_entropy")[case % 2]
        readout = ("none", "pooled", "per_node")[case % 3]
        if loss == "cross_entropy":
            readout = "pooled"
        # three pooled features: standardization maps two to +-1 whatever the layers do
        cfg = SgnnConfig(layers=2, features=2, order=2, nonlinearity=nl, in_features=1,
                         out_features={"none": 1, "pooled": 3, "per_node": 2}[readout],
                         readout=readout, readout_dim=0 if readout == "none" else 3)
        tensor = init_tensor(cfg, r.child(2), 0.6)
        reals = sample_architecture(base, 0.7, cfg, r.child(3))
        x = r.child(4).normal(size=(1, n, 3))
        out, cache = forward(tensor, reals, x)
        # keep kink-prone cases away from non-differentiable points, and skip a relu
        # layer dead on every node: the output, and so the check, ignore every tap
        pre = cache.pre_activations
        if nl in ("relu", "abs") and min(np.abs(u).min() for u in pre) < 1e-4:
            continue
        if nl == "relu" and any((u < 0).all() for u in pre):
            continue
        if loss == "cross_entropy":
            y = r.child(5).integers(0, 3, 3)
        else:
            y = r.child(5).normal(size=out.shape)
        grad = backward(tensor, reals, cache, _loss_pair(loss, out, y)[1])
        rel = gradient_rel_error(grad, central_differences(tensor, reals, x, y, loss))
        worst = max(worst, rel)
        rows.append({"case": case, "nonlinearity": nl, "loss": loss,
                     "readout": readout, "max_rel_err": rel})
        case += 1
    path = common.write_results(
        rows, Path(args.out) / f"grad_check.{args.format}", args.format,
        columns=("case", "nonlinearity", "loss", "readout", "max_rel_err"))
    print(f"grad-check: {len(rows)} cases, max rel err {worst:.3e} -> {path}")
    return EXIT_OK if worst <= 1e-5 and len(rows) == args.cases else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# convergence


def _rate_task(seed: int):
    """Small source-localization instance used for the rate check."""
    rng = Rng(seed, stream=77)
    adj = build_sbm(10, 2, 0.8, 0.2, rng.child(0))
    base = to_shift(adj, NORMALIZED_ADJACENCY)
    ds = gen_source_dataset(base, 2, (500, 50, 50), 8, 0.01, rng.child(1))
    cfg = SgnnConfig(layers=1, features=8, order=4, nonlinearity="relu",
                     in_features=1, out_features=8, readout="pooled", readout_dim=2)
    tensor = init_tensor(cfg, rng.child(2), 1.0)
    return tensor, TrainingSet(ds.train.inputs, ds.train.labels, base)


def _convergence_worker(payload) -> dict:
    seed, iterations, p, schedule = payload
    tensor, train_set = _rate_task(seed)
    cfg = TrainConfig(iterations=iterations, batch_size=len(train_set), lr=0.05,
                      schedule=schedule, optimizer="sgd", link_p=p, seed=seed,
                      loss="cross_entropy")
    trace = train(tensor, train_set, cfg)
    running = convergence_metric(trace)
    return {"seed": seed, "iterations": iterations, "min_grad_sq": float(running[-1]),
            "final_cost": float(trace.costs[-1])}


def cmd_convergence(args) -> int:
    rows = [_convergence_worker((seed, args.iterations, args.p, args.schedule))
            for seed in range(args.seed, args.seed + args.seeds)]
    mean_min = float(np.mean([r["min_grad_sq"] for r in rows]))
    rows.append({"seed": "mean", "iterations": args.iterations,
                 "min_grad_sq": mean_min,
                 "final_cost": float(np.mean([r["final_cost"] for r in rows]))})
    path = common.write_results(
        rows, Path(args.out) / f"convergence_T{args.iterations}.{args.format}", args.format,
        columns=("seed", "iterations", "min_grad_sq", "final_cost"))
    print(f"convergence: T={args.iterations} p={args.p} mean running-min |grad|^2 = "
          f"{mean_min:.6g} -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiments


def _mean_value(rows, method, p):
    vals = [r["value"] for r in rows if r["method"] == method and r["p"] == p]
    return float(np.mean(vals)) if vals else float("nan")


# Each check reads the per-(method, p) seed mean through ``m`` and is false
# when a probability it needs is missing from the table (the mean is NaN).
SOURCE_CHECKS = (
    ("sgnn >= gnn at p=0.7", lambda m, cfg: m("sgnn", 0.7) >= m("gnn", 0.7)),
    ("sgnn beats chance at p=0.5", lambda m, cfg: m("sgnn", 0.5) > 1.0 / cfg.communities),
    ("gnn within 0.1 of chance at p=0.5",
     lambda m, cfg: abs(m("gnn", 0.5) - 1.0 / cfg.communities) <= 0.1),
)
FLOCK_CHECKS = (
    ("sgnn cost <= gnn cost at p=0.7", lambda m, cfg: m("sgnn", 0.7) <= m("gnn", 0.7)),
    ("sgnn beats zero policy at p=0.7", lambda m, cfg: m("sgnn", 0.7) < m("zero", 0.7)),
    ("gnn beats zero policy at p=0.7", lambda m, cfg: m("gnn", 0.7) < m("zero", 0.7)),
)


def run_checks(checks, rows, cfg) -> int:
    """Print one PASS/FAIL line per check; exit code 1 if any fails."""
    ok = True
    mean = functools.partial(_mean_value, rows)
    for label, check in checks:
        passed = bool(check(mean, cfg))
        ok &= passed
        print(f"  {'PASS' if passed else 'FAIL'}: {label}")
    return EXIT_OK if ok else EXIT_ASSERTION


# command -> (config class, per-seed runner, file prefix, results table, checks)
EXPERIMENTS = {
    "train-source": (SourceLocConfig, run_source_seed, "source", "source_accuracy",
                     SOURCE_CHECKS),
    "train-flock": (FlockingConfig, run_flock_seed, "flock", "flock_cost", FLOCK_CHECKS),
}


def cmd_train(args) -> int:
    config, run_seed, prefix, table, checks = EXPERIMENTS[args.command]
    cfg = _apply_overrides(config(), args.overrides)
    results, rows = common.run_seeds(run_seed, cfg, args.jobs)
    out = Path(args.out)
    common.write_results(rows, out / f"{table}.{args.format}", args.format)
    for res, seed in zip(results, cfg.seeds):
        for model in ("sgnn", "gnn"):
            trace = res[f"{model}_trace"]
            trace.to_csv(out / f"{prefix}_{model}_trace_seed{seed}.csv")
            save_checkpoint(trace.tensor, out / f"{prefix}_{model}_seed{seed}.ckpt",
                            kind=NORMALIZED_ADJACENCY)
    print(f"{args.command}: {len(rows)} rows -> {out}")
    return run_checks(checks, rows, cfg) if args.check else EXIT_OK


# ---------------------------------------------------------------------------


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgnn-lab",
        description="Verification suites and experiments for stochastic graph "
                    "filters and networks over unreliable links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0, help="root random seed (default 0)")
        p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = command("moment-check", cmd_moment_check, "second-moment closed forms vs enumeration")
    p.add_argument("--kind", choices=(ADJACENCY, LAPLACIAN, "both"), default="both")
    p.add_argument("--max-edges", type=_positive, default=12)
    p.add_argument("--samples", type=int, default=100_000)

    p = command("variance-sweep", cmd_variance_sweep, "Monte-Carlo variance vs first-order bound")
    p.add_argument("--p", type=float, nargs="*", default=None, help="link probability grid")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--assert", dest="check", action="store_true",
                   help="exit 1 if the variance exceeds the bound")

    p = command("grad-check", cmd_grad_check, "analytic gradients vs finite differences")
    p.add_argument("--cases", type=_positive, default=20)

    p = command("convergence", cmd_convergence, "running-min gradient norm for a horizon")
    p.add_argument("--T", dest="iterations", type=_positive, required=True,
                   help="training iterations")
    p.add_argument("--p", type=float, default=0.9, help="link probability (default 0.9)")
    p.add_argument("--seeds", type=_positive, default=5, help="run seeds --seed .. --seed+N-1")
    p.add_argument("--schedule", choices=("horizon", "invsqrt", "constant"), default="invsqrt")

    for name, summary in (("train-source", "source-localization experiment"),
                          ("train-flock", "flocking experiment")):
        p = command(name, cmd_train, summary)
        p.add_argument("--jobs", type=_positive, default=1, help="worker processes for the seeds")
        p.add_argument("--assert", dest="check", action="store_true",
                       help="exit 1 if the experiment's directional checks fail")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides; tuple values use ';' separators")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if args.out is None:
        args.out = f"runs/{args.command}"
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
