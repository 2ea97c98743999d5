"""Call tracing for the benchmark, installed from outside the library.

A :class:`Tracer` replaces each named library function with a timing
wrapper at every ``sgnn_lab`` module that binds it.  Rebinding only the
defining module is not enough: ``from ..graphs import to_shift`` copies the
function object into the importing module, so calls made there would be
missed.  The wrapper records calls, busy time (inclusive), self time (busy
time minus the time covered by traced child calls) and, where a work
counter is given, the work done (batch columns, steps, samples).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _input_columns(args, kwargs, result) -> int:
    x = _arg(args, kwargs, 2, "x")
    return int(x.shape[2]) if x.ndim == 3 else 1


def _backward_columns(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 2, "cache").x.shape[2])


def _train_steps(args, kwargs, result) -> int:
    return len(result.costs)


def _eval_inputs(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 2, "inputs"))


def _sim_steps(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 2, "steps"))


def _mc_samples(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 4, "n_samples"))


PACKAGE = "sgnn_lab"

# Traced functions, by module path below ``sgnn_lab``, with the name of the
# work they count and how to count it.  ``filters`` is deliberately absent:
# its message-passing evaluator is an oracle kept off the fast path.
LAYERS = {
    "graphs.to_shift": None,
    "graphs.build_disc_graph": None,
    "graphs.sample_realization": None,
    "graphs.build_sbm": None,
    "spectral.eig_sym": None,
    "spectral.estimate_response_lipschitz": None,
    "spectral.estimate_response_bound": None,
    "model.sample_architecture": None,
    "model.forward": ("columns", _input_columns),
    "training.train": ("steps", _train_steps),
    "training.backward": ("columns", _backward_columns),
    "variance.tensor_constants": None,
    "variance.mc_sgnn_variance": ("samples", _mc_samples),
    "experiments.source.gen_source_dataset": None,
    "experiments.source.evaluate_accuracy": ("samples", _eval_inputs),
    "experiments.flocking.collect_expert_dataset": None,
    "experiments.flocking.swarm_features": None,
    "experiments.flocking.centralized_controller": None,
    "experiments.flocking.simulate_swarm": ("steps", _sim_steps),
}


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    """Timing wrappers for a subset of :data:`LAYERS` in the library
    ``package``, reading time from ``clock``, installed with
    :meth:`install` and removed with :meth:`uninstall`."""

    def __init__(self, names, package: str = PACKAGE, clock=perf_counter):
        self.names = tuple(names)
        self.package = package
        self.clock = clock
        self.stats = {name: Stat() for name in self.names}
        self.binding_sites = {name: [] for name in self.names}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.names:
            self.stats[name] = Stat()

    def snapshot(self) -> dict[str, Stat]:
        return {name: Stat(**vars(stat)) for name, stat in self.stats.items()}

    def _wrap(self, name: str, fn):
        stack = self._stack
        counter = LAYERS[name][1] if LAYERS[name] else None
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                stat = tracer.stats[name]
                stat.calls += 1
                stat.busy_s += busy
                stat.self_s += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
            if counter is not None:
                tracer.stats[name].work += counter(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [(mod_name, mod) for mod_name, mod in list(sys.modules.items())
                   if mod is not None and (mod_name == self.package
                                           or mod_name.startswith(self.package + "."))]
        for name in self.names:
            self.binding_sites[name] = []
            mod_path, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{self.package}.{mod_path}"], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
                        self.binding_sites[name].append(f"{mod_name}.{key}")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
