"""Stochastic graph convolutions.

A graph filter of order K diffuses a signal through a chain of shift
operators and combines the stages with scalar taps:

    u = sum_k h_k * S_k ... S_1 x      (the k = 0 term is the input itself)

When every ``S_k`` is an independent edge-sampling realization this is a
stochastic graph filter; with ``S_k = S`` fixed it reduces to the ordinary
polynomial filter ``sum_k h_k S^k x``.

``apply_distributed`` evaluates the same filter by per-node message passing
over the surviving links only, which certifies that the computation is local:
node i never touches state other than its own accumulators and the values
received over live incident edges.  It can record the full message trace
(round, sender, receiver, value) for inspection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import ShiftRealization


@dataclass(frozen=True)
class DiffusionTrace:
    """The K+1 diffusion stages of a signal plus the realizations used."""

    signals: tuple[np.ndarray, ...]
    realizations: tuple[ShiftRealization, ...]


class Message(NamedTuple):
    round: int
    sender: int
    receiver: int
    value: float


def _check_inputs(realizations: Sequence[ShiftRealization], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if realizations:
        base = realizations[0].base
        if any(r.base is not base for r in realizations):
            raise ValueError("realizations must share one base graph")
        if base.n != len(x):
            raise ValueError(f"signal length {len(x)} != node count {base.n}")
    return x


def diffuse(x: np.ndarray, realizations: Sequence[ShiftRealization]) -> DiffusionTrace:
    """Diffusion sequence x, S_1 x, S_2 S_1 x, ..."""
    x = _check_inputs(realizations, x)
    signals = [x]
    for r in realizations:
        signals.append(r.mat @ signals[-1])
    return DiffusionTrace(signals=tuple(signals), realizations=tuple(realizations))


def apply_filter(h, realizations: Sequence[ShiftRealization], x: np.ndarray) -> np.ndarray:
    """Stochastic graph convolution with taps ``h`` (length K+1) over K
    realizations."""
    h = np.asarray(h, dtype=float)
    if len(h) != len(realizations) + 1:
        raise ValueError(f"{len(h)} taps need {len(h) - 1} realizations, got {len(realizations)}")
    trace = diffuse(x, realizations)
    out = h[0] * trace.signals[0]
    for k in range(1, len(h)):
        out = out + h[k] * trace.signals[k]
    return out


def apply_deterministic(h, s, x: np.ndarray) -> np.ndarray:
    """Polynomial filter ``sum_k h_k S^k x`` on a fixed shift, via iterated
    multiplies (powers of S are never formed)."""
    h = np.asarray(h, dtype=float)
    mat = np.asarray(getattr(s, "mat", s), dtype=float)
    x = np.asarray(x, dtype=float)
    if mat.shape[0] != len(x):
        raise ValueError(f"signal length {len(x)} != node count {mat.shape[0]}")
    out = h[0] * x
    stage = x
    for k in range(1, len(h)):
        stage = mat @ stage
        out = out + h[k] * stage
    return out


def apply_distributed(
    h,
    realizations: Sequence[ShiftRealization],
    x: np.ndarray,
    record_trace: bool = False,
):
    """Evaluate the stochastic filter by per-node message passing.

    Each round k, every node sends its current diffusion value over its
    surviving incident links and accumulates the weighted values it receives
    (plus its own diagonal term, which is local knowledge); afterwards each
    node forms ``u_i = sum_k h_k x_i^(k)`` locally.  Matches
    :func:`apply_filter` on the same realizations up to summation order.

    Returns the output signal, or ``(output, messages)`` when
    ``record_trace`` is true.
    """
    h = np.asarray(h, dtype=float)
    if len(h) != len(realizations) + 1:
        raise ValueError(f"{len(h)} taps need {len(h) - 1} realizations, got {len(realizations)}")
    x = _check_inputs(realizations, x)
    n = len(x)
    acc = [h[0] * x[i] for i in range(n)]
    current = [x[i] for i in range(n)]
    messages: list[Message] = []
    for k, real in enumerate(realizations, start=1):
        mat = real.mat
        incoming = [mat[i, i] * current[i] for i in range(n)]  # diagonal term is local
        for i, j in real.kept_edges:
            if record_trace:
                messages.append(Message(k, j, i, current[j]))
                messages.append(Message(k, i, j, current[i]))
            incoming[i] += mat[i, j] * current[j]
            incoming[j] += mat[j, i] * current[i]
        current = incoming
        for i in range(n):
            acc[i] += h[k] * current[i]
    out = np.array(acc)
    if record_trace:
        return out, messages
    return out


def write_message_trace(messages: Sequence[Message], path) -> None:
    """Dump a message trace as CSV with columns round, sender, receiver, value."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "sender", "receiver", "value"])
        for msg in messages:
            writer.writerow([msg.round, msg.sender, msg.receiver, repr(msg.value)])
