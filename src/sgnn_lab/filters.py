"""Stochastic graph convolutions.

A graph filter of order K diffuses a signal through a chain of shift
operators and combines the stages with scalar taps:

    u = sum_k h_k * S_k ... S_1 x      (the k = 0 term is the input itself)

When every ``S_k`` is an independent edge-sampling realization this is a
stochastic graph filter; with ``S_k = S`` fixed it reduces to the ordinary
polynomial filter ``sum_k h_k S^k x``.  A shift sequence is K realized N x N
matrices; every evaluation, the network's included, runs :func:`diffusion_stages`.

``apply_distributed`` evaluates the same filter by per-node message passing
over the surviving links only, which certifies that the computation is local:
node i never touches state other than its own accumulators and the values
received over live incident edges.  It can record the full message trace
(round, sender, receiver, value) for inspection.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .common import write_results


class Message(NamedTuple):
    round: int
    sender: int
    receiver: int
    value: float


def _taps(h) -> np.ndarray:
    """Filter taps as a 1-D float array of at least one tap (``ValueError`` otherwise)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or len(h) == 0:
        raise ValueError(f"filter taps must be a non-empty 1-D sequence, got shape {h.shape}")
    return h


def _filter_inputs(h, mats: Sequence[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Taps ``h`` (one more than the shifts ``mats``) and signal ``x`` of a filter, as
    float arrays (``ValueError`` otherwise)."""
    h = _taps(h)
    if len(h) != len(mats) + 1:
        raise ValueError(f"{len(h)} taps need {len(h) - 1} realizations, got {len(mats)}")
    return h, _check_inputs(mats, x)


def _check_inputs(mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    n = len(x)
    for mat in mats:
        if np.shape(mat) != (n, n):
            raise ValueError(f"shift of shape {np.shape(mat)} does not act on {n} nodes")
    return x


def diffusion_stages(mats: Sequence[np.ndarray], x: np.ndarray,
                     reuse: np.ndarray | None = None) -> np.ndarray:
    """Stages ``x, S_1 x, S_2 S_1 x, ...`` (``S_k = mats[k - 1]``) written into one
    ``(K+1, ...)`` array: ``reuse`` when it has that shape, else a new one.  The
    matmul broadcasts, so a stack of shifts ``(..., N, N)`` diffuses a stack of
    signals ``(..., N, B)``, and each stage has the broadcast shape of the shift
    stack and the signal stack."""
    first = np.shape(mats[0]) if len(mats) else ()
    # the broadcast shape of the leading axes, without np.broadcast_shapes' call cost:
    # a size-1 axis takes the other's size; any other mismatch raises in the copy below
    lead_m, lead_x = first[:-2], x.shape[:-2]
    pad = len(lead_x) - len(lead_m)
    lead = tuple(b if a == 1 else a for a, b in zip((1,) * pad + lead_m, (1,) * -pad + lead_x))
    shape = (len(mats) + 1,) + lead + x.shape[-2:]
    stages = reuse if reuse is not None and reuse.shape == shape else np.empty(shape)
    stages[0] = x
    for k in range(1, len(stages)):
        np.matmul(mats[k - 1], stages[k - 1], out=stages[k])
    return stages


def diffuse(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Diffusion sequence x, S_1 x, S_2 S_1 x, ... as a (K+1, N) array."""
    return diffusion_stages(mats, _check_inputs(mats, x))


def apply_filter(h, mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Stochastic graph convolution with taps ``h`` (length K+1) over K
    realized shifts."""
    h, x = _filter_inputs(h, mats, x)
    stages = diffusion_stages(mats, x)
    out = h[0] * stages[0]
    for k in range(1, len(h)):
        out = out + h[k] * stages[k]
    return out


def apply_deterministic(h, s, x: np.ndarray) -> np.ndarray:
    """Polynomial filter ``sum_k h_k S^k x`` on a fixed shift (operator or
    matrix), via iterated multiplies (powers of S are never formed)."""
    h = _taps(h)
    return apply_filter(h, [np.asarray(getattr(s, "mat", s), dtype=float)] * (len(h) - 1), x)


def apply_distributed(
    h,
    mats: Sequence[np.ndarray],
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
    h, x = _filter_inputs(h, mats, x)
    n = len(x)
    acc = [h[0] * x[i] for i in range(n)]
    current = [x[i] for i in range(n)]
    messages: list[Message] = []
    for k, mat in enumerate(mats, start=1):
        incoming = [mat[i, i] * current[i] for i in range(n)]  # diagonal term is local
        for i, j in np.argwhere(np.triu(mat, 1)).tolist():  # surviving links, i < j
            if record_trace:
                messages.append(Message(k, j, i, float(current[j])))
                messages.append(Message(k, i, j, float(current[i])))
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
    write_results([m._asdict() for m in messages], path, columns=Message._fields)
