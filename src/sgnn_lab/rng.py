"""Seeded, splittable random streams.

Every stochastic operation in the package draws from an :class:`Rng`, a thin
wrapper around numpy's counter-based Philox generator keyed by
``(seed, stream)``.  Equal ``(seed, stream)`` pairs reproduce the same draw
sequence bit for bit; distinct stream ids give independent-quality streams.
Streams derived with :meth:`Rng.child` are independent of the parent and of
each other, so concurrent consumers can each own a stream without
coordination.  Realization keeps come from :meth:`Rng.bernoulli`: one 32-bit
lane per edge, two per 64-bit word, so ``p`` is rounded down to a multiple of
2^-32 and a set of ``count`` realizations of M edges consumes
``ceil(count * M / 2)`` words (at p = 1 the sampler draws nothing).
"""

from __future__ import annotations

import math

import numpy as np


class Rng:
    """Deterministic random stream keyed by (seed, stream)."""

    __slots__ = ("seed", "stream", "_path", "generator")

    def __init__(self, seed: int, stream: int = 0, _path: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream = int(stream)
        self._path = (int(stream),) if _path is None else _path
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "Rng":
        """Independent stream derived from this one, deterministic in ``index``."""
        return Rng(self.seed, self.stream, _path=self._path + (int(index),))

    def bernoulli(self, p: float, shape) -> np.ndarray:
        """Boolean ``shape`` array of independent keeps w.p. ``p`` in [0, 1), rounded down
        to a multiple of 2^-32: entry ``t`` (C order) is ``lane_t < floor(p * 2**32)``,
        lane ``t`` being the low (even ``t``) or high half of raw word ``t // 2``, so
        ``ceil(size / 2)`` words are consumed whatever the byte order."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"keep probability p={p} outside [0, 1)")
        size = math.prod(shape)
        raw = self.generator.bit_generator.random_raw((size + 1) // 2)
        lanes = raw.astype("<u8", copy=False).view("<u4")[:size]
        return (lanes < np.uint32(p * 2**32)).reshape(shape)

    # Convenience passthroughs to the underlying generator.
    def random(self, size=None):
        return self.generator.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, x):
        return self.generator.permutation(x)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream}, path={self._path})"
