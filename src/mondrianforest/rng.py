"""Deterministic, splittable random streams.

Every stochastic component of this package draws from an :class:`RngStream`,
a thin wrapper around numpy's counter-based Philox generator.  A stream is a
pure function of ``(seed, path)``: the same seed and derivation path always
produce the same draw sequence, on every platform, regardless of what other
streams exist.  Child streams are derived with :meth:`RngStream.child`, so
tree ``m`` of a forest sees the same randomness whether the forest has
``m + 1`` or ``m + 1000`` trees.

Exponential variates are generated by inverse CDF (``-log1p(-u) / rate``) so
the draw sequence is exactly one uniform per variate and reproducible from
the uniform stream alone.

Scalar uniforms are served from blocks of ``_BLOCK`` doubles.  Philox is
counter-based, so ``random(n)`` yields exactly the doubles of ``n``
consecutive ``random()`` calls, and the block changes no draw.  The block
reads ahead of the draws handed out; ``counter`` counts only the latter.
Mixing scalar and bulk draws follows one resync rule: reading
:attr:`RngStream.generator` rewinds the Philox state to just after the last
scalar draw handed out, so bulk draws continue from there exactly as if every
scalar draw had been taken one at a time, and later scalar draws follow the
bulk ones.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RngStream"]

_BLOCK = 256


def _natural(value, name: str, least: int = 0) -> int:
    """``value`` as a Python int >= ``least``: the package's one check of a count.

    int() would truncate 2.5 and take True as 1, and a bare ``< least`` lets both through.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


class RngStream:
    """Seedable deterministic random stream with scalar draw primitives.

    Parameters
    ----------
    seed : int
        64-bit master seed: an int or numpy integer, never a float or bool.
    path : tuple of int, optional
        Derivation path from the master seed; ``()`` for a root stream.
        Use :meth:`child` rather than passing paths by hand.
    """

    __slots__ = ("seed", "path", "counter", "_gen", "_block", "_state")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = _natural(seed, "seed")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.path = tuple(_natural(p, "path entry") for p in path)
        self.counter = 0
        entropy = (self.seed,) + self.path
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        # unread draws of the current block, last draw first (so ``pop`` hands
        # them out in order), and the Philox state the block was read from
        self._block: list[float] = []
        self._state = None

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream; pure in ``(seed, path, index)``."""
        return RngStream(self.seed, self.path + (index,))

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy Generator, for bulk (array) draws.

        Reading it resyncs the stream: the unread part of the current block
        is given back, so bulk draws continue right after the last scalar
        draw handed out, and the next scalar draw follows them.  Take it anew
        after any scalar draw; a reference held across one is stale.  Bulk
        draws are not counted in ``counter``, which tracks only the scalar
        draws used by partition sampling.
        """
        if self._block:
            self._gen.bit_generator.state = self._state
            self._gen.random(_BLOCK - len(self._block))
            self._block = []
        return self._gen

    def uniform(self) -> float:
        """One uniform draw on [0, 1)."""
        self.counter += 1
        if not self._block:
            self._state = self._gen.bit_generator.state
            self._block = self._gen.random(_BLOCK)[::-1].tolist()
        return self._block.pop()

    def exponential(self, rate: float) -> float:
        """One strictly positive Exp(rate) draw via inverse CDF.

        ``rate == 0`` returns ``inf`` without consuming the stream (the event
        never happens).  A uniform that is exactly 0.0 is redrawn so the
        result is never 0, which keeps split times strictly increasing.
        """
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if rate == 0:
            return math.inf
        u = self.uniform()
        while u == 0.0:
            u = self.uniform()
        return -math.log1p(-u) / rate

    def categorical(self, weights) -> int:
        """Index draw with probability proportional to nonnegative weights.

        Consumes exactly one uniform.  Returns the smallest index ``j`` with
        ``cumsum(weights)[j] > u * sum(weights)``; zero-weight entries are
        never selected.
        """
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("weights must be nonnegative")
            total += w
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        target = self.uniform() * total
        acc = 0.0
        last_positive = 0
        for j, w in enumerate(weights):
            if w > 0:
                last_positive = j
                acc += w
                if acc > target:
                    return j
        # float droop: target landed at/above the final cumulative sum
        return last_positive

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, path={self.path}, counter={self.counter})"
