"""Deterministic uniform random sources with indexed substreams.

Substream j of a seed is PCG64DXSM seeded by the numpy SeedSequence with
entropy ``seed`` and spawn key ``(j,)``: exactly the j-th child of
``SeedSequence(seed).spawn(...)``, numpy's construction for parallel
streams.  A given pair always reproduces the same sequence, and distinct
indices give statistically independent streams.  That lets replication
chunks be farmed out to any number of workers and merged reproducibly.
A stream is read straight through from position 0, whatever its reads
are: a row of uniforms (``uniforms``), the uniforms of a row that fall
below a cut (``below``), or uniforms conditioned to lie above it
(``above``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["UnitSampleStream"]

# the smallest positive double, which an exact 0.0 becomes, and the largest
# double below 1, which a fill never passes
_TINY = np.nextafter(0.0, 1.0)
_BELOW_ONE = np.nextafter(1.0, 0.0)


class UnitSampleStream:
    """Seedable uniform(0,1) source for substream ``substream_index`` of
    ``seed``, both non-negative integers of any size.  SeedSequence takes
    them whole, so distinct seeds never share a stream, and rejects a float
    or a string (``TypeError``) and a negative (``ValueError``).

    Streams are single-owner: do not share one instance across concurrent
    contexts; construct one per worker, e.g. ``UnitSampleStream(seed, j)``.
    """

    def __init__(self, seed: int, substream_index: int = 0):
        seq = np.random.SeedSequence(seed, spawn_key=(substream_index,))
        self._gen = np.random.Generator(np.random.PCG64DXSM(seq))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n uniforms on the open interval (0, 1), into ``out`` if given.

        ``Generator.random`` returns k * 2**-53 for k < 2**53, never 1.0;
        an exact 0.0 becomes 2**-1074, so -log(u) is always finite.
        """
        u = self._gen.random(int(n), out=out)
        return np.maximum(u, _TINY, out=u)

    def below(self, p: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions, in increasing order, of the uniforms of a row of
        ``count`` that fall below ``p`` in (0, 1), and their values, drawn
        at a cost set by p * count rather than by count.

        Each gap between positions is geometric by inversion,
        ceil(log(V) / log1p(-p)) for a uniform V; the gaps' uniforms are
        read in batches sized from p and the rest of the row, until the
        running position passes ``count``.  Each value is then p * V for a
        further uniform V, strictly below ``p`` for a normal double p."""
        if not 0.0 < p < 1.0:
            raise ValueError("the cut must lie in (0, 1)")
        log_q, start, ends = math.log1p(-p), 0.0, []
        while True:
            left = p * (count - start)
            gaps = np.log(self.uniforms(int(left + 4.0 * math.sqrt(left)) + 8))
            # integers below 2**53 sum exactly, and the sum only rises; a
            # tiny p makes gaps, or their sum, overflow to inf, past count
            with np.errstate(over="ignore"):
                gaps /= log_q
                end = np.cumsum(np.ceil(gaps, out=gaps), out=gaps)
            end += start
            ends.append(end[: np.searchsorted(end, count, side="right")])
            if ends[-1].size < end.size:
                break
            start = end[-1]
        positions = np.concatenate(ends).astype(np.intp)
        positions -= 1
        values = self.uniforms(positions.size)
        values *= p
        return positions, values

    def above(self, p: float, n: int) -> np.ndarray:
        """n uniforms conditioned on being at least ``p`` in (0, 1):
        p + (1 - p) * V for uniforms V, each at least p and at most the
        largest double below 1."""
        u = self.uniforms(n)
        u *= 1.0 - p
        u += p
        return np.minimum(u, _BELOW_ONE, out=u)
