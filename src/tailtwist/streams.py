"""Deterministic uniform random sources with indexed substreams.

Substream j of a seed is PCG64DXSM seeded by the numpy SeedSequence with
entropy ``seed`` and spawn key ``(j,)``: exactly the j-th child of
``SeedSequence(seed).spawn(...)``, numpy's construction for parallel
streams.  A given pair always reproduces the same sequence, and distinct
indices give statistically independent streams.  That lets replication
chunks be farmed out to any number of workers and merged reproducibly.
A stream is read straight through from position 0, whatever its reads
are: block sizes (``first_below``), plain uniforms (``uniforms``), or a
row of uniforms conditioned, segment by segment, to lie in an interval
(``row``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnitSampleStream"]

# the smallest positive double, which an exact 0.0 becomes, and the largest
# double below 1, which a uniform above a cut never passes
_TINY = np.nextafter(0.0, 1.0)
_BELOW_ONE = np.nextafter(1.0, 0.0)


class UnitSampleStream:
    """Seedable uniform(0,1) source for substream ``substream_index`` of
    ``seed``, both non-negative integers of any size.  SeedSequence takes
    them whole, so distinct seeds never share a stream, and rejects a float
    or a string (``TypeError``) and a negative (``ValueError``); a bool is
    rejected too (``TypeError``), as the config path rejects it.

    Streams are single-owner: do not share one instance across concurrent
    contexts; construct one per worker, e.g. ``UnitSampleStream(seed, j)``.
    """

    def __init__(self, seed: int, substream_index: int = 0):
        if isinstance(seed, (bool, np.bool_)) or isinstance(substream_index, (bool, np.bool_)):
            raise TypeError("a seed and a substream index must be integers, not bools")
        seq = np.random.SeedSequence(seed, spawn_key=(substream_index,))
        self._gen = np.random.Generator(np.random.PCG64DXSM(seq))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n uniforms on the open interval (0, 1), into ``out`` if given.

        ``Generator.random`` returns k * 2**-53 for k < 2**53, never 1.0;
        an exact 0.0 becomes 2**-1074, so -log(u) is always finite.
        """
        u = self._gen.random(int(n), out=out)
        return np.maximum(u, _TINY, out=u)

    def first_below(self, count: int, cuts) -> list[int]:
        """Of ``count`` replications of one uniform per cut in (0, 1], how
        many have their first uniform below its cut at each cut, in order:
        a binomial of the replications left at each cut, so a multinomial
        split.  The rest have every uniform at least its cut."""
        sizes = []
        for p in cuts:
            sizes.append(int(self._gen.binomial(count, p)))
            count -= sizes[-1]
        return sizes

    def row(self, segments, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with uniforms V, returned: each segment (size, lo, hi),
        0 <= lo < hi <= 1, maps the next ``size`` entries to lo + (hi - lo) * V,
        a uniform conditioned to lie in [lo, hi].  A value from lo = 0 is
        positive, and below hi for a normal double hi; one from lo > 0 is at
        most the largest double below 1.  An empty ``out`` reads nothing and
        costs no numpy call."""
        if not out.size:
            return out
        u = self.uniforms(out.size, out=out)
        start = 0
        for size, lo, hi in segments:
            part, start = u[start : start + size], start + size
            if not size or (lo, hi) == (0.0, 1.0):
                continue
            part *= hi - lo
            if lo:
                part += lo
                np.minimum(part, _BELOW_ONE, out=part)
            else:
                np.maximum(part, _TINY, out=part)
        return u
