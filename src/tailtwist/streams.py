"""Deterministic uniform random sources with indexed substreams.

Substream j of a seed is PCG64DXSM seeded by the numpy SeedSequence with
entropy ``seed`` and spawn key ``(j,)``: exactly the j-th child of
``SeedSequence(seed).spawn(...)``, numpy's construction for parallel
streams.  A given pair always reproduces the same sequence, and distinct
indices give statistically independent streams.  That lets replication
chunks be farmed out to any number of workers and merged reproducibly.
A stream is read straight through from position 0: a chunk draws its
components' rows of uniforms one after another.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnitSampleStream"]

# the open interval's end points, to which exact 0.0 and 1.0 move
_OPEN_ENDS = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


class UnitSampleStream:
    """Seedable uniform(0,1) source for substream ``substream_index`` of
    ``seed``, both non-negative integers of any size.  SeedSequence takes
    them whole, so distinct seeds never share a stream.

    Streams are single-owner: do not share one instance across concurrent
    contexts; construct one per worker, e.g. ``UnitSampleStream(seed, j)``.
    """

    def __init__(self, seed: int, substream_index: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.substream_index = int(substream_index)
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.substream_index,))
        self._gen = np.random.Generator(np.random.PCG64DXSM(seq))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n uniforms on the open interval (0, 1), into ``out`` if given.

        Exact endpoint values are remapped to the nearest representable
        interior value so -log(u) is always finite.
        """
        u = self._gen.random(int(n), out=out)
        return np.clip(u, *_OPEN_ENDS, out=u)
