"""Deterministic uniform random sources with indexed substreams.

Substream j of a seed is PCG64DXSM seeded by the numpy SeedSequence with
entropy ``seed`` and spawn key ``(j,)``: exactly the j-th child of
``SeedSequence(seed).spawn(...)``, numpy's construction for parallel
streams.  A given pair always reproduces the same sequence, and distinct
indices give statistically independent streams.  That lets replication
chunks be farmed out to any number of workers and merged reproducibly.
A stream can also seek to any position of its substream, so one chunk
can draw its components' uniforms block by block, in any order.
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
        self._initial_state = self._gen.bit_generator.state

    def seek(self, position: int) -> None:
        """Make the next uniform drawn the one at ``position`` (from 0) of
        the substream, forwards or backwards.

        Each uniform takes one 64-bit output, so this resets the generator
        to its initial state and advances it by ``position`` outputs, in
        O(log position) steps.
        """
        position = int(position)
        if position < 0:
            raise ValueError("stream position must be >= 0")
        bit_generator = self._gen.bit_generator
        bit_generator.state = self._initial_state
        bit_generator.advance(position)

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n uniforms on the open interval (0, 1), into ``out`` if given.

        Exact endpoint values are remapped to the nearest representable
        interior value so -log(u) is always finite.
        """
        u = self._gen.random(int(n), out=out)
        return np.clip(u, *_OPEN_ENDS, out=u)
