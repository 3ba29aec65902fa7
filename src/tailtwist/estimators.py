"""Tail-probability estimators and their accuracy reports.

Three estimators of alpha = P(sum of components > threshold):

  * naive Monte Carlo (indicator average);
  * conventional importance sampling, hazard-twisting every component;
  * improved importance sampling, hazard-twisting only the dominant
    components and leaving the light-tailed ones untouched.

Chunks.  Replications run in chunks of 2**17 where a chunk is expected
to touch at most one double a replication, else 2**16 (``_width``): a
chunk makes about as many numpy calls at either width, and each may hand
the GIL to another pool thread (``_run_estimates``).  Chunk j draws from
substream j of the seed (its SeedSequence with spawn key (j,), driving
PCG64DXSM) and reads it straight through (``_Blocks``): its 2n block
sizes, then each component's row in component order, one draw a row.  It
returns a ``ChunkSums`` record: the sums ``t``, ``t2`` and ``t4`` of its
weighted indicators t, t**2 and t**4, and its count of ``hits``.
Records merge exactly (math.fsum per sum, an integer sum of hits), so on
one platform and one numpy/scipy build a report is a bit-reproducible
function of (scenario, method, theta, runs, seed) at any worker count:
the inputs fix the screen, and so the width and every read.  Other
builds may differ in the last bits of a special function or of a
vectorised log, and so in the bytes.

Draws and weights.  Every draw takes one kernel: its cumulative hazard
y = -log(U) / (1 - theta) (theta = 0 untwisted) inverted by
``DistributionSpec.inverse_cumulative_hazard``, one ndtri_exp for a
log-normal law.  The draw falls as U rises, so a chunk keeps uniforms,
not hazards, and only its undecided replications form y: special
functions run on them only.  Only hits are weighed, through one kernel,
``log_likelihood_ratio``: s twisted draws whose y sum to S weigh
(1 - theta)**-s * exp(-theta * S), one log per twisted draw and one exp
per hit.

Rows.  Replications are i.i.d. and a chunk returns only sums over them,
so their order carries no information: a chunk draws how many fall in
each of its 2n blocks, and lays the blocks out one after another.  With
h_i and p_i component i's hit and share uniforms (the screen below; p_i
clipped to 1):
  * Certain hits.  Hit block k holds the replications whose first uniform
    at most its hit uniform is component k's: c_0 ~ Bin(count, h_0), c_1 ~
    Bin(count - c_0, h_1), and so on.
  * Undecided.  Of the replications left, over-share block n + k holds
    those whose first uniform below its share uniform is component k's:
    the binomials go on at (p_0 - h_0) / (1 - h_0), and so on.
  * Certain misses: the rest, every uniform at least its share uniform.
    Nothing is drawn for them.
Every row is five affine segments of uniforms V (``UnitSampleStream.row``),
cut at its own two blocks: row i is V before hit block i, h_i * V in it,
h_i + (1 - h_i) * V up to over-share block n + i, h_i + (p_i - h_i) * V in
it and p_i + (1 - p_i) * V after it.  A twisted row starts at the first
block, as the weights read it at every hit; an untwisted row at the first
over-share block, so its first two segments are empty.  A chunk holds what
it touches in one allocation of (n + 2) * count doubles: n rows over at
most count replications, then two doubles per hit for the weights;
besides that only arrays sized by the undecided.  No uniform is drawn
twice.

The screen.  A chunk decides its replications in three stages, each on
fewer of them.  Each certifies only past a margin of 1e-9 of gamma that
covers the rounding of every computed draw (``_SCREEN_MARGIN``), so no
stage changes a result: a replication is decided as an exact inversion
of all its draws decides it.
  1. The layout, from two critical uniforms per component, computed once
     per estimate (``_screen``): exp(-keep * Lambda(level)), keep = 1 -
     theta if twisted and 1 otherwise, rounded down at the hit level
     gamma * (1 + 1e-9) and up at the component's share level.  A uniform
     at most its hit uniform certifies a hit, as a sum is at least its
     largest draw, and uniforms each at least their share uniform a miss,
     as the share levels sum to at most gamma * (1 - 1e-9).  So only the
     over-share blocks are left to stages 2 and 3.  The levels, one per
     class of components alike in law and twist, split that total where
     the draws lie (``_share_levels``); deep in the tail the twisted heavy
     component takes most of it, while the light draws stay near their
     medians.
  2. Bound sums on the undecided: a Weibull draw bounds itself with its
     exact inverse, a log-normal one with the computed inverses at the
     nodes of its law's table either side of its y (``_table``: 1,025
     nodes up to the hit level's hazard, one ``take`` per bound).  Lower
     bounds summing above gamma * (1 + 1e-9) certify a hit, upper ones
     summing to at most gamma * (1 - 1e-9) a miss.  Where every component
     is Weibull the bound sums are the exact sums, compared with gamma
     itself, so no draw is inverted twice.
  3. Exact inversion of the rest, with the same float operations as an
     inversion of every draw.
Where the margin's error analysis does not reach (a log-normal level
1,000 natural-log units or more from mu_ln, a table node 500 or more, a
Weibull shape below 1e-5) the screen certifies nothing.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, Family
from .dominance import Scenario, TwistPlan
from .streams import UnitSampleStream

CHUNK_SIZE = 1 << 16
# an estimate whose chunks touch at most _WIDE_TOUCH doubles a replication:
# half the numpy calls and GIL hand-offs per replication.  One that touches
# more keeps the memory it touches
_WIDE_CHUNK_SIZE = 2 * CHUNK_SIZE
_WIDE_TOUCH = 1.0

# The critical uniforms (stage 1 of the module docstring) are rounded past
# the rounding of keep * Lambda and of exp, and the share levels c_i are
# normal doubles or 0 whose float sum is at most gamma * (1 - _SCREEN_MARGIN).
# So a certified uniform's y, as the sampling kernel computes it, is at most
# a few ulps on the wrong side of the level's hazard, itself a few ulps
# off.  A relative error d in y moves a log-normal standard score z by about
# d * max(z, 1), so the draw by sigma_ln * d * max(z, 1) relative, and a
# Weibull draw by d / shape.  Deep in the tail, ndtri_exp's z is up to
# 7e-13 relative off (against mpmath), which moves a log-normal draw x by
# up to 7e-13 * max(|ln x - mu_ln|, sigma_ln) relative (3.8e-10 measured
# at 1e250 for sigma_db = 4).  Each exp adds half an ulp.  So while
# max(|ln x - mu_ln|, sigma_ln) < _SCREEN_LOG_RANGE for a log-normal level
# x, and shape >= _SCREEN_MIN_SHAPE for a Weibull one, a draw certified at
# the hit level is above gamma, and a draw certified at its share level is
# at most c_i * (1 + _SCREEN_MARGIN / 2).  Those draws sum to at most
# gamma * (1 - _SCREEN_MARGIN / 2), and a float sum of N non-negative
# draws exceeds their exact sum by at most N - 1 roundings, so the float
# sum stays at most gamma.  Beyond the range and the shape a component's
# critical uniforms certify nothing: 0 for a hit, and at least 1 for the
# share.  A log-normal bound, a computed inverse at a table node beside y,
# is off the computed draw by two such ndtri_exp errors and an ulp: under
# 7e-10 at the nodes where max(|ln x - mu_ln|, sigma_ln) is below half
# _SCREEN_LOG_RANGE.  A Weibull bound is its exact draw.
_SCREEN_MARGIN = 1e-9
_SCREEN_LOG_RANGE = 1000.0
_SCREEN_MIN_SHAPE = 1e-5
_TABLE_BITS = 10  # a log-normal table has 2**_TABLE_BITS + 1 nodes

# The share levels' search grid, as fractions of gamma * (1 - _SCREEN_MARGIN)
_SHARE_GRID = np.geomspace(1e-8, 1.0, 129)
_SHARE_STEPS = np.diff(_SHARE_GRID)

__all__ = [
    "CHUNK_SIZE",
    "Method",
    "EstimateReport",
    "EfficiencyReport",
    "estimate_naive",
    "estimate_conventional",
    "estimate_improved",
    "log_likelihood_ratio",
    "efficiency",
    "optimality_ratio",
]


class Method(enum.Enum):
    NAIVE_MC = "naive"
    CONVENTIONAL_IS = "conventional"
    IMPROVED_IS = "improved"


@dataclass(frozen=True)
class EstimateReport:
    """One estimation run: point estimate plus accuracy diagnostics.

    ``second_moment`` is the sample mean of the squared weighted
    indicator T and ``second_moment_se`` its own standard error;
    ``variance`` is the unbiased sample variance of T, from which
    ``relative_error`` (std error / estimate) and the 95% normal
    confidence interval derive.  A run without hits has ``alpha_hat``
    0 and ``relative_error`` inf; its ``ci95_high`` is the exact
    one-sided 95% bound 1 - 0.05^(1/runs) for naive MC and inf for IS.
    A single run has no sample variance: both standard errors, the
    variance and a hit's relative error and interval are NaN.

    T, T**2 and T**4 are plain doubles, which underflow far in the tail.
    A run with hits whose mean of T**2 underflowed, to 0 or below the
    smallest normal double (about 2.2e-308), reports NaN for the second
    moment, both standard errors, the variance, the relative error and
    the interval, and one whose mean of T underflowed also for
    ``alpha_hat``; one whose mean of T**4 alone underflowed, for
    ``second_moment_se``.  So no such run claims zero spread, or passes
    for a run without hits.
    """

    method: Method
    alpha_hat: float
    second_moment: float
    second_moment_se: float
    variance: float
    relative_error: float
    ci95_low: float
    ci95_high: float
    runs: int
    theta: float
    seed: int


@dataclass(frozen=True)
class EfficiencyReport:
    """Run-count gain of an IS estimator over naive Monte Carlo.

    xi = alpha(1-alpha) / var[T]: how many times fewer replications the
    IS estimator needs for the same accuracy.
    """

    xi: float


class ChunkSums(NamedTuple):
    """One chunk's sums of t, t**2 and t**4, t the weighted indicator, and its hit count."""

    t: float
    t2: float
    t4: float
    hits: int


def log_likelihood_ratio(theta: float, s: int, hazard_sum):
    """Log importance weight of a draw whose s twisted components were each
    hazard-twisted by theta: -theta * hazard_sum - s * log1p(-theta), the
    log of (1-theta)^(-s) * exp(-theta * hazard_sum).

    ``hazard_sum`` is the sum of the twisted draws' cumulative hazards under
    the original law, a scalar or an array over replications; a twisted
    draw's hazard is y = -log(u) / (1 - theta), u its uniform.  A chunk
    weighs its hits through this one kernel, in place: an array
    ``hazard_sum`` is overwritten with the log weights and returned.
    """
    hazard_sum *= -theta
    hazard_sum -= s * math.log1p(-theta)
    return hazard_sum


class _Screen(NamedTuple):
    """The one record every chunk of an estimate reads: the ``components``,
    the indices ``twisted`` by ``theta`` and the threshold ``gamma`` it was
    built from, and its critical uniforms and tables, one per component: a
    uniform at most ``hit[i]`` certifies a hit, uniforms each at least their
    ``share[i]``, the critical uniform of component i's share level
    ``level[i]``, certify a miss, and ``table[i]`` bounds a log-normal draw.
    A chunk lays its replications out by these uniforms in 2n blocks: hit
    block k by the first uniform at most its hit uniform, over-share block
    n + k by the first below its share uniform, then the certain misses,
    never drawn."""

    components: tuple[DistributionSpec, ...]
    twisted: frozenset[int]
    theta: float
    gamma: float
    hit: tuple[float, ...]
    share: tuple[float, ...]
    level: tuple[float, ...]
    table: tuple[tuple[float, np.ndarray, np.ndarray] | None, ...]


def _rounded_uniform(spec: DistributionSpec, x: float, exponent: float, up: bool) -> float:
    """exp(-exponent), for exponent = keep * Lambda(x), rounded up or down
    past the rounding of keep * Lambda(x) and of exp; 1.0 (up) or 0.0
    (down) where the screen margin does not cover the draws near x."""
    if spec.family is Family.WEIBULL:
        covered = spec.weibull_shape >= _SCREEN_MIN_SHAPE
    else:
        covered = x == 0.0 or max(abs(math.log(x) - spec.mu_ln), spec.sigma_ln) < _SCREEN_LOG_RANGE
    if not covered:
        return 1.0 if up else 0.0
    # below the smallest normal double the rounding of exp is not relative
    if exponent >= -math.log(sys.float_info.min):
        return sys.float_info.min if up else 0.0
    # keep * Lambda is half an ulp off, which moves exp by half an ulp per
    # unit of the exponent; exp itself is within an ulp
    slack = (4.0 + exponent) * sys.float_info.epsilon
    return math.exp(-exponent) * (1.0 + slack if up else 1.0 - slack)


def _critical_uniform(spec: DistributionSpec, keep: float, x: float, up: bool) -> float:
    """exp(-keep * Lambda(x)), rounded as ``_rounded_uniform`` rounds it."""
    return _rounded_uniform(spec, x, keep * spec.cumulative_hazard(x), up)


@functools.lru_cache(maxsize=32)
def _table(spec: DistributionSpec, hazard: float) -> tuple[float, np.ndarray, np.ndarray]:
    """A log-normal spec's (step, lower, upper) up to ``hazard``, its hit
    level's: a y in ((j - 1) * step, j * step] has its draw between lower[j]
    and upper[j], the computed inverses x at (j - 1) * step and j * step, or
    0 and inf, which certify nothing: beyond the nodes, at a hazard of 0,
    subnormal or inf, and where max(|ln x - mu_ln|, sigma_ln) >= half
    _SCREEN_LOG_RANGE (x = 0 and inf too).  Cached per law and threshold."""
    lower, upper, step = np.zeros((1 << _TABLE_BITS) + 2), np.full((1 << _TABLE_BITS) + 2, np.inf), 1.0
    if sys.float_info.min <= hazard <= sys.float_info.max:
        # the least power of two above hazard / 2**_TABLE_BITS, so y / step is exact
        step = math.ldexp(1.0, math.frexp(hazard)[1] - _TABLE_BITS)
        with np.errstate(over="ignore", divide="ignore"):
            x = spec.inverse_cumulative_hazard(np.arange(lower.size - 1) * step)
            covered = np.maximum(np.abs(np.log(x) - spec.mu_ln), spec.sigma_ln) < 0.5 * _SCREEN_LOG_RANGE
        lower[1:], upper[:-1] = np.where(covered, x, 0.0), np.where(covered, x, np.inf)
    lower.flags.writeable = upper.flags.writeable = False  # shared through the cache
    return step, lower, upper


def _fit_levels(levels: list[float], counts: list[int], total: float) -> list[float]:
    """The levels, stepped down an ulp at a time until their float sum over
    the components (``counts[j]`` copies of ``levels[j]``) is at most
    ``total``, each then a normal double or else 0."""
    while math.fsum(itertools.chain.from_iterable([c] * m for c, m in zip(levels, counts))) > total:
        levels = [math.nextafter(c, 0.0) for c in levels]
    # below the smallest normal double rounding errors are no longer
    # relative; a level of 0 has a critical uniform of at least 1, which
    # certifies no miss
    return [c if c >= sys.float_info.min else 0.0 for c in levels]


def _share_levels(exponents: np.ndarray, counts: list[int], total: float) -> list[float]:
    """Share levels c_j, one per class of ``counts[j]`` alike components,
    whose float sum over the components is at most ``total``.

    ``exponents[j]`` holds class j's keep * Lambda on the grid
    total * _SHARE_GRID.  The levels maximise the sum over the classes of
    counts[j] * log(1 - exp(-keep * Lambda(c_j))), the log-probability under
    the sampling law that every draw is at most its level, on the grid:
    every class takes its grid steps while their gain per unit of the
    total, on its slopes' non-increasing envelope, is at least one common
    marginal gain, the smallest whose levels fit.  The levels are then
    scaled up to the total."""
    # an exponent of 0 would gain -inf; clipped, it gains about -744, still
    # the class's least
    gains = np.log(-np.expm1(-np.maximum(exponents, 5e-324)))
    envelope = np.minimum.accumulate(np.diff(gains, axis=1) / _SHARE_STEPS, axis=1)
    # each class's steps at every marginal gain on an envelope, and at an
    # infinite one, where no class steps and n * 1e-8 of the total is used
    marginal = -np.append(envelope.ravel(), np.inf)
    steps = np.array([np.searchsorted(-e, marginal, side="right") for e in envelope])
    # sums over the classes: the first np.dot call pages in BLAS, for a few numbers
    weights = np.array(counts, dtype=float)
    used = (weights[:, None] * _SHARE_GRID[steps]).sum(axis=0)
    fractions = _SHARE_GRID[steps[:, np.argmax(np.where(used <= 1.0, used, -1.0))]]
    # each fraction over the fractions' sum is at most 1, so no level overflows
    return _fit_levels((total * (fractions / (weights * fractions).sum())).tolist(), counts, total)


def _log_certain(shares: tuple[float, ...]) -> float:
    """The log-probability under the sampling law that every uniform is at
    least its component's share uniform, ``shares[i]``."""
    return math.fsum(math.log1p(-s) if s < 1.0 else -math.inf for s in shares)


def _screen(
    components: tuple[DistributionSpec, ...], twisted: frozenset[int], theta: float, gamma: float
) -> _Screen:
    """The critical uniforms of a chunk's components at the hit level
    gamma * (1 + margin) and at their share levels, which split
    gamma * (1 - margin).

    Components alike in law and twist form a class with one level and one
    pair of critical uniforms.  The levels are ``_share_levels``, but the
    equal split gamma * (1 - margin) / n for a single class, the only
    split, and where the equal level is 0, as no split then certifies a
    miss."""
    # the hit level is a normal double, where rounding errors stay relative
    level = max(gamma, sys.float_info.min) * (1.0 + _SCREEN_MARGIN)
    total = gamma * (1.0 - _SCREEN_MARGIN)
    keys = [(spec, 1.0 - theta if i in twisted else 1.0) for i, spec in enumerate(components)]
    classes = Counter(keys)
    order, counts = list(classes), list(classes.values())
    levels = _fit_levels([total / len(keys)] * len(order), counts, total)
    # every split leaves some level at most the equal split's, and a level
    # of 0 certifies nothing
    solve = len(order) > 1 and levels[0] > 0.0
    points = np.concatenate(([level], total * _SHARE_GRID if solve else ()))
    # one Lambda per class, at the hit level and the grid
    hazards = [spec.cumulative_hazard(points) for spec, _ in order]
    exponents = np.array([keep * hazard for (_, keep), hazard in zip(order, hazards)])
    # one table per log-normal law, over y whatever its twist
    tables = {s: _table(s, h[0].item()) for (s, _), h in zip(order, hazards) if s.family is Family.LOGNORMAL}
    hits = [_rounded_uniform(spec, level, e, up=False) for (spec, _), e in zip(order, exponents[:, 0].tolist())]
    if solve:
        levels = _share_levels(exponents[:, 1:], counts, total)
    shares = [_critical_uniform(spec, keep, c, up=True) for (spec, keep), c in zip(order, levels)]
    at = [order.index(key) for key in keys]
    hits, shares, levels = (tuple(v[j] for j in at) for v in (hits, shares, levels))
    table = tuple(map(tables.get, components))
    return _Screen(components, twisted, theta, gamma, hits, shares, levels, table)


def _bracket(spec: DistributionSpec, table: tuple | None, y: np.ndarray, sums: np.ndarray) -> None:
    """Add bounds on the draw of each y (overwritten) to ``sums``: the exact
    draw to both rows if ``table`` is None, else the table's to rows 0 and 1."""
    if table is None:
        sums += spec.inverse_cumulative_hazard(y, out=y)
        return
    step, lower, upper = table
    # clipped before the cast: a y beyond the nodes (y / step inf even) reads inf
    j = np.minimum(np.ceil(np.divide(y, step, out=y), out=y), lower.size - 1, out=y).astype(np.intp)
    sums[0] += np.take(lower, j, out=y, mode="clip")
    sums[1] += np.take(upper, j, out=y, mode="clip")


class _Blocks:
    """A chunk's uniforms: substream ``chunk_index`` of ``seed``, read
    straight through in the chunk's order of calls.  ``sizes`` draws the
    sizes of the chunk's 2n blocks, n hit blocks then n over-share blocks
    (the module docstring), and ``row`` row i in ``segments`` of (size, lo,
    hi): uniforms conditioned to lie in [lo, hi], filling ``out``, the
    row's last ``out.size`` positions in the layout.  Tests replace this
    class with dense rows sorted into the same blocks."""

    def __init__(self, seed: int, chunk_index: int, count: int):
        self._stream, self._count = UnitSampleStream(seed, chunk_index), count

    def sizes(self, hit: tuple[float, ...], shares: list[float]) -> list[int]:
        # the replications left after the hit blocks have every uniform above
        # its hit uniform h, where it is below its share uniform p with
        # chance (p - h) / (1 - h)
        return self._stream.first_below(self._count, [*hit, *((p - h) / (1.0 - h) for h, p in zip(hit, shares))])

    def row(self, i: int, segments: list[tuple[int, float, float]], out: np.ndarray):
        return self._stream.row(segments, out)


def _simulate_chunk(screen: _Screen, seed: int, chunk_index: int, count: int) -> ChunkSums:
    """The sums of one chunk's replications of the estimate ``screen`` records."""
    components, twisted, theta, gamma = screen.components, screen.twisted, screen.theta, screen.gamma
    n, keep = len(components), 1.0 - theta
    uniforms = _Blocks(seed, chunk_index, count)
    # a share uniform of 1 or more certifies no miss: its block takes every
    # replication left
    shares = [min(p, 1.0) for p in screen.share]
    starts = list(itertools.accumulate(uniforms.sizes(screen.hit, shares), initial=0))
    h, m = starts[n], starts[-1]
    # one allocation per chunk, of one size per width, so malloc keeps it on
    # its heap from chunk to chunk, where arrays sized by the blocks went
    # back to the system and faulted in again
    block = np.empty((n + 2) * count)
    rows = block[: n * m].reshape(n, m)
    for i, (cut, p) in enumerate(zip(screen.hit, shares)):
        # the five segments of the module docstring, from the row's first block
        first = 0 if i in twisted else h
        a, b = max(first, starts[i]), max(first, starts[i + 1])
        c, e = starts[n + i], starts[n + i + 1]
        segments = [(a - first, 0.0, 1.0), (b - a, 0.0, cut), (c - b, cut, 1.0), (e - c, cut, p), (m - e, p, 1.0)]
        uniforms.row(i, segments, rows[i, first:])
    # stages 2 and 3 of the module docstring on the undecided, the over-share
    # slices of every row, summing in component order; the exact sums decide
    # all that is left, and all-Weibull takes stage 2 alone
    undecided = rows[:, h:]
    found = np.zeros(m - h, dtype=np.bool_)
    at, u = np.arange(m - h), undecided
    exact = ((None,) * n, gamma, gamma)
    bounds = (screen.table, gamma * (1.0 + _SCREEN_MARGIN), gamma * (1.0 - _SCREEN_MARGIN))
    for tables, high, low in (bounds, exact) if any(screen.table) else (exact,):
        sums = np.zeros((2, at.size))
        for i, spec in enumerate(components):
            # y = -log(u) / (1 - theta_i), theta_i = 0 if untwisted: log(u) / -keep
            # rounds as -log(u) / keep does, and log(u) / -1 is -log(u)
            y = np.log(u[i])
            y /= -keep if i in twisted else -1.0
            _bracket(spec, tables[i], y, sums)
        found[at[sums[0] > high]] = True
        # exact sums are equal, so none stays undecided after them
        left = (sums[0] <= high) & (sums[1] > low)
        at, u = at[left], u[:, left]
    # the hits' weights, in layout order, from the sum of their twisted rows'
    # hazards: the hit blocks read in place, the undecided hits by index.
    # The first row's hazards land in the sum itself, as 0 + y is y; with no
    # twisted row each weight is exp(0) = 1
    at = np.flatnonzero(found)
    hits = h + at.size
    hazard_sum, y = block[n * m :][:hits], block[n * m + hits :][:hits]
    if not twisted:
        hazard_sum[:] = 0.0
    for j, i in enumerate(sorted(twisted)):
        z = y if j else hazard_sum
        np.log(rows[i, :h], out=z[:h])
        np.log(np.take(undecided[i], at, out=z[h:], mode="clip"), out=z[h:])
        z /= -keep
        if j:
            hazard_sum += y
    t = np.exp(log_likelihood_ratio(theta, len(twisted), hazard_sum), out=hazard_sum)
    sum_t = float(t.sum())
    sum_t2 = float(np.multiply(t, t, out=t).sum())
    sum_t4 = float(np.multiply(t, t, out=t).sum())
    return ChunkSums(sum_t, sum_t2, sum_t4, hits)


def _width(screen: _Screen) -> int:
    """The replications of a full chunk of the estimate ``screen`` records:
    wide where (s + 1) * q is at most _WIDE_TOUCH, q the chance that some
    uniform is below its share uniform.  A chunk's s twisted rows touch
    about s * q doubles a replication, drawn over its q * count replications
    in blocks; its untwisted rows, drawn over the undecided only, are
    counted as one more such row, as when each was drawn in a block of its
    own."""
    over = -math.expm1(_log_certain(screen.share))
    return _WIDE_CHUNK_SIZE if (len(screen.twisted) + 1) * over <= _WIDE_TOUCH else CHUNK_SIZE


@dataclass(frozen=True)
class _Estimate:
    """One estimate's work: the arguments of its chunks, in chunk order,
    and what its report records besides their partial sums.  Every chunk
    but the last has _WIDE_CHUNK_SIZE replications where a chunk touches at
    most _WIDE_TOUCH doubles a replication, and CHUNK_SIZE otherwise."""

    method: Method
    theta: float
    runs: int
    seed: int
    chunks: tuple[tuple, ...]


def _check_count(name: str, value: int) -> None:
    """A bool or a non-integer count (a numpy integer is one) is a
    ``TypeError``, as in the config path; one below 1 a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _estimate(
    scenario: Scenario,
    method: Method,
    runs: int,
    seed: int,
    theta: float = 0.0,
    plan: TwistPlan | None = None,
) -> _Estimate:
    """One estimate's chunks.  Naive MC twists nothing, conventional IS every
    component by ``theta``, improved IS the plan's dominant ones by its theta.
    The chunks are wide where they touch few doubles a replication."""
    if method is Method.NAIVE_MC:
        twisted, theta = frozenset(), 0.0
    elif method is Method.CONVENTIONAL_IS:
        if not 0.0 <= theta < 1.0:
            raise ValueError("twisting parameter must lie in [0, 1)")
        twisted = frozenset(range(scenario.n))
    else:
        if plan.theta is None:
            raise ValueError("the twist plan has no twisting parameter set")
        plan.check_fits(scenario)
        twisted, theta = frozenset(plan.dominant_indices), plan.theta
    _check_count("runs", runs)
    if theta == 0.0:
        # every weight is exp(0) = 1 and every twisted draw an untwisted one,
        # so no row is read for the weights
        twisted = frozenset()
    # the critical uniforms, once per estimate and on the calling thread
    screen = _screen(scenario.components, twisted, theta, scenario.threshold_linear)
    width = _width(screen)
    chunks = tuple((screen, seed, j, min(width, runs - a)) for j, a in enumerate(range(0, runs, width)))
    # the report names its count and seed as Python ints, as the CSV prints
    # them; the chunks' streams still reject a bool seed
    return _Estimate(method, theta, int(runs), operator.index(seed), chunks)


def _run_estimates(estimates: list[_Estimate], workers: int) -> list[EstimateReport]:
    """The report of each estimate, in order.

    With one worker every chunk runs in turn on the calling thread.
    Otherwise one pool of ``workers`` threads runs the chunks of all the
    estimates, so an estimate's chunks start while the previous one's last
    chunk still runs.  Results are taken in estimate and chunk order, so
    the error raised is the first one a serial run would raise; the chunks
    still queued are then cancelled.
    """
    _check_count("workers", workers)
    chunks = [args for estimate in estimates for args in estimate.chunks]

    def reports(partials) -> list[EstimateReport]:
        return [
            _report(estimate, list(itertools.islice(partials, len(estimate.chunks))))
            for estimate in estimates
        ]

    if workers == 1:
        return reports(itertools.starmap(_simulate_chunk, chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reports(pool.map(_simulate_chunk, *zip(*chunks)))


def _report(estimate: _Estimate, partials: list[ChunkSums]) -> EstimateReport:
    """The report of an estimate from its chunks' records."""
    hits = sum(p.hits for p in partials)
    m = float(estimate.runs)
    # fsum is exact, so the merge is independent of how the chunks ran.  A
    # mean below the smallest normal double although replications hit has
    # underflowed, in its terms or in the division: NaN
    alpha_hat, second_moment, fourth_moment = (
        mean if mean >= sys.float_info.min or not hits else math.nan
        for mean in (math.fsum(getattr(p, field) for p in partials) / m for field in ("t", "t2", "t4"))
    )
    # one replication has no sample variance, so every spread below is NaN
    bessel = m / (m - 1.0) if estimate.runs > 1 else math.nan
    variance = max(second_moment - alpha_hat * alpha_hat, 0.0) * bessel
    std_error = math.sqrt(variance / m)
    m2_variance = max(fourth_moment - second_moment * second_moment, 0.0) * bessel
    second_moment_se = math.sqrt(m2_variance / m)
    if hits:
        relative_error = std_error / alpha_hat
        # max keeps its first argument when that is NaN
        ci95_low = max(alpha_hat - 1.96 * std_error, 0.0)
        ci95_high = alpha_hat + 1.96 * std_error
    else:
        relative_error = math.inf
        ci95_low = 0.0
        # no hits: naive MC's exact one-sided bound 1 - 0.05^(1/runs), about
        # 3/runs; an IS row without a hit bounds nothing
        ci95_high = -math.expm1(math.log(0.05) / m) if estimate.method is Method.NAIVE_MC else math.inf
    return EstimateReport(
        method=estimate.method,
        alpha_hat=alpha_hat,
        second_moment=second_moment,
        second_moment_se=second_moment_se,
        variance=variance,
        relative_error=relative_error,
        ci95_low=ci95_low,
        ci95_high=ci95_high,
        runs=estimate.runs,
        theta=estimate.theta,
        seed=estimate.seed,
    )


def estimate_naive(
    scenario: Scenario, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Plain Monte Carlo: fraction of replications whose sum exceeds the
    threshold."""
    return _run_estimates([_estimate(scenario, Method.NAIVE_MC, runs, seed)], workers)[0]


def estimate_conventional(
    scenario: Scenario, theta: float, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Importance sampling with every component hazard-twisted by theta."""
    estimate = _estimate(scenario, Method.CONVENTIONAL_IS, runs, seed, theta=theta)
    return _run_estimates([estimate], workers)[0]


def estimate_improved(
    scenario: Scenario, plan: TwistPlan, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Importance sampling twisting only the plan's dominant components.

    The untwisted components barely influence the far tail, so leaving
    them alone keeps the likelihood weights closer to 1 and lowers the
    estimator's second moment relative to twisting everything.
    """
    return _run_estimates([_estimate(scenario, Method.IMPROVED_IS, runs, seed, plan=plan)], workers)[0]


def efficiency(is_report: EstimateReport, alpha_ref: float) -> EfficiencyReport:
    """Run-count ratio alpha(1-alpha) / var[T] versus naive Monte Carlo."""
    if not 0.0 < alpha_ref < 1.0:
        raise ValueError("reference tail probability must lie in (0, 1)")
    if not is_report.variance > 0.0:
        raise ValueError("degenerate estimate: sample variance is zero or undefined")
    return EfficiencyReport(xi=alpha_ref * (1.0 - alpha_ref) / is_report.variance)


def optimality_ratio(second_moment: float, alpha: float) -> float:
    """log E[T^2] / log alpha: 1 for naive MC, approaching 2 at the
    asymptotically optimal rate."""
    if not 0.0 < second_moment < 1.0:
        raise ValueError("second moment must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("tail probability must lie in (0, 1)")
    return math.log(second_moment) / math.log(alpha)
