"""Scenario description and selection of the dominant components.

Among independent same-family components, the sub-group with the
heaviest right tail drives P(sum > threshold) for large thresholds.
For Weibull that group has the smallest shape (ties broken by largest
scale); for log-normal the largest sigma (ties broken by largest mu).
Only this group is twisted by the improved estimator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .distributions import DistributionSpec, Family, db_to_linear

__all__ = [
    "Scenario",
    "ThetaSource",
    "TwistPlan",
    "DominanceVerdict",
    "TailDominanceReport",
    "select_dominant",
    "check_tail_dominance",
]

# parameters written as human decimals; group them up to fp round-off
_REL_TOL = 1e-12
_ABS_TOL = 1e-15


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


@dataclass(frozen=True)
class Scenario:
    """An ordered list of same-family components plus a threshold.

    Checked at construction: at least one component, all of one family;
    ``threshold_linear``, the sum's comparison value, finite and >= 0;
    ``threshold_db``, when given, finite and its 10**(dB/10) exactly
    ``threshold_linear``.
    """

    components: tuple[DistributionSpec, ...]
    threshold_linear: float
    threshold_db: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("a scenario needs at least one component")
        families = {spec.family for spec in self.components}
        if len(families) > 1:
            raise ValueError(
                "mixed families in one scenario are not supported; all "
                "components must be Weibull or all log-normal"
            )
        if not (0.0 <= self.threshold_linear < math.inf and math.isfinite(self.threshold_db or 0.0)):
            raise ValueError("threshold must be finite, and >= 0 in linear units")
        if self.threshold_db is not None and db_to_linear(self.threshold_db) != self.threshold_linear:
            raise ValueError(f"threshold_linear is not {self.threshold_db!r} dB in linear units")

    @classmethod
    def from_db(cls, components, threshold_db: float) -> "Scenario":
        threshold_db = float(threshold_db)
        return cls(tuple(components), db_to_linear(threshold_db), threshold_db)

    def with_threshold_db(self, threshold_db: float) -> "Scenario":
        return Scenario.from_db(self.components, threshold_db)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def family(self) -> Family:
        return self.components[0].family


class ThetaSource(enum.Enum):
    MINMAX_IMPROVED = "minmax_improved"
    MANUAL = "manual"


@dataclass(frozen=True)
class TwistPlan:
    """Which components to twist and by how much.

    Checked at construction: ``dominant_indices`` names at least one
    component and none twice; ``theta`` is None until :meth:`with_theta`
    attaches one, and then lies in [0, 1).
    """

    dominant_indices: tuple[int, ...]
    theta: float | None = None
    theta_source: ThetaSource = ThetaSource.MANUAL

    def __post_init__(self):
        object.__setattr__(self, "dominant_indices", tuple(self.dominant_indices))
        if len(self.dominant_indices) == 0:
            raise ValueError("a twist plan needs at least one dominant component")
        if len(set(self.dominant_indices)) != self.s:
            raise ValueError("a twist plan names each dominant component once")
        if self.theta is not None and not 0.0 <= self.theta < 1.0:
            raise ValueError("twisting parameter must lie in [0, 1)")

    @property
    def s(self) -> int:
        """The number of twisted components, s in theta* = 1 - s/A."""
        return len(self.dominant_indices)

    def with_theta(self, theta: float, source: ThetaSource) -> "TwistPlan":
        return replace(self, theta=float(theta), theta_source=source)

    def check_fits(self, scenario: Scenario) -> None:
        """Raise ValueError unless every dominant index names a component
        and the dominant components are identically distributed (up to the
        tolerance that groups them)."""
        if any(i < 0 or i >= scenario.n for i in self.dominant_indices):
            raise ValueError("twist plan indexes components outside the scenario")
        lead = astuple(scenario.components[self.dominant_indices[0]])
        for i in self.dominant_indices[1:]:
            # one family per scenario: a field is None in both specs or in neither
            pairs = zip(lead[1:], astuple(scenario.components[i])[1:])
            if not all(a is None or _close(a, b) for a, b in pairs):
                raise ValueError("dominant components must be identically distributed")


def select_dominant(scenario: Scenario) -> TwistPlan:
    """The heaviest-tailed i.i.d. sub-group, as a plan with theta unset:
    the components attaining the largest first key, then the largest
    second key, of (-shape, scale) for Weibull and (sigma, mu) for
    log-normal; ties are grouped with relative tolerance 1e-12."""
    if scenario.family is Family.WEIBULL:
        keys = [(-sp.weibull_shape, sp.weibull_scale) for sp in scenario.components]
    else:
        keys = [(sp.lognormal_sigma_db, sp.lognormal_mu_db) for sp in scenario.components]
    indices = range(len(keys))
    for rank in range(2):
        best = max(keys[i][rank] for i in indices)
        indices = [i for i in indices if _close(keys[i][rank], best)]
    return TwistPlan(dominant_indices=tuple(indices))


class DominanceVerdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"


@dataclass(frozen=True)
class TailDominanceReport:
    """Tail-dominance diagnostic for one non-dominant component.

    ``gap`` holds d(g) = 2*Lambda_1(g) - Lambda_i(g) on the given threshold
    grid.  ``verdict`` says whether d tends to minus infinity, the condition
    under which the estimator is provably efficient in the limit (the
    component's tail is negligible against the squared dominant tail).  The
    verdict concerns gamma -> infinity, not any finite threshold: Weibull
    shapes 0.4, 0.45, 0.8 and 0.8 at 26 dB read "satisfied" for component 1
    with a gap of +7.14 there, while the untwisted components hold 2.1% of
    the sum of the survival functions at gamma.
    """

    component: int
    gap: tuple[float, ...]
    verdict: DominanceVerdict


def _gap_falls(dominant: DistributionSpec, spec: DistributionSpec) -> bool:
    """Whether 2*Lambda_dominant(g) - Lambda_spec(g) tends to minus infinity.

    Weibull: the gap is 2*(g/b_d)^k_d - (g/b_i)^k_i, so the larger shape
    wins; with equal shapes k it is g^k * (2*b_d^-k - b_i^-k), which falls
    iff (b_d/b_i)^k > 2 and is 0 at 2.  Log-normal: -log Q(z) = z^2/2 +
    log z + O(1), so in t = ln g the gap's t^2 coefficient is
    1/s_d^2 - 1/(2*s_i^2), negative iff 2*s_i^2 < s_d^2.  When it vanishes
    the linear term 2*(m_i - m_d)*t/s_d^2 carries the sign, and with equal
    mu the rest, log(z_d^2/z_i) + O(1), rises to plus infinity.
    """
    if dominant.family is Family.WEIBULL:
        k = dominant.weibull_shape
        if not _close(spec.weibull_shape, k):
            return spec.weibull_shape > k
        ratio = (dominant.weibull_scale / spec.weibull_scale) ** k
        return ratio > 2.0 and not _close(ratio, 2.0)
    # the dB parameters are the log-space ones times ln(10)/10: same signs
    var_d, twice_var_i = dominant.lognormal_sigma_db**2, 2.0 * spec.lognormal_sigma_db**2
    if not _close(twice_var_i, var_d):
        return twice_var_i < var_d
    mu_d, mu_i = dominant.lognormal_mu_db, spec.lognormal_mu_db
    return mu_i < mu_d and not _close(mu_i, mu_d)


def check_tail_dominance(
    scenario: Scenario, plan: TwistPlan, gamma_grid
) -> tuple[TailDominanceReport, ...]:
    """Classify the limit of 2*Lambda_1 - Lambda_i per light component.

    The verdict follows exactly from the parameters (see ``_gap_falls``)
    and concerns gamma -> infinity only; the threshold grid only says where
    the reported gap is evaluated, and a component whose gap is still
    positive at a threshold is not negligible there (``TailDominanceReport``).
    Purely diagnostic: estimation is never blocked on the verdict.
    """
    grid = np.array([float(g) for g in gamma_grid])
    if grid.size == 0:
        raise ValueError("tail-dominance check needs a nonempty threshold grid")
    if not np.all((grid > 0.0) & (grid < math.inf)):
        raise ValueError("threshold grid values must be positive and finite")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("threshold grid must be strictly increasing")
    plan.check_fits(scenario)

    dominant_spec = scenario.components[plan.dominant_indices[0]]
    reports = []
    for i, spec in enumerate(scenario.components):
        if i in plan.dominant_indices:
            continue
        gap = 2.0 * dominant_spec.cumulative_hazard(grid) - spec.cumulative_hazard(grid)
        falls = _gap_falls(dominant_spec, spec)
        verdict = DominanceVerdict.SATISFIED if falls else DominanceVerdict.VIOLATED
        reports.append(TailDominanceReport(component=i, gap=tuple(gap.tolist()), verdict=verdict))
    return tuple(reports)
