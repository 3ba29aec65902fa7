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
from dataclasses import dataclass, replace

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

    ``threshold_linear`` is the comparison value for the sum; when built
    from dB it equals 10**(threshold_db/10).
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

    @classmethod
    def from_db(
        cls, components, threshold_db: float
    ) -> "Scenario":
        return cls(
            components=tuple(components),
            threshold_linear=db_to_linear(threshold_db),
            threshold_db=float(threshold_db),
        )

    @classmethod
    def from_linear(cls, components, threshold_linear: float) -> "Scenario":
        return cls(components=tuple(components), threshold_linear=float(threshold_linear))

    def with_threshold_db(self, threshold_db: float) -> "Scenario":
        return replace(
            self,
            threshold_db=float(threshold_db),
            threshold_linear=db_to_linear(threshold_db),
        )

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def family(self) -> Family:
        return self.components[0].family


class ThetaSource(enum.Enum):
    MINMAX_IMPROVED = "minmax_improved"
    MINMAX_CONVENTIONAL = "minmax_conventional"
    MANUAL = "manual"


@dataclass(frozen=True)
class TwistPlan:
    """Which components to twist and by how much.

    ``theta`` is None until a twisting parameter has been chosen; use
    :meth:`with_theta` to attach one.
    """

    dominant_indices: tuple[int, ...]
    s: int
    theta: float | None = None
    theta_source: ThetaSource = ThetaSource.MANUAL

    def __post_init__(self):
        object.__setattr__(self, "dominant_indices", tuple(self.dominant_indices))
        if len(self.dominant_indices) == 0:
            raise ValueError("a twist plan needs at least one dominant component")
        if self.s != len(self.dominant_indices):
            raise ValueError("s must equal the number of dominant indices")
        if self.theta is not None and not 0.0 <= self.theta < 1.0:
            raise ValueError("twisting parameter must lie in [0, 1)")

    def with_theta(self, theta: float, source: ThetaSource) -> "TwistPlan":
        return replace(self, theta=float(theta), theta_source=source)


def select_dominant(scenario: Scenario) -> TwistPlan:
    """Indices of the heaviest-tailed i.i.d. sub-group of the scenario.

    Weibull: the components attaining the minimum shape, and among those
    the maximum scale.  Log-normal: the maximum sigma, then the maximum
    mu.  Parameter ties are grouped with relative tolerance 1e-12.
    Returns a plan with theta unset.
    """
    specs = scenario.components
    if scenario.family is Family.WEIBULL:
        primary = [sp.weibull_shape for sp in specs]
        secondary = [sp.weibull_scale for sp in specs]
        best_primary = min(primary)
        tied = [i for i, v in enumerate(primary) if _close(v, best_primary)]
    else:
        primary = [sp.lognormal_sigma_db for sp in specs]
        secondary = [sp.lognormal_mu_db for sp in specs]
        best_primary = max(primary)
        tied = [i for i, v in enumerate(primary) if _close(v, best_primary)]
    best_secondary = max(secondary[i] for i in tied)
    indices = tuple(i for i in tied if _close(secondary[i], best_secondary))
    return TwistPlan(dominant_indices=indices, s=len(indices))


class DominanceVerdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailDominanceReport:
    """Tail-dominance diagnostic for one non-dominant component.

    ``gap`` holds d(g) = 2*Lambda_1(g) - Lambda_i(g) on the probe grid;
    the estimator is provably efficient in the limit when d diverges to
    minus infinity (the component's tail is negligible against the
    squared dominant tail).
    """

    component: int
    gap: tuple[float, ...]
    verdict: DominanceVerdict


def check_tail_dominance(
    scenario: Scenario, plan: TwistPlan, gamma_grid
) -> tuple[TailDominanceReport, ...]:
    """Probe 2*Lambda_1 - Lambda_i on a threshold grid per light component.

    SATISFIED when the gap decreases across the grid and drops by more
    than 10 overall; VIOLATED when it increases throughout; otherwise
    INCONCLUSIVE.  Purely diagnostic: estimation is never blocked on the
    verdict.
    """
    grid = [float(g) for g in gamma_grid]
    if len(grid) == 0:
        raise ValueError("tail-dominance check needs a nonempty threshold grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    if any(g <= 0.0 for g in grid):
        raise ValueError("threshold grid values must be positive")

    dominant_spec = scenario.components[plan.dominant_indices[0]]
    dominant = set(plan.dominant_indices)
    reports = []
    for i, spec in enumerate(scenario.components):
        if i in dominant:
            continue
        gap = tuple(
            2.0 * dominant_spec.cumulative_hazard(g) - spec.cumulative_hazard(g)
            for g in grid
        )
        decreasing = all(b < a for a, b in zip(gap, gap[1:]))
        increasing = all(b > a for a, b in zip(gap, gap[1:]))
        if decreasing and gap[-1] < gap[0] - 10.0:
            verdict = DominanceVerdict.SATISFIED
        elif increasing and len(gap) > 1:
            verdict = DominanceVerdict.VIOLATED
        else:
            verdict = DominanceVerdict.INCONCLUSIVE
        reports.append(TailDominanceReport(component=i, gap=gap, verdict=verdict))
    return tuple(reports)
