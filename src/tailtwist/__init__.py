"""Right-tail probabilities of heavy-tailed sums via hazard-rate twisting.

Estimates alpha = P(X_1 + ... + X_N > threshold) for independent Weibull
or log-normal components, using importance sampling that hazard-twists
only the components dominating the right tail, with a minmax-optimal
twisting parameter.  Naive Monte Carlo and the all-components-twisted
estimator are included as baselines.
"""

from . import distributions, dominance, estimators, experiments, streams, twist_optimizer
from .distributions import *
from .dominance import *
from .estimators import *
from .experiments import *
from .streams import *
from .twist_optimizer import *

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *dominance.__all__,
    *estimators.__all__,
    *experiments.__all__,
    *streams.__all__,
    *twist_optimizer.__all__,
    "__version__",
]
