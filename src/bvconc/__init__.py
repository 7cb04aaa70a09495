"""Distribution-free, non-asymptotic concentration bounds and KS-like tests
for randomized functions of uniformly bounded variation.

The public API re-exports the library surface of each submodule:

* :mod:`bvconc.bounds` — residual/denominator/shift closed forms, one- and
  two-sample tail bounds and critical values, exponential-family entropy
  minimization;
* :mod:`bvconc.coefficients` — McDiarmid and downward-variation coefficients,
  cluster effective sample sizes;
* :mod:`bvconc.empirical` — step CDFs, exact sup distances, Lipschitz panels;
* :mod:`bvconc.kstests` — hypothesis-test wrappers with p-value upper bounds;
* :mod:`bvconc.montecarlo` — enumeration and Monte Carlo validation;
* :mod:`bvconc.cli` — command-line front end (``python -m bvconc``).
"""

from .bounds import (
    BoundParams,
    EntropyEval,
    TailSide,
    critical_statistic,
    denominator,
    entropy_exact_expfamily,
    one_sided_shift,
    residual,
    residual_star,
    tail_bound,
    tail_bound_raw,
    threshold,
    two_sample_critical,
    two_sample_tail_bound,
)
from .coefficients import (
    ClusterSpec,
    DownwardVariationCase,
    FiniteTheta,
    LipschitzDifferentiable,
    LipschitzOneSided,
    MonotoneReal,
    RangeSpec,
    downward_variation,
    lipschitz_difference_params,
    mcdiarmid_from_clusters,
    mcdiarmid_from_ranges,
)
from .empirical import (
    ClusteredSample,
    StepCdf,
    TrajectoryPanel,
    ecdf,
    lipschitz_sup_interval,
    sup_distance_reference,
    sup_distance_two_sample,
)
from .errors import (
    BvconcError,
    ConvergenceError,
    DataFormatError,
    DomainError,
    LipschitzConsistencyError,
    VacuousBoundError,
)
from .kstests import (
    DEFAULT_ALPHAS,
    KsOutcome,
    finite_theta_test,
    lipschitz_two_sample,
    one_sample_clustered,
    two_sample_clustered,
)
from .montecarlo import (
    SimConfig,
    SimReport,
    SimRow,
    binomial_grid_sup,
    conjecture_refutation_experiment,
    iid_coverage,
    sharpness_experiment,
)

__version__ = "0.1.0"
