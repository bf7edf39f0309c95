"""Information measures on finite weighted measure spaces.

Shannon, Renyi, and Tsallis entropies and relative entropies against an
explicit reference measure; dyadic mean-value approximation of densities with
a convergence harness for the generalized divergences; classical and
escort-constrained Tsallis maximum-entropy solvers with identity checks.
"""

from types import ModuleType as _ModuleType

from .qcalc import check_index, is_classical, q_exp, q_log
from .measure import (
    AbsoluteContinuityError,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    induced_pmf,
    radon_nikodym,
    uniform_partition,
)
from .entropy import (
    kl_divergence,
    measure_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    tsallis_divergence,
    tsallis_entropy,
)
from .dyadic import (
    BaseGridDensity,
    CommonRefinement,
    ConvergenceRow,
    DemoReport,
    DemoRow,
    DyadicApproximation,
    ResolutionError,
    common_refinement,
    convergence_table,
    demo_to_csv,
    dyadic_approximation,
    entropy_nonextension_demo,
    reference_divergence,
    table_to_csv,
)
from .maxent import (
    ConstraintSet,
    ConvergenceError,
    GibbsSolution,
    InfeasibleError,
    partition_function,
    solve_maxent,
    thermo_residuals,
)
from .tsallis import (
    ConsistencyReport,
    EmptySupportError,
    TsallisSolution,
    discrete_consistency_report,
    identity_residuals,
    solve_tsallis_maxent,
    tsallis_thermo,
)
from .verify import run_suite, run_suites

__version__ = "0.1.0"

# every public name imported above
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
