"""Positive radial standing waves of the NLS on the unit ball.

Computes the normalized-solution curves (focusing S+ and defocusing S-),
the whole-space ground state, small- and large-alpha asymptotic laws,
Gagliardo-Nirenberg constants, identity/spectral verification along the
curves, and an empirical time-evolution stability probe.
"""

from types import ModuleType as _ModuleType

from .core import (
    EigenPair,
    ProblemParams,
    RadialGrid,
    RadialProfile,
    Regime,
    ball_volume,
    dirichlet_lambda1_exact,
    grad_norm_sq,
    make_grid,
    principal_eigenpair,
    surface_measure,
)
from .shoot import (
    ShootConfig,
    WholeSpaceGroundState,
    discrete_residual,
    rescaled_profile,
    solve_ball_profile,
    solve_whole_space,
)
from .branch import (
    Branch,
    BranchDerivative,
    BranchPoint,
    StabilityTag,
    classify_stability,
    find_mu_star,
    geometric_lambda_grid,
    least_energy_at_mass,
    normalize,
    point_at_alpha,
    solutions_at_mass,
    trace,
)
from .asymptotics import (
    APExpansion,
    GNResult,
    ap_predict,
    defocusing_diagnostics,
    gn_constant,
    large_alpha_diagnostics,
    solve_psi,
)
from .verify import (
    IdentityReport,
    SpectrumReport,
    derivative_identities,
    linearized_spectrum,
    pohozaev_residual,
)
from .evolve import (
    ComplexField,
    EvolutionRecord,
    orbit_distance,
    stability_probe,
)
# the names imported above, without the submodules those imports bind
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
