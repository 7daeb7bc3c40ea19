"""freqlab: numerical laboratory for sublinear elliptic frequency analysis.

The package builds radial and 2-D solutions of -div(A grad u) = V u + f(x,u)
with sublinear f, computes the associated frequency quantities (sphere mass H,
energies D1/D, nonlinearity mass d, frequency N), verifies the exact
integration-by-parts identities these quantities satisfy, and replays the
quantitative vanishing-contradiction argument on candidate fields.
"""

__version__ = "0.1.0"

from .model import (
    CoefficientField,
    NonlinearitySpec,
    ProblemSpec,
    AssumptionReport,
    c_constant,
    check_A1,
    check_A2,
    check_A3,
    eval_F,
    normalize_coordinates,
)
from .odes import (
    OdeTrajectory,
    PmeField,
    conserved_energy,
    counterexample_profile,
    integrate_plane,
    integrate_radial,
    pme_residual_grid,
    zero_audit,
)
from .fields import (
    ManufacturedProblem,
    SolutionField,
    glued_field,
    load_field,
    manufactured_bowl,
    residual_field,
    save_field,
    solve_grid_2d,
    solve_radial,
)
from .frequency import (
    FrequencyProfile,
    IdentityReport,
    ProfileControls,
    frequency_profile,
    run_all_identity_checks,
    verify_H_prime,
    verify_N_prime_bound,
    verify_f_transport,
    verify_pohozaev_model,
    verify_rellich_general,
    verify_surface_volume_D,
    verify_u2_bounds,
)
from .audit import (
    AuditControls,
    CertificateChain,
    audit,
    frequency_bound_certificate,
    logH_contradiction,
    lower_bound_certificate,
    vanishing_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
