"""Fractional Cahn-Hilliard solver and verification suite on an interval."""

from .config import RunConfig, parse_config
from .diagnostics import (
    LojFit,
    PoincareReport,
    fit_decay_series,
    poincare_report,
    smoothing_report,
)
from .energy import (
    EnergyContext,
    add_tridiagonal,
    energy,
    energy_gradient,
    load_vector,
    weighted_mass,
)
from .equilibrium import (
    EquilibriumReport,
    LsiProbeResult,
    complete_report,
    default_equilibrium_seed,
    isomorphism_check,
    linearize,
    lsi_probe,
    pencil_eigenvalues,
    solve_semilinear,
    solve_stationary,
)
from .errors import (
    AssemblyError,
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    MissingInputError,
    NewtonDivergenceError,
)
from .evolution import (
    StepCertificate,
    StepConfig,
    Trajectory,
    evolve,
    march,
    step,
)
from .mesh import FracMesh, interpolate, linf_norm, mass_matrix
from .operators import (
    FracExponents,
    OperatorSet,
    assemble_gagliardo,
    build_operator_set,
    load_stiffness,
    normalization_constant,
    save_stiffness,
    xnorm,
)
from .potentials import (
    Potential,
    custom_potential,
    double_well,
    yosida_apply,
)

__version__ = "0.1.0"
