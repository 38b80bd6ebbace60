"""Radial finite-volume toolkit for critical aggregation-diffusion dynamics.

Porous-medium diffusion against Riesz-potential attraction at the
mass-critical exponent m = 2 - 2s/d: closed-form constants, kernel
quadrature, energy diagnostics, a conservative solver (explicit, or
implicit for long subcritical horizons), and
the extremal machinery that locates the critical mass.
"""

from .model import (
    DerivedConstants,
    ModelParams,
    critical_exponent,
    critical_mass,
    derived_constants,
    hls_sharp_constant,
    riesz_constant,
)
from .field import (
    DensityField,
    RadialGrid,
    barenblatt_profile,
    hls_extremizer_profile,
    lp_norm,
    mass,
    project_onto,
    read_field_csv,
    rearrange,
    scale,
    second_moment,
    write_field_csv,
)
from .riesz import (
    RieszKernel,
    angular_kernel,
    build_kernel,
    interaction_energy,
    potential,
)
from .energy import (
    EnergyReport,
    chemical_potential,
    dissipation,
    energy_report,
    free_energy,
    lr_lower_bound,
    vhls_ratio,
)
from .solver import (
    DiagnosticsRow,
    RunOutcome,
    SolverConfig,
    SolverState,
    dichotomy_run,
    diffusive_time,
    epsilon_convergence_study,
    run,
    step,
)
from .extremal import (
    ExtremalResult,
    blowup_initial_data,
    el_fixed_point,
    el_residual,
    find_critical_mass,
    maximize_vhls,
)
from .errors import ConvergenceError, GridMismatchError, ParameterDomainError

__version__ = "0.1.0"
