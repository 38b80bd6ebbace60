"""Radial finite-volume toolkit for critical aggregation-diffusion dynamics.

Porous-medium diffusion against Riesz-potential attraction at the
mass-critical exponent m = 2 - 2s/d: closed-form constants, kernel
quadrature, energy diagnostics, an explicit conservative solver, and
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
    vhls_constant_upper,
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
    load_kernel,
    potential,
    potential_gradient,
    save_kernel,
)
from .energy import (
    EnergyReport,
    chemical_potential,
    dissipation,
    energy_report,
    free_energy,
    lr_lower_bound,
    vhls_ratio,
    virial_rhs,
)
from .solver import (
    DiagnosticsRow,
    RunOutcome,
    SolverConfig,
    SolverState,
    blowup_time_upper_bound,
    diffusive_time,
    epsilon_convergence_study,
    plateau_test_function,
    quadratic_test_function,
    run,
    step,
    weak_form_residual,
)
from .extremal import (
    ExtremalResult,
    blowup_initial_data,
    el_fixed_point,
    el_residual,
    find_critical_mass,
    maximize_vhls,
    multiplier_defect,
)
from .errors import ConvergenceError, GridMismatchError, ParameterDomainError

__version__ = "0.1.0"
