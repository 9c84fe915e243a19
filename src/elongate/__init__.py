"""Convex energy minimization and convergence experiments on elongating
product domains."""

from .density import (
    EnergyDensity,
    HypothesisReport,
    PDirichletDensity,
    SeparablePowerDensity,
    audit_convexity_midpoint,
    audit_growth,
    audit_uniform_strict_convexity,
    make_density,
)
from .field import (
    Load,
    ScalarField,
    assemble_energy,
    assemble_energy_gradient,
    cell_gradients,
    cell_means,
    extend_vertical,
    lp_norm_p,
    poincare_ratio,
    save_field,
    sup_error,
)
from .geometry import (
    CrossSection,
    DomainSpec,
    Grid,
    NodeBudgetError,
    build_grid,
    build_vertical_grid,
    cutoff,
    gauge,
    region_cells,
)
from .solver import (
    MinimalityReport,
    SolveOptions,
    SolveReport,
    default_grad_tol,
    minimality_audit,
    minimize,
    oracle_1d,
    solve_limit,
)
from .study import (
    Profile,
    RateFit,
    SweepConfig,
    SweepRecord,
    SweepResult,
    Verdict,
    convergence_verdicts,
    decay_profile,
    fit_rate,
    power_rate_target,
    records_to_csv,
    run_sweep,
)

__version__ = "0.1.0"

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
