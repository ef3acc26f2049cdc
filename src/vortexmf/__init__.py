"""Numerical toolkit for mean field limits of point-vortex systems.

The model couples a scalar stream field on a flat torus to a probability
measure of circulation strengths on [-1, 1].  The package computes the
extremal coupling constant above which the free energy loses coercivity,
minimizes the free energy by spectral descent, and checks the quantitative
asymptotics of concentrating solutions (radial blowup slope, concentration
mass, Pohozaev balance, Newton potential growth) against independent
quadrature oracles.
"""

from vortexmf.measure import (
    CirculationMeasure,
    ExtremalResult,
    ThresholdSolution,
    alpha_min,
    discretize_density,
    lambda_bar,
    lambda_bar_residual_vanishing,
    load_measure,
    moment,
    new_atomic,
    parse_atoms_inline,
    save_measure,
    threshold_maximizer,
)
from vortexmf.torus import (
    Field,
    SpectralTorus,
    dirichlet_energy,
    integrate,
    laplacian,
    load_field,
    project_zero_mean,
    radial_average,
    save_field,
    solve_poisson_zero_mean,
)
from vortexmf.functional import (
    Problem,
    J,
    el_residual,
    log_partition,
    w_alpha,
)
from vortexmf.minimize import (
    DivergedError,
    MinimizeOptions,
    MinimizeResult,
    continuation_sweep,
    detect_concentration,
    minimize,
)
from vortexmf.blowup import (
    BlowupProfile,
    PohozaevReport,
    bubble_profile,
    consistency_report,
    fit_li_slope,
    liouville_bubble,
    mass_gamma,
    newton_potential,
    pohozaev_residual,
    rescale_profile,
)

__version__ = "0.1.0"
