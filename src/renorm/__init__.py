"""Period-tripling and period-quintupling renormalization numerics.

Construction and verification of the renormalization fixed points of
unimodal maps below C^2 smoothness: scaling factors and feasible domains,
return-map fixed points, nested interval towers, piecewise-affine
infinitely renormalizable maps, their sampled C^{1+Lip} graph-transform
extensions, the eps-continuum of fixed points, and the three-branch
renormalization horseshoe with entropy ln 3.
"""

__version__ = "0.1.0"  # the one version string; reports embed it

from .quadratic import QuadraticUnimodal, eval_map, orbit
from .scaling import (
    FeasibleDomain,
    GapVector,
    Period,
    ScalingFactor,
    feasibility,
    feasible_domain,
    gaps,
    return_map,
    scaling_closed_form_tripling,
    scaling_from_critical,
)
from .solver import (
    ContinuumTable,
    FixedPointReport,
    continuum_sweep,
    solve_fixed_point,
    solve_fixed_point_eps,
)
from .tower import (
    LevelData,
    ScalingSequence,
    Tower,
    build_tower,
    cantor_dimension,
    hor_bound,
    ratio_report,
    verify_proper,
)
from .pwa import (
    PiecewiseAffineMap,
    build_pwa,
    fixed_residual,
    renormalize,
    shift_residual,
    verify_combinatorics,
)
from .extension import (
    SampledCurve,
    extend,
    lipschitz_profile,
    max_slope_profile,
    quadratic_tip,
    unimodal_check,
)
from .horseshoe import (
    BranchSystem,
    Coding,
    Word,
    build_branch_system,
    code_to_point,
    coded_orbit,
    cylinder_count,
    cylinder_counts,
    dense_orbit_word,
    entropy_estimate,
    symbol_scaling_sequence,
)
