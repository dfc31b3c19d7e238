"""Period-tripling and period-quintupling renormalization numerics.

Construction and verification of the renormalization fixed points of
unimodal maps below C^2 smoothness: scaling factors and feasible domains,
return-map fixed points, nested interval towers, piecewise-affine
infinitely renormalizable maps, their sampled C^{1+Lip} graph-transform
extensions, the eps-continuum of fixed points, and the three-branch
renormalization horseshoe with entropy ln 3.

`import renorm` loads the core, `scaling` and `solver`, because every
command and every caller runs them.  Every other stage module is loaded
on first use: reading one of its names here (`renorm.build_tower`), or
the module itself (`renorm.tower`), imports it then.  A process pays the
compile and run time only of the stages it calls.
"""

__version__ = "0.1.0"  # the one version string; reports embed it

from importlib import import_module as _import_module

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

# the stage modules loaded on first use, with the names each exports here
_LAZY = {
    "tower": (
        "LevelData",
        "ScalingSequence",
        "Tower",
        "build_tower",
        "cantor_dimension",
        "hor_bound",
        "ratio_report",
        "verify_proper",
    ),
    "pwa": (
        "PiecewiseAffineMap",
        "build_pwa",
        "fixed_residual",
        "renormalize",
        "shift_residual",
        "verify_combinatorics",
    ),
    "extension": (
        "SampledCurve",
        "extend",
        "lipschitz_profile",
        "max_slope_profile",
        "quadratic_tip",
        "unimodal_check",
    ),
    "horseshoe": (
        "BranchSystem",
        "Coding",
        "Word",
        "build_branch_system",
        "code_to_point",
        "coded_orbit",
        "cylinder_count",
        "cylinder_counts",
        "dense_orbit_word",
        "entropy_estimate",
        "symbol_scaling_sequence",
    ),
    "interval": (),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | set(_LAZY)
    | set(_HOME)
)


def __getattr__(name):
    if name in _LAZY:  # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
