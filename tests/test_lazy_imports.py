"""What `import renorm` and each light command load, and the namespace
that loading on first use must keep."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renorm

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ["renorm", "renorm.scaling", "renorm.solver"]

# every name `renorm` exported while it imported every stage module eagerly,
# with the module that defines it
EXPORTED = {
    "scaling": [
        "FeasibleDomain", "GapVector", "Period", "ScalingFactor", "feasibility",
        "feasible_domain", "gaps", "return_map", "scaling_closed_form_tripling",
        "scaling_from_critical",
    ],
    "solver": [
        "ContinuumTable", "FixedPointReport", "continuum_sweep", "solve_fixed_point",
        "solve_fixed_point_eps",
    ],
    "tower": [
        "LevelData", "ScalingSequence", "Tower", "build_tower", "cantor_dimension",
        "hor_bound", "ratio_report", "verify_proper",
    ],
    "pwa": [
        "PiecewiseAffineMap", "build_pwa", "fixed_residual", "renormalize",
        "shift_residual", "verify_combinatorics",
    ],
    "extension": [
        "SampledCurve", "extend", "lipschitz_profile", "max_slope_profile",
        "quadratic_tip", "unimodal_check",
    ],
    "horseshoe": [
        "BranchSystem", "Coding", "Word", "build_branch_system", "code_to_point",
        "coded_orbit", "cylinder_count", "cylinder_counts", "dense_orbit_word",
        "entropy_estimate", "symbol_scaling_sequence",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def loaded_modules(code: str) -> list:
    """The renorm modules a fresh interpreter holds after running code."""
    probe = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'renorm')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_renorm_loads_only_the_core():
    assert loaded_modules("import renorm") == CORE


@pytest.mark.parametrize(
    "argv", [["solve", "--period", "3"], ["feasible", "--period", "5"], ["plotdata", "cobweb", "--period", "5"]]
)
def test_light_commands_load_only_the_core_cli_and_report(argv):
    code = (
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert loaded_modules(code) == sorted(CORE + ["renorm.cli", "renorm.report"])


@pytest.mark.parametrize("module, name", NAMES)
def test_every_exported_name_is_its_submodule_attribute(module, name):
    assert getattr(renorm, name) is getattr(importlib.import_module(f"renorm.{module}"), name)
    assert name in dir(renorm)


def test_star_import_binds_every_exported_name_and_stage_module():
    ns = {}
    exec("from renorm import *", ns)
    for module, name in NAMES:
        assert ns[name] is getattr(importlib.import_module(f"renorm.{module}"), name)
    for module in EXPORTED:
        assert ns[module] is importlib.import_module(f"renorm.{module}")


def test_stage_modules_are_attributes_and_unknown_names_are_not():
    assert renorm.tower is importlib.import_module("renorm.tower")
    from renorm import horseshoe

    assert horseshoe is importlib.import_module("renorm.horseshoe")
    with pytest.raises(AttributeError):
        renorm.no_such_name
    assert not hasattr(renorm, "no_such_name")


def _main_exit(argv, code: int) -> str:
    """Probe code that runs main(argv) quietly and checks its exit code."""
    return (
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
    )


def test_usage_error_loads_no_further_module():
    # --step 1 is refused before any scan: exit 2 with the solve command's modules
    code = _main_exit(["solve", "--period", "3", "--step", "1"], 2)
    assert loaded_modules(code) == sorted(CORE + ["renorm.cli", "renorm.report"])


def test_numerical_failure_loads_no_further_module():
    # DepthUnderflow at depth 315: exit 3 with the tower command's modules
    code = _main_exit(["tower", "--period", "3", "--depth", "400"], 3)
    expected = CORE + ["renorm.cli", "renorm.report", "renorm.tower"]
    assert loaded_modules(code) == sorted(expected)
