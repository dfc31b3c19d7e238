"""What `import renorm` and each light command load, and the namespace
that loading on first use must keep."""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import renorm
from renorm import scaling

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ["renorm", "renorm.scaling", "renorm.solver", "renorm.value"]

# every name `renorm` exports (those it exported while it imported every
# stage module eagerly, less the deleted value classes GapVector and
# ContinuumTable), with the module that defines it
EXPORTED = {
    "scaling": [
        "FeasibleDomain", "Period", "ScalingFactor", "feasibility",
        "feasible_domain", "gaps", "return_map", "scaling_closed_form_tripling",
        "scaling_from_critical",
    ],
    "solver": [
        "FixedPointReport", "continuum_sweep", "solve_fixed_point",
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


def _names_numpy(node) -> bool:
    """Whether node imports numpy or spells its module name, as a lookup in
    sys.modules or an import by name must."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.split(".")[0] == "numpy"


def test_numpy_is_named_by_scaling_alone():
    # scaling imports numpy on an array call and asks whether it is loaded;
    # every other module reaches arrays through scaling, so one module
    # decides when a process pays numpy's import
    named = sorted(path.name for path in (SRC / "renorm").glob("*.py")
                   if any(map(_names_numpy, ast.walk(ast.parse(path.read_text())))))
    assert named == ["scaling.py"]


def probe(code: str, result: str):
    """The JSON value of the expression result in a fresh interpreter, after
    running code."""
    src = f"import contextlib, io, json, sys\n{code}\nprint(json.dumps({result}))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", src], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(code: str) -> list:
    """The renorm modules a fresh interpreter holds after running code."""
    return probe(code, "sorted(m for m in sys.modules if m.split('.')[0] == 'renorm')")


# the generated names each period holds in its __dict__, after the probe's code
COMPILED = "{p.name: sorted(set(vars(p)) & set(scaling._GENERATED)) for p in scaling.Period}"


def test_import_renorm_loads_only_the_core():
    assert loaded_modules("import renorm") == CORE


def test_import_verify_leaves_numpy_unloaded():
    assert probe("import renorm.verify", "'numpy' in sys.modules") is False


@pytest.mark.parametrize("argv", [
    ["solve", "--period", "3"],
    ["feasible", "--period", "5"],
    ["plotdata", "cobweb", "--period", "5"],
    ["plotdata", "scaling", "--period", "3"],
    ["plotdata", "returnmap", "--period", "5"],
    ["tower", "--period", "5"],
    ["plotdata", "tower", "--period", "3"],
    ["extend", "--period", "3"],
    ["plotdata", "extension", "--period", "5"],
    ["horseshoe"],
])
def test_light_commands_load_only_the_core_cli_and_report(argv):
    # and the stage modules each command runs, and none of them numpy
    stage = {
        "tower": ["renorm.tower"],
        "extend": ["renorm.extension", "renorm.pwa", "renorm.tower"],
        "extension": ["renorm.extension", "renorm.pwa", "renorm.tower"],
        "horseshoe": ["renorm.horseshoe", "renorm.interval", "renorm.tower"],
    }.get(argv[1] if argv[0] == "plotdata" else argv[0], [])
    code = (
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    result = "[sorted(m for m in sys.modules if m.split('.')[0] == 'renorm'), 'numpy' in sys.modules]"
    assert probe(code, result) == [sorted(CORE + ["renorm.cli", "renorm.report"] + stage), False]


@pytest.mark.parametrize("argv", [["solve", "--period", "3"], ["horseshoe"], ["verify", "all", "--period", "5"]])
def test_a_command_without_config_holds_no_json(argv):
    # report._fmt writes every report; json is imported only to read a
    # --config file.  The probe itself imports json, so this process runs
    # without it
    code = (
        "import contextlib, io, sys\n"
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('json' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False"]


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
    # and nothing else but the interval module and the core's value module
    assert set(renorm.__all__) == {name for _, name in NAMES} | set(EXPORTED) | {"interval", "value"}


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


def test_import_renorm_compiles_no_generated_code():
    code = "import renorm\nfrom renorm import scaling"
    assert probe(code, COMPILED) == {"THREE": [], "FIVE": []}


def test_importing_every_module_compiles_no_code_from_a_string():
    # a method generated at class creation, as dataclasses makes each of
    # its own, is compiled from a string: the compile audit event names
    # the file "<string>"; renorm's own modules compile under their paths
    modules = ["renorm.cli", "renorm.verify", "renorm.interval"] + [f"renorm.{m}" for m in EXPORTED]
    code = (
        "import importlib\n"
        "import numpy\n"
        "files = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and files.append(args[1]))\n"
        f"for module in {modules!r}:\n"
        "    importlib.import_module(module)\n"
    )
    result = "[files.count('<string>'), 'dataclasses' in sys.modules, len(files) > 0]"
    assert probe(code, result) == [0, False, True]


def test_a_period_three_command_compiles_period_three_only():
    code = (
        "from renorm import scaling\n"
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['solve', '--period', '3']) == 0\n"
    )
    assert probe(code, COMPILED) == {"THREE": sorted(scaling._GENERATED), "FIVE": []}


def test_a_period_is_compiled_once_and_keeps_its_functions():
    # every compile() scaling runs is counted; a name deleted from the
    # member, as mock.patch.object does on exit, comes back as the same
    # function, without a second compile
    code = (
        "from renorm import scaling\n"
        "sources = []\n"
        "scaling.compile = lambda src, *args: sources.append(src) or compile(src, *args)\n"
        "five = scaling.Period.FIVE\n"
        "first = [getattr(five, name) for name in reversed(scaling._GENERATED)]\n"
        "del five.r_kernel\n"
        "same = [getattr(five, name) is fn for name, fn in zip(reversed(scaling._GENERATED), first)]\n"
        "assert five.orbit(0.41)[-1] == 1.0\n"
    )
    assert probe(code, f"[len(sources), same, {COMPILED}]") == [
        1, [True] * len(scaling._GENERATED), {"THREE": [], "FIVE": sorted(scaling._GENERATED)}]


def test_a_period_reads_only_its_generated_names():
    with pytest.raises(AttributeError, match="^'Period' object has no attribute 'nope'$"):
        scaling.Period.THREE.nope
    assert not hasattr(scaling.Period.THREE, "nope")
    for period in scaling.Period:
        assert copy.copy(period) is period
        assert copy.deepcopy(period) is period
        assert pickle.loads(pickle.dumps(period)) is period


def test_patching_a_period_not_yet_compiled_restores_its_kernels():
    code = (
        "import pytest\n"
        "from unittest import mock\n"
        "from renorm import scaling\n"
        "three, five = scaling.Period\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    mp.setattr(three, 'r_kernel', None)\n"
        "    assert three.r_kernel is None\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    with mock.patch.object(five, 'feasible_kernel', None):\n"
        "        assert five.feasible_kernel is None\n"
        "        mp.setattr(five, 'orbit', None)\n"
        "    assert five.orbit is None\n"  # restoring one name leaves another's patch in force
    )
    result = (f"[three.r_kernel(0.44, 1.01), five.feasible_kernel(0.44, 1.0), {COMPILED}, "
              "three.r_kernel.__code__.co_filename == five.feasible_kernel.__code__.co_filename"
              " == scaling.__file__]")
    want = [scaling.Period.THREE.r_kernel(0.44, 1.01), scaling.Period.FIVE.feasible_kernel(0.44, 1.0),
            {"THREE": sorted(scaling._GENERATED), "FIVE": sorted(scaling._GENERATED)}, True]
    assert probe(code, result) == want
