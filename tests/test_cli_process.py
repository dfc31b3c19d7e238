"""The process entry point: `python -m renorm.cli` and the `renorm` script
print and exit as `cli.main` does in-process, and only the process freezes
the collector's objects on its way out."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from renorm import cli, scaling, solver
from test_lazy_imports import SRC, probe

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# two successes, a usage error (a scan step above 1e-2) and a numerical
# failure (the tower slope underflows binary64 at depth 315)
CASES = [
    (["solve", "--period", "3"], 0),
    (["plotdata", "cobweb", "--period", "5"], 0),
    (["solve", "--period", "3", "--step", "1"], 2),
    (["tower", "--period", "3", "--depth", "400"], 3),
]


def collector_state():
    return gc.get_freeze_count(), gc.isenabled()


def in_process(argv):
    """(exit code, stdout bytes) of cli.main(argv), which must leave the
    collector as it found it."""
    before = collector_state()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert collector_state() == before
    return code, out.getvalue().encode()


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_a_module_process_prints_and_exits_as_main_does(argv, code, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "renorm.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == in_process(argv)
    assert proc.returncode == code


def test_the_console_script_runs_the_process_entry():
    assert re.search(r'^renorm = "renorm\.cli:run"$', PYPROJECT.read_text(), re.M)


# each entry runs in a fresh interpreter, whose collector has frozen
# nothing before it; the probe reads the entry's exit code, then the collector
ENTRIES = {
    "python -m renorm.cli": "import runpy; runpy.run_module('renorm.cli', run_name='__main__')",
    "renorm script": "from renorm.cli import run; run()",
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_a_process_entry_freezes_the_collectors_objects(entry):
    code = (
        "import gc\n"
        "sys.argv = ['renorm', 'solve', '--period', '3']\n"
        "assert gc.get_freeze_count() == 0\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        {entry}\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
    )
    assert probe(code, "[code, gc.get_freeze_count() > 0, gc.isenabled()]") == [0, True, True]


# the commands that need no arrays, whose scans fit scaling.SCAN_BUDGET, for
# both periods, horseshoe, which reads no period, at the default eps and at
# five letters, and verify, whose words are numpy's stream drawn without
# numpy, at both periods, at full depth on another seed, and its horseshoe
# suite: every command of the benchmark's cli-mix processes
NO_NUMPY = [[*name.split(), "--period", p] for p in ("3", "5") for name in (
    "extend", "feasible", "plotdata cobweb", "plotdata extension", "plotdata returnmap",
    "plotdata scaling", "plotdata tower", "solve", "tower", "verify all")]
NO_NUMPY += [["horseshoe"], ["horseshoe", "--eps", "1.02,1.01,1.0,0.99,0.98"],
             ["verify", "all", "--period", "3", "--full", "--seed", "7"], ["verify", "horseshoe"]]
REFERENCE_OUTPUTS = Path(__file__).resolve().parents[1] / "bench" / "reference_outputs.json"
# runs the module as `python -m renorm.cli` does, with every import of numpy refused
BLOCKED = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.argv = ['renorm', *sys.argv[1:]]\n"
    "runpy.run_module('renorm.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize("argv", NO_NUMPY, ids=[" ".join(argv) for argv in NO_NUMPY])
def test_a_command_without_arrays_runs_with_numpy_blocked(argv, tmp_path):
    # the same bytes as main in-process, with numpy loaded, and, where the
    # benchmark records the command, as its recorded stdout of the arrays
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == in_process(argv)[1]
    recorded = json.loads(REFERENCE_OUTPUTS.read_text()).get(" ".join(argv))
    if recorded is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == recorded["sha256"]


def test_every_recorded_command_runs_with_numpy_blocked():
    assert set(json.loads(REFERENCE_OUTPUTS.read_text())) <= {" ".join(argv) for argv in NO_NUMPY}


# 20 letters from 1.02 down to 0.98, and the sweep's three other eps: 23
# distinct solves, more work than scaling.SCAN_BUDGET, so the run
# scans arrays once the budget is spent
TWENTY = ",".join(repr(e) for e in scaling._linspace(1.02, 0.98, 20))
# runs the module as `python -m renorm.cli` does, then writes to stderr
# whether numpy was loaded
NUMPY_LOADED = (
    "import runpy, sys\n"
    "sys.argv = ['renorm', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('renorm.cli', run_name='__main__')\n"
    "finally:\n"
    "    print('numpy' in sys.modules, file=sys.stderr)\n"
)


def test_a_many_letter_horseshoe_scans_arrays_and_prints_the_per_point_bytes(monkeypatch, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_LOADED, "horseshoe", "--eps", TWENTY],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"True\n")
    # the same run with every scan per point: a domain and a root scan per solve
    seen = []
    monkeypatch.setattr(scaling, "_scan_per_point", lambda work: seen.append(work) or True)
    assert in_process(["horseshoe", "--eps", TWENTY]) == (0, proc.stdout)
    assert len(seen) == 2 * 23 and sum(seen) > scaling.SCAN_BUDGET


# each scan's decision in a fresh interpreter: the work it asks for, the
# work scanned per point before it, whether numpy was loaded and the path
SCANS = (
    "from renorm import scaling\n"
    "rule, scans = scaling._scan_per_point, []\n"
    "def logged(work):\n"
    "    scans.append([work, scaling._scanned, 'numpy' in sys.modules])\n"
    "    scans[-1].append(rule(work))\n"
    "    return scans[-1][-1]\n"
    "scaling._scan_per_point = logged\n"
)


@pytest.mark.parametrize("eps, solves", [
    (None, 5),
    ("1.02,1.01,1.0,0.99,0.98", 5),
    ("1.03,1.02,1.0,0.98,0.97", 7),
    ("1.04,1.03,1.02,1.01,0.99,0.98", 8),
    (TWENTY, 23),
])
def test_horseshoe_scans_per_point_up_to_the_solve_bound(eps, solves):
    # distinct solves: the eps list and the sweep's five from its least
    # to its greatest eps
    argv = ["horseshoe"] + ([] if eps is None else ["--eps", eps])
    args = cli._merge_config(cli.build_parser("horseshoe").parse_args(argv))
    e = cli._epsilons(args)
    assert len({*e, *scaling._linspace(min(e), max(e), solver.SWEEP_STEPS)}) == solves
    # a domain and a root scan per solve; per point while the solves' work
    # fits scaling.SCAN_BUDGET, never past it, and arrays once one does not
    code = SCANS + (
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    scans = probe(code, "scans")
    assert len(scans) == 2 * solves
    per_point = [work for work, _, _, path in scans if path]
    assert sum(per_point) <= scaling.SCAN_BUDGET
    assert [path for *_, path in scans] == [True] * len(per_point) + [False] * (len(scans) - len(per_point))
    # up to 9 solves fit, 23 do not
    if solves < 23:
        assert len(per_point) == len(scans)
    else:
        first = scans[len(per_point)]
        assert first[0] + first[1] > scaling.SCAN_BUDGET and not first[2]
        assert all(loaded for _, _, loaded, _ in scans[len(per_point) + 1:])


def test_verify_all_scans_per_point_and_never_loads_numpy():
    # its 5 distinct solves (the fixed point is the sweep's eps 1) scan
    # 54,148 grid points, 162,444 units of work at period three, within
    # scaling.SCAN_BUDGET
    code = (
        "from renorm import scaling\n"
        "from renorm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', 'all', '--period', '3']) == 0\n"
    )
    assert probe(code, "[scaling._scanned, 'numpy' in sys.modules]") == [3 * 54148, False]


def test_main_solves_each_eps_once_and_keeps_no_solve_after_it(monkeypatch):
    # horseshoe asks for 8 solves of 5 distinct eps, `verify all --period
    # 3` for 14; main memoizes them and restores the memo it found
    solves = []
    real = solver._solve_once
    monkeypatch.setattr(solver, "_solve_once", lambda *a: solves.append(a[1]) or real(*a))
    assert in_process(["horseshoe"])[0] == 0
    assert sorted(solves) == [0.98, 0.99, 1.0, 1.01, 1.02]
    solves.clear()
    assert in_process(["verify", "all", "--period", "3"])[0] == 0
    assert sorted(solves) == [0.98, 0.99, 1.0, 1.01, 1.02]
    assert solver._memo is None
    # a library solve after main runs the kernels again
    calls = []
    kernel = scaling.Period.THREE.r_kernel
    monkeypatch.setattr(scaling.Period.THREE, "r_kernel", lambda c, eps: calls.append(c) or kernel(c, eps))
    rep = solver.solve_fixed_point_eps(1.02)
    assert calls and rep.eps == 1.02


def test_a_solve_that_raises_is_not_memoized(monkeypatch):
    monkeypatch.setattr(solver, "_memo", {})
    scans = []
    real = solver.feasible_domain
    monkeypatch.setattr(solver, "feasible_domain", lambda *a, **k: scans.append(k) or real(*a, **k))
    for _ in range(2):
        with pytest.raises(solver.NoRoot, match="no sign change"):
            solver.solve_fixed_point_eps(0.25)
    assert len(scans) == 2 and solver._memo == {}
    solver.solve_fixed_point_eps(1.01)
    solver.solve_fixed_point_eps(1.01)
    assert len(scans) == 3 and list(solver._memo) == [(scaling.Period.THREE, 1.01, solver.POLISH_TOL)]
