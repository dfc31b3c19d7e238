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

from renorm import cli, scaling
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


# the commands that need no arrays (cli.PER_POINT), for both periods:
# 14 of the benchmark's cli-mix processes
NO_NUMPY = [[*name.split(), "--period", p] for p in ("3", "5") for name in sorted(cli.PER_POINT)]
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
    # the same bytes as main in-process, with numpy loaded, and as the
    # benchmark's recorded stdout of the array scans
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == in_process(argv)[1]
    recorded = json.loads(REFERENCE_OUTPUTS.read_text())[" ".join(argv)]
    assert hashlib.sha256(proc.stdout).hexdigest() == recorded["sha256"]


def test_main_restores_the_scan_path(monkeypatch):
    # main runs a light command's scans per point and verify's as arrays,
    # and leaves the switch as it found it, on success and on failure alike
    seen = []
    for name in ("solve", "verify"):
        real = cli.COMMANDS[name]
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda args, real=real: seen.append((args.command, scaling._per_point)) or real(args))
    for switch in (False, True):
        monkeypatch.setattr(scaling, "_per_point", switch)
        assert in_process(["solve", "--period", "3"])[0] == 0
        assert in_process(["solve", "--period", "3", "--step", "1"])[0] == 2
        assert in_process(["verify", "tower", "--period", "5"])[0] == 0
        assert scaling._per_point is switch
    assert seen == [("solve", True), ("solve", True), ("verify", False)] * 2
