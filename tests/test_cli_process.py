"""The process entry point: `python -m renorm.cli` and the `renorm` script
print and exit as `cli.main` does in-process, and only the process freezes
the collector's objects on its way out."""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from renorm import cli
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
