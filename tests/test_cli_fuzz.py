"""Fuzzed flags and config files: every draw ends in a documented exit code.

A command, a subset of the flags and config keys it reads (for plotdata,
the ones its drawn kind reads; sometimes a key it does not read too),
and values for them: malformed strings, negatives, zero, nan, inf and
in-range values.  `main()` must return 0, 1, 2 or 3,
or argparse must exit 2; no other exception may escape.  Every drawn
value is cheap to run even if its guard were missing (resolution at most
4096, grid at most 2000, depth at most 50, at most 5 eps values); the
values past each ceiling have their own tests.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from renorm.cli import COMMAND_FLAGS, PLOTDATA_FLAGS, main

BAD = ["x", "", "-1", "0", "nan", "inf", "-inf"]
FLAG_VALUES = {
    "period": ["3", "5", "4", "2.5"],
    "tol": ["1e-13", "1e-6", "1e-20", "1e300"],
    "depth": ["1", "2", "5", "50", "2.5"],
    "grid": ["2", "40", "2000"],
    "step": ["1e-4", "2e-3", "9e-7", "0.2"],
    "resolution": ["64", "100", "63", "4096"],
    "eps": ["1.02,1.0,0.98", "1.01,1.0", "1.0,1.0", "1.02,nan", "0.5,1,1.5,2,2.5", "1.02,,0.98"],
    "seed": ["0", "7", "1e3"],
    "format": ["json", "csv", "xml"],
}
CONFIG_VALUES = [3, 5, 4, "3", 1e-13, "1e-10", 2.5, 0, -1, 1e300, True, None, [1], {"a": 1}, "csv"]
SUBCOMMAND = {
    "plotdata": ["scaling", "returnmap", "cobweb", "tower", "extension", "bogus"],
    "verify": ["tower", "pwa", "extension", "all", "horseshoe", "bogus"],
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted([*COMMAND_FLAGS, "plotdata"])))
    argv = [command]
    if command in SUBCOMMAND:
        argv.append(draw(st.sampled_from(SUBCOMMAND[command])))
    if command == "plotdata":
        readers = PLOTDATA_FLAGS.get(argv[1], ("period",))  # argparse refuses "bogus"
    else:
        readers = COMMAND_FLAGS[command]
    flags = [k for k in readers if k != "out"]
    extra = draw(st.sampled_from(["none", "grid", "eps", "period"]))  # maybe not a flag of command
    for key in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
        argv += [f"--{key}", draw(st.sampled_from(FLAG_VALUES[key] + BAD))]
    if command == "verify" and draw(st.booleans()):
        argv.append("--full")
    config = {}
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(flags), unique=True, max_size=3))
        if extra != "none":
            keys.append(extra)
        for key in keys:
            config[key] = draw(
                st.sampled_from(CONFIG_VALUES + [v for v in FLAG_VALUES.get(key, []) if "," in v])
            )
    return argv, config


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(invocations())
def test_fuzzed_flags_and_configs_end_in_a_documented_exit_code(tmp_path_factory, case):
    argv, config = case
    if config:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2, 3), argv
