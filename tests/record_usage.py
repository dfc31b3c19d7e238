"""Record what the CLI's argument parsing prints, pinned in reference_usage.py.

Run from the repository root, on the build whose messages are to be pinned:

    PYTHONPATH=src python tests/record_usage.py > tests/reference_usage.py

Each case is an argv run as renorm.cli.main(argv), with COLUMNS=80 since
argparse wraps its text to the terminal width: the top-level help, each
command's help and plotdata extension's, and usage errors at each level
(no command, an unknown command, an unknown flag, a bad choice, a missing
plotdata kind or verify suite).  Recorded are the exit code, stdout and
stderr.
"""

import contextlib
import io
import os

from renorm import cli

COMMANDS = ("solve", "feasible", "tower", "extend", "horseshoe", "plotdata", "verify")
CASES = (
    [("--help",)]
    + [(command, "--help") for command in COMMANDS]
    + [
        ("plotdata", "extension", "--help"),
        (),
        ("bogus",),
        ("solve", "--bogus"),
        ("solve", "--period", "7"),
        ("plotdata",),
        ("verify",),
        ("verify", "all", "--bogus"),
    ]
)


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), which reads sys.argv where
    argv is None; argparse exits through SystemExit, with 0 after a help
    text and 2 after a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv if argv is None else list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    os.environ["COLUMNS"] = "80"
    print('"""What the CLI printed for its help texts and argument-parsing usage')
    print("errors while it built every command's parser for every argv: (exit code,")
    print("stdout, stderr) of renorm.cli.main(argv) with COLUMNS=80, keyed by argv.")
    print('Written by tests/record_usage.py; tests/test_cli_usage.py checks them."""')
    print()
    print("USAGE = {")
    for argv in CASES:
        code, out, err = run(argv)
        print(f"    {argv!r}: (")
        print(f"        {code!r},")
        print(f"        {out!r},")
        print(f"        {err!r},")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
