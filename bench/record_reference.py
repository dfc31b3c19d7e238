"""Record the reference outputs of the cli-mix commands.

    python3 bench/record_reference.py

Runs every distinct cli-mix command once, the way the benchmark runs it,
and writes the sha256 and length of its stdout to
bench/reference_outputs.json.  The file in the repository was recorded at
the commit that introduced the benchmark; re-record only when a change is
meant to alter the reports, and say so with the change.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
from run import child_env, pin_environment  # noqa: E402
from workloads import distinct_commands, run_cli  # noqa: E402


def main():
    pin_environment()
    env = child_env()
    references = {}
    for argv in distinct_commands():
        code, stdout = run_cli(argv, env, ROOT)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited with {code}")
        references[oracle.command_key(argv)] = oracle.output_digest(stdout)
    with open(oracle.REFERENCE_FILE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(references)} commands in {oracle.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
