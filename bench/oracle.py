"""Correctness oracles for every benchmark operation, and their negative controls.

An operation counts as correct only when its oracle accepts it:

* cli-mix: the exit code is 0 and stdout matches, byte for byte, the output
  recorded in reference_outputs.json (sha256 and length);
* solve-eps: |R(c, eps) - c| <= 1e-12, the fixed point is expanding, and c
  lies in the feasible domain at eps;
* horseshoe: cylinder counts equal alphabet**n and coding and shift
  residuals are at most 1e-9.

Every c* the operations print that has a 50-digit mpmath reference also
feeds c_star_err, which may not exceed C_STAR_TOL.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

# 50-digit mpmath fixed points, copied from tests/reference_values.py so the
# benchmark keeps working if the test suite is reorganised.
C3_STAR = 0.4402615975022368
C5_STAR = 0.3872264806902197
C_EPS_098 = 0.4404561238937109
C_EPS_102 = 0.4400743875912280

# (period, eps) -> reference c*
C_STAR_REFERENCES = {
    (3, 1.0): C3_STAR,
    (5, 1.0): C5_STAR,
    (3, 0.98): C_EPS_098,
    (3, 1.02): C_EPS_102,
}
C_STAR_TOL = 1e-12
RESIDUAL_TOL = 1e-12   # |R(c, eps) - c| at an eps fixed point
HORSESHOE_TOL = 1e-9   # coding and shift residuals

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_outputs.json"


class Tally:
    """Attempted and failed operations, and the worst c* error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.c_star_err = 0.0
        self.c_star_checked = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def c_star(self, period: int, eps: float, c: float) -> bool:
        """Compare c with its reference, if (period, eps) has one."""
        ref = C_STAR_REFERENCES.get((period, eps))
        if ref is None:
            return True
        err = abs(c - ref)
        self.c_star_checked += 1
        self.c_star_err = max(self.c_star_err, err)
        return err <= C_STAR_TOL

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def command_key(argv) -> str:
    return " ".join(argv)


def output_digest(stdout: bytes) -> dict:
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def load_reference_outputs() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check_cli(argv, returncode: int, stdout: bytes, references: dict, tally: Tally) -> bool:
    """The recorded bytes, exit 0, and the reference c* of solve/horseshoe."""
    ok = returncode == 0 and references.get(command_key(argv)) == output_digest(stdout)
    if argv[0] in ("solve", "horseshoe"):
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError):
            return False
        if argv[0] == "solve":
            ok &= tally.c_star(results["period"], 1.0, results["c_star"])
        else:
            for eps, c in zip(results["epsilons"], results["fixed_points"]):
                ok &= tally.c_star(3, eps, c)
    return ok


def check_eps_fixed_point(renorm, eps: float, c: float, expanding: bool) -> bool:
    """The solve-eps oracle, built from the package's public API."""
    three = renorm.Period.THREE
    residual = abs(renorm.return_map(three, c, eps=eps) - c)
    domain = renorm.feasible_domain(three, eps=eps)
    return residual <= RESIDUAL_TOL and expanding and domain.covering_interval(c) is not None


def check_horseshoe(alphabet: int, counts, coding_residuals, shift_residual: float) -> bool:
    return (
        counts == [alphabet**n for n in range(1, len(counts) + 1)]
        and max(coding_residuals) <= HORSESHOE_TOL
        and shift_residual <= HORSESHOE_TOL
    )


def negative_controls(renorm, solve_report: bytes, references: dict) -> bool:
    """Feed broken outputs through the oracles; each must count as failed.

    solve_report is a genuine `solve --period 3` report, which must pass.
    The controls are that report with c* moved by 1e-9, the same report
    cut in half, and the moved c* through the solve-eps oracle.  Returns
    True when the genuine report passes and every control is flagged.
    """
    argv = ["solve", "--period", "3"]
    genuine = Tally()
    genuine.record(check_cli(argv, 0, solve_report, references, genuine))

    c = json.loads(solve_report)["results"]["c_star"]
    moved = c + 1e-9
    perturbed, n = re.subn(
        rb'"c_star": [^,]+', b'"c_star": %.17g' % moved, solve_report, count=1
    )
    controls = Tally()
    if n == 1:
        controls.record(check_cli(argv, 0, perturbed, references, controls))
    controls.record(check_cli(argv, 0, solve_report[: len(solve_report) // 2], references, controls))
    controls.record(check_eps_fixed_point(renorm, 1.0, moved, True))
    print(
        f"negative controls: {controls.failed}/3 counted as failed "
        f"(error_rate {controls.error_rate:g}), perturbed c_star_err {controls.c_star_err:.3g}; "
        f"genuine report {'passes' if genuine.failed == 0 else 'FAILS'}"
    )
    return (
        genuine.failed == 0
        and controls.attempted == 3
        and controls.failed == 3
        and controls.c_star_err > C_STAR_TOL
    )
