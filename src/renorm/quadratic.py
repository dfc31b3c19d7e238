"""The quadratic unimodal family u_c and its critical orbit.

u_c(x) = 1 - ((x - c) / (1 - c))**2 on [0, 1], with critical point c and
critical exponent fixed at 2.  Everything else in the package (scaling
factors, towers, piecewise-affine maps, extensions) is built out of the
orbit of 0 under u_c.
"""

from __future__ import annotations

from dataclasses import dataclass

X_TOL = 1e-12          # slack accepted outside [0, 1] before raising


class DomainError(ValueError):
    """Argument outside [0, 1] beyond tolerance."""


@dataclass(frozen=True)
class QuadraticUnimodal:
    """The map u_c.  The renormalization layers restrict to 0 < c < 1/2;
    the family itself only needs an interior critical point."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"critical point must lie in (0, 1), got {self.c}")

    def __call__(self, x):
        return eval_map(self, x)


def eval_raw(c, x):
    """u_c(x) without domain checks.  Works on floats and numpy arrays."""
    t = (x - c) / (1.0 - c)
    return 1.0 - t * t


def eval_map(u: QuadraticUnimodal, x: float) -> float:
    if x < -X_TOL or x > 1.0 + X_TOL:
        raise DomainError(f"x={x} outside [0, 1]")
    return eval_raw(u.c, x)


def orbit(u: QuadraticUnimodal, k: int) -> list[float]:
    """The critical orbit [0, u(0), ..., u^k(0)]."""
    out = [0.0]
    for _ in range(k):
        out.append(eval_map(u, out[-1]))
    return out
