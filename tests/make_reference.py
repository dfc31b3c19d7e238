"""Regenerate the frozen constants in reference_values.py.

Standalone 50-digit mpmath computation: the orbit of 0 under the
quadratic family, bracketed bisection of the return-map fixed points
inside the feasible components, and bisection of the feasibility
conditions for the domain boundaries.  Run `python make_reference.py`
and compare against the checked-in literals.
"""

from mpmath import findroot, mp, mpf

mp.dps = 50


def u(c, x):
    return 1 - ((x - c) / (1 - c)) ** 2


def orbit(c, k):
    xs = [mpf(0)]
    for _ in range(k):
        xs.append(u(c, xs[-1]))
    return xs


def s3f(c):
    o = orbit(c, 4)
    return (o[3], o[4] - o[1], 1 - o[2])


def s5f(c):
    o = orbit(c, 8)
    return (o[5], o[8] - o[3], o[6] - o[1], o[2] - o[7], 1 - o[4])


def gaps3(c):
    o = orbit(c, 4)
    return (o[1] - o[3], o[2] - o[4])


def gaps5(c):
    o = orbit(c, 8)
    return (o[3] - o[5], o[1] - o[8], o[7] - o[6], o[4] - o[2])


def R3(c):
    o = orbit(c, 4)
    return (o[4] - c) / (o[4] - o[1])


def R5(c):
    o = orbit(c, 8)
    return (o[8] - c) / (o[8] - o[3])


def R3eps(c, e):
    o = orbit(c, 3)
    top = u(c, e * o[3])
    return (top - c) / (top - o[1])


def bisect(f, lo, hi, n=200):
    flo = f(lo)
    assert (flo > 0) != (f(hi) > 0)
    for _ in range(n):
        mid = (lo + hi) / 2
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def deriv(f, c, h=mpf("1e-20")):
    return (f(c + h) - f(c - h)) / (2 * h)


def show(name, value, digits=17):
    print(f"{name} = {mp.nstr(value, digits)}")


c3 = bisect(lambda x: R3(x) - x, mpf("0.4302"), mpf("0.4563"))
c5 = bisect(lambda x: R5(x) - x, mpf("0.3848"), mpf("0.3904"))
show("C3_STAR", c3)
show("C5_STAR", c5)
show("R3_DERIV", deriv(R3, c3))
show("R5_DERIV", deriv(R5, c5))
print("S3_STAR =", tuple(mp.nstr(x, 17) for x in s3f(c3)))
print("S5_STAR =", tuple(mp.nstr(x, 17) for x in s5f(c5)))
print("GAPS3_STAR =", tuple(mp.nstr(x, 17) for x in gaps3(c3)))
print("GAPS5_STAR =", tuple(mp.nstr(x, 17) for x in gaps5(c5)))
print("ORBIT3 =", tuple(mp.nstr(x, 17) for x in orbit(c3, 5)))
print("ORBIT5 =", tuple(mp.nstr(x, 17) for x in orbit(c5, 9)))

min3 = lambda c: min(s3f(c) + gaps3(c))
min5 = lambda c: min(s5f(c) + gaps5(c))
fd3 = (
    bisect(min3, mpf("0.399"), mpf("0.397")),
    findroot(lambda c: u(c, 0) - c, mpf("0.43")),
    bisect(min3, mpf("0.456"), mpf("0.457")),
)
fd5 = (
    bisect(min5, mpf("0.38"), mpf("0.3795")),
    findroot(lambda c: orbit(c, 3)[3] - c, mpf("0.3848")),
    bisect(min5, mpf("0.390"), mpf("0.391")),
)
print("FD3 =", tuple(mp.nstr(x, 17) for x in fd3))
print("FD5 =", tuple(mp.nstr(x, 17) for x in fd5))

for e in (mpf("0.98"), mpf("1.02")):
    ce = bisect(lambda x: R3eps(x, e) - x, mpf("0.4302"), mpf("0.4563"))
    show(f"C_EPS_{e}", ce)

moran = lambda s: findroot(lambda d: sum(x**d for x in s) - 1, mpf("0.5"))
show("MORAN3", moran(s3f(c3)))
show("MORAN5", moran(s5f(c5)))
show("TIP3", 1 / (1 - c3) ** 2)
show("TIP5", 1 / (1 - c5) ** 2)
show("U_044_AT_0", u(mpf("0.44"), 0))
o = orbit(mpf("0.440262"), 4)
show("ORBIT_0440262_K3", o[3])
show("ORBIT_0440262_K4", o[4])
show("R3_AT_041", R3(mpf("0.41")))
