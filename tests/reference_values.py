"""Frozen reference values for the test suite.

Everything here was computed independently of the package with a
50-digit mpmath orbit oracle (see make_reference.py): iterate the
quadratic family symbolically precise, bracket the return-map roots
inside the feasible components, and bisect the feasibility conditions
for the domain boundaries.  Six-decimal *_6DP values are the published
reference constants the solver must reproduce."""

# fixed points of the return maps
C3_STAR = 0.4402615975022368
C5_STAR = 0.3872264806902197
C3_6DP = 0.440262
C5_6DP = 0.387226

# central finite-difference derivatives at the fixed points
R3_DERIV = 56.939896804586014
R5_DERIV = 255.57643785611564

# scaling factors and gaps at the fixed points
S3_STAR = (0.03920038061928182, 0.10526469631187393, 0.011080656289631045)
S5_STAR = (
    0.008029984084256283,
    0.04965118062771356,
    0.016390161104874793,
    0.019349150997492034,
    0.002465239737725839,
)
GAPS3_STAR = (0.3421405239299345, 0.5023137428492787)
GAPS5_STAR = (
    0.3487715679148338,
    0.19421893934387193,
    0.2422577380778335,
    0.11886603811139823,
)

# critical orbits u^k(0), k = 0.., at the fixed points
ORBIT3 = (
    0.0,
    0.3813409045492163,
    0.9889193437103690,
    0.03920038061928182,
    0.4866056008610902,
    0.9931448512028558,
)
ORBIT5 = (
    0.0,
    0.6006716719706756,
    0.8786687221508759,
    0.3568015519990901,
    0.9975347602622742,
    0.008029984084256283,
    0.6170618330755504,
    0.8593195711533839,
    0.4064527326268037,
    0.9990155599373425,
)

# feasible-domain boundaries: (lower, interior puncture, upper)
FD3 = (0.3980397382839253, 0.4301597090019467, 0.4563109873079236)
FD5 = (0.3797653784465344, 0.3847720217053415, 0.3904367137879832)
FD3_6DP = (0.398039, 0.430159, 0.456310)
FD5_6DP = (0.379765, 0.384772, 0.390436)

# eps-perturbed fixed points
C_EPS_098 = 0.4404561238937109
C_EPS_102 = 0.4400743875912280

# Moran similarity dimensions of the stationary Cantor factors
MORAN3 = 0.3445280078472029
MORAN5 = 0.3835582925020950

# quadratic-tip constants 1/(1-c*)^2
TIP3 = 3.1917567980119230
TIP5 = 2.6631769392630028

# spot values for the quadratic family
U_044_AT_0 = 0.3826530612244898
ORBIT_0440262_K3 = 0.039203656811123033
ORBIT_0440262_K4 = 0.4866122196725909
R3_AT_041 = 1.4826519508390846
