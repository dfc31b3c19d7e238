"""Enclosures of R_i' over each widened branch domain A_i, as
BranchSystem.slopes computed them before Interval built its results
without __init__ and took a float operand as two products: float.hex of
(lo, hi) per branch, or the exception's class name and message, keyed by
the eps tuple.  Written by tests/record_slopes.py; tests/test_interval.py
checks them."""

SLOPE_HEXES = {
    (1.01, 1.0): [
        ('0x1.ca807c9ae44a4p+5', '0x1.cd2abdf79a070p+5'),
        ('0x1.c64847d95225bp+5', '0x1.c8ea7ed8d51e8p+5'),
    ],
    (1.02, 1.0, 0.98): [
        ('0x1.ca885c77231c8p+5', '0x1.d56d2ccb6a88cp+5'),
        ('0x1.c231c42c9f509p+5', '0x1.ccd574864d5e7p+5'),
        ('0x1.b9d6ffc1f7d72p+5', '0x1.c43a37869c957p+5'),
    ],
    (1.04, 1.0, 0.96): [
        ('0x1.cd4081d32f0efp+5', '0x1.e3941d39456f7p+5'),
        ('0x1.bcd8f55c3b667p+5', '0x1.d2267751eaadep+5'),
        ('0x1.ac5f641d3d496p+5', '0x1.c0ac09564e8d3p+5'),
    ],
    (1.015, 1.005, 0.995, 0.985): [
        ('0x1.c9ce649f85b11p+5', '0x1.d1ed6817a0672p+5'),
        ('0x1.c59f05ee188b2p+5', '0x1.cda59e6b6af2bp+5'),
        ('0x1.c16ea55c776c0p+5', '0x1.c95cf23f76bbdp+5'),
        ('0x1.bd3d3b257402fp+5', '0x1.c5135bd076042p+5'),
    ],
    (1.02, 1.01, 1.0, 0.99, 0.98): [
        ('0x1.ca885c77231c8p+5', '0x1.d56d2ccb6a88cp+5'),
        ('0x1.c65d91fd0ccf2p+5', '0x1.d121bd69728acp+5'),
        ('0x1.c231c42c9f509p+5', '0x1.ccd574864d5e7p+5'),
        ('0x1.be04eb6bcf224p+5', '0x1.c8884a8739e74p+5'),
        ('0x1.b9d6ffc1f7d72p+5', '0x1.c43a37869c957p+5'),
    ],
}
