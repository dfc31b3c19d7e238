"""Values that two bisection loops computed before they became calls of
the one helper scaling.bisect, as float.hex, so the helper is checked
against them bitwise: horseshoe branch domains A_i (bisected in
horseshoe._domain_end), keyed by the epsilons of the conftest branch
systems, and the Moran dimension of the fixed-point scaling factors
(tower.cantor_dimension), keyed by the period.  The third loop,
scaling._bisect_boundary, is pinned by reference_domains.py."""

BRANCH_DOMAIN_HEXES = {
    (1.01, 1.0): [
        ("0x1.c2bb2a591ccbap-2", "0x1.c2bb98abf4db6p-2"),
        ("0x1.c2d38052703dap-2", "0x1.c2d3efabd3facp-2"),
    ],
    (1.02, 1.0, 0.98): [
        ("0x1.c2a2dc3a0ba24p-2", "0x1.c2a495ef635dap-2"),
        ("0x1.c2d3131a99b8dp-2", "0x1.c2d4d50569eaep-2"),
        ("0x1.c30523a9f8332p-2", "0x1.c306ee1dc9528p-2"),
    ],
    (1.02, 1.01, 1.0, 0.99, 0.98): [
        ("0x1.c2a2dc3a0ba24p-2", "0x1.c2a495ef635dap-2"),
        ("0x1.c2babe22ca3aep-2", "0x1.c2bc7be8bdc22p-2"),
        ("0x1.c2d3131a99b8dp-2", "0x1.c2d4d50569eaep-2"),
        ("0x1.c2ebde75afa04p-2", "0x1.c2eda49a3c105p-2"),
        ("0x1.c30523a9f8332p-2", "0x1.c306ee1dc9528p-2"),
    ],
    (1.04, 1.0, 0.96): [
        ("0x1.c27398347691cp-2", "0x1.c276fcd38beeap-2"),
        ("0x1.c2d23ed144f6ap-2", "0x1.c2d5c3b29916cp-2"),
        ("0x1.c3384da7dfa86p-2", "0x1.c33bf5695c1e2p-2"),
    ],
}

CANTOR_DIMENSION_HEXES = {
    3: "0x1.60cbf33908cc0p-2",
    5: "0x1.88c38149a123cp-2",
}
