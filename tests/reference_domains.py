"""Feasible domains as the package computed them before the domain scan
stopped stacking its condition rows into one matrix: float.hex of every
interval end, boundary and puncture, with the condition names, keyed by
(period, eps, scan_step).  tests/test_scaling.py checks feasible_domain
against them bitwise."""

DOMAIN_HEXES = {
    (3, 0.5, 0.0001): {
        "intervals": [
            ("0x1.8cf244784d013p-2", "0x1.b87bc95bf8612p-2"),
            ("0x1.b87bc95bf8612p-2", "0x1.db11b3ce71de7p-2"),
        ],
        "boundaries": [
            ("0x1.8cf244784d013p-2", "Gr"),
            ("0x1.db11b3ce71de7p-2", "Gr"),
        ],
        "punctures": [
            ("0x1.b87bc95bf8612p-2", "S1+S2+S3"),
        ],
    },
    (3, 0.5, 0.001): {
        "intervals": [
            ("0x1.8cf244784bc69p-2", "0x1.b87bc9594133ep-2"),
            ("0x1.b87bc9594133ep-2", "0x1.db11b3ce70a3cp-2"),
        ],
        "boundaries": [
            ("0x1.8cf244784bc69p-2", "Gr"),
            ("0x1.db11b3ce70a3cp-2", "Gl"),
        ],
        "punctures": [
            ("0x1.b87bc9594133ep-2", "S1+S2+S3"),
        ],
    },
    (3, 0.97, 0.0001): {
        "intervals": [
            ("0x1.9728c3762339bp-2", "0x1.b87bc95bf8612p-2"),
            ("0x1.b87bc95bf8612p-2", "0x1.d3934e939db22p-2"),
        ],
        "boundaries": [
            ("0x1.9728c3762339bp-2", "Gr"),
            ("0x1.d3934e939db22p-2", "Gr"),
        ],
        "punctures": [
            ("0x1.b87bc95bf8612p-2", "S1+S2+S3"),
        ],
    },
    (3, 0.97, 0.001): {
        "intervals": [
            ("0x1.9728c37622d10p-2", "0x1.b87bc9594133ep-2"),
            ("0x1.b87bc9594133ep-2", "0x1.d3934e939ba5ep-2"),
        ],
        "boundaries": [
            ("0x1.9728c37622d10p-2", "Gr"),
            ("0x1.d3934e939ba5ep-2", "Gl"),
        ],
        "punctures": [
            ("0x1.b87bc9594133ep-2", "S1+S2+S3"),
        ],
    },
    (3, 1.03, 0.0001): {
        "intervals": [
            ("0x1.98027c492545fp-2", "0x1.b87bc95bf8612p-2"),
            ("0x1.b87bc95bf8612p-2", "0x1.d2f61a5a8db8bp-2"),
        ],
        "boundaries": [
            ("0x1.98027c492545fp-2", "Gr"),
            ("0x1.d2f61a5a8db8bp-2", "Gl"),
        ],
        "punctures": [
            ("0x1.b87bc95bf8612p-2", "S1+S2+S3"),
        ],
    },
    (3, 1.03, 0.001): {
        "intervals": [
            ("0x1.98027c4924dd4p-2", "0x1.b87bc9594133ep-2"),
            ("0x1.b87bc9594133ep-2", "0x1.d2f61a5a8d4fep-2"),
        ],
        "boundaries": [
            ("0x1.98027c4924dd4p-2", "Gr"),
            ("0x1.d2f61a5a8d4fep-2", "Gl"),
        ],
        "punctures": [
            ("0x1.b87bc9594133ep-2", "S1+S2+S3"),
        ],
    },
    (3, 2.0, 0.0001): {
        "intervals": [
            ("0x1.a05f521b9096dp-2", "0x1.b87bc95bf8612p-2"),
            ("0x1.b87bc95bf8612p-2", "0x1.ccdc326d0ff97p-2"),
        ],
        "boundaries": [
            ("0x1.a05f521b9096dp-2", "Gr"),
            ("0x1.ccdc326d0ff97p-2", "Gr"),
        ],
        "punctures": [
            ("0x1.b87bc95bf8612p-2", "S1+S2+S3"),
        ],
    },
    (3, 2.0, 0.001): {
        "intervals": [
            ("0x1.a05f521b8f5c3p-2", "0x1.b87bc9594133ep-2"),
            ("0x1.b87bc9594133ep-2", "0x1.ccdc326d10626p-2"),
        ],
        "boundaries": [
            ("0x1.a05f521b8f5c3p-2", "Gr"),
            ("0x1.ccdc326d10626p-2", "Gr"),
        ],
        "punctures": [
            ("0x1.b87bc9594133ep-2", "S1+S2+S3"),
        ],
    },
    (5, 1.0, 0.0001): {
        "intervals": [
            ("0x1.84e1372252bd3p-2", "0x1.8a01ad40301f6p-2"),
            ("0x1.8a01ad40301f6p-2", "0x1.8fcea453837b4p-2"),
        ],
        "boundaries": [
            ("0x1.84e1372252bd3p-2", "Gr1"),
            ("0x1.8fcea453837b4p-2", "Gr1"),
        ],
        "punctures": [
            ("0x1.8a01ad40301f6p-2", "S1+S2+S3+S4+S5"),
        ],
    },
    (5, 1.0, 0.001): {
        "intervals": [
            ("0x1.84e1372253f7dp-2", "0x1.8a01ad402f3b2p-2"),
            ("0x1.8a01ad402f3b2p-2", "0x1.8fcea4538312ap-2"),
        ],
        "boundaries": [
            ("0x1.84e1372253f7dp-2", "Gr1"),
            ("0x1.8fcea4538312ap-2", "Gr1"),
        ],
        "punctures": [
            ("0x1.8a01ad402f3b2p-2", "S1+S2+S3+S4+S5"),
        ],
    },
}
