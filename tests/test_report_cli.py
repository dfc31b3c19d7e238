import hashlib
import importlib
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import renorm
import renorm.cli as cli_mod
from renorm import report as rpt
from renorm.cli import main
from renorm.scaling import DivisionGuard, NumericalFailure, Period, feasible_domain, return_map
from renorm.solver import NoRoot
from reference_values import C3_6DP, C5_6DP, FD3_6DP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_float_serialization_roundtrip():
    text = rpt.write_report("solve", {}, {"x": 0.1 + 0.2, "y": [1e-300, 3.14], "flag": True})
    back = json.loads(text)
    assert back["results"]["x"] == 0.1 + 0.2
    assert back["results"]["y"][0] == 1e-300
    assert back["results"]["flag"] is True


def test_report_envelope():
    config = {"period": 3, "tol": 1e-13}
    doc = json.loads(rpt.write_report("solve", config, {"c_star": 0.44}))
    assert doc == {
        "command": "solve",
        "provenance": {
            "tool": "renorm",
            "version": renorm.__version__,
            "schema_version": 1,
            "config": config,
        },
        "results": {"c_star": 0.44},
    }
    assert renorm.__version__ == "0.1.0"


def test_atomic_write(tmp_path):
    path = tmp_path / "out.json"
    rpt.atomic_write(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert [p for p in os.listdir(tmp_path)] == ["out.json"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_atomic_write_gives_a_new_file_the_umask_mode(tmp_path, umask_022):
    # the mode `> path` gives: 0o666 less the umask, not mkstemp's 0o600
    path = tmp_path / "out.json"
    rpt.atomic_write(str(path), "hello\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert path.read_text() == "hello\n"


def test_atomic_write_keeps_an_existing_files_mode(tmp_path, umask_022):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    path.chmod(0o640)
    rpt.atomic_write(str(path), "hello\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "hello\n"


def test_cli_solve_three(capsys):
    code, out = run_cli(capsys, "solve", "--period", "3")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["c_star"] - C3_6DP) < 1e-5
    assert doc["results"]["expanding"] is True
    assert doc["provenance"]["schema_version"] == 1


def test_cli_solve_five(capsys):
    code, out = run_cli(capsys, "solve", "--period", "5")
    assert code == 0
    assert abs(json.loads(out)["results"]["c_star"] - C5_6DP) < 1e-5


def test_cli_solve_loose_tolerance_same_six_decimals(capsys):
    _, out1 = run_cli(capsys, "solve", "--period", "3")
    _, out2 = run_cli(capsys, "solve", "--period", "3", "--tol", "1e-6")
    c1 = json.loads(out1)["results"]["c_star"]
    c2 = json.loads(out2)["results"]["c_star"]
    assert round(c1, 6) == round(c2, 6) == C3_6DP


def test_cli_determinism(capsys):
    _, out1 = run_cli(capsys, "solve", "--period", "3")
    _, out2 = run_cli(capsys, "solve", "--period", "3")
    assert out1 == out2


def test_cli_feasible_csv(capsys):
    code, out = run_cli(capsys, "feasible", "--period", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lo,hi,binding_condition"
    assert len(lines) == 3
    lo = float(lines[1].split(",")[0])
    hi = float(lines[2].split(",")[1])
    assert abs(lo - FD3_6DP[0]) < 1e-5 and abs(hi - FD3_6DP[2]) < 1e-5


def test_cli_feasible_json_punctures(capsys):
    from reference_values import FD5_6DP

    code, out = run_cli(capsys, "feasible", "--period", "5")
    doc = json.loads(out)
    assert code == 0
    ivs = doc["results"]["intervals"]
    assert len(ivs) == 2
    got = (ivs[0][0], ivs[0][1], ivs[1][1])
    assert all(abs(g - w) < 1e-5 for g, w in zip(got, FD5_6DP))
    assert doc["results"]["punctures"]


def test_cli_plotdata_scaling(capsys):
    code, out = run_cli(capsys, "plotdata", "scaling", "--period", "3", "--grid", "50")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "c,S1,S2,S3,sum"
    assert len(lines) == 51


def test_cli_plotdata_returnmap_crossings(capsys):
    code, out = run_cli(capsys, "plotdata", "returnmap", "--period", "3", "--grid", "400")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    crossings = {0: 0, 1: 0}
    rows = [line.split(",") for line in lines]
    for (i1, c1, r1), (i2, c2, r2) in zip(rows[:-1], rows[1:]):
        if i1 != i2:
            continue
        g1 = float(r1) - float(c1)
        g2 = float(r2) - float(c2)
        if g1 * g2 < 0:
            crossings[int(i1)] += 1
    assert crossings[0] == 0  # no fixed point in the first component
    assert crossings[1] == 1  # exactly one in the second


@pytest.mark.parametrize("kind, grid", [("scaling", "0"), ("returnmap", "1")])
def test_cli_plotdata_grid_without_rows_is_usage_error(capsys, kind, grid):
    # a header-only CSV is no plot; a grid of 0 is refused by the --grid
    # floor, and a positive one that leaves no row per feasible interval
    # once the rows come out empty
    assert main(["plotdata", kind, "--period", "3", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "must be at least 1" if grid == "0" else "leaves no data row"
    assert f"--grid {grid} {reason}" in captured.err


@pytest.mark.parametrize("kind", ["scaling", "returnmap"])
@pytest.mark.parametrize("grid", [0, -5])
def test_cli_refuses_a_grid_below_one_by_its_flag_name(tmp_path, monkeypatch, capsys, kind, grid):
    # refused before the domain scan or any grid is allocated, from the flag
    # and from a config file alike, and named as --grid, not numpy's count
    monkeypatch.setattr(cli_mod, "feasible_domain", lambda *a, **k: pytest.fail("scanned"))
    monkeypatch.setattr(cli_mod.np, "linspace", lambda *a, **k: pytest.fail("allocated"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid}))
    for source in (["--grid", str(grid)], ["--config", str(cfg)]):
        assert main(["plotdata", kind, "--period", "3", *source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--grid {grid} must be at least 1" in captured.err


def test_cli_plotdata_cobweb(capsys):
    code, out = run_cli(capsys, "plotdata", "cobweb", "--period", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 2 + 2 * 4  # start point plus (rise, run) per step


def test_cli_plotdata_tower(capsys):
    code, out = run_cli(capsys, "plotdata", "tower", "--period", "5", "--depth", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,family,lo,hi"
    assert len(lines) == 1 + 3 * 5


def test_cli_tower_report(capsys):
    code, out = run_cli(capsys, "tower", "--period", "3", "--depth", "6")
    doc = json.loads(out)
    assert code == 0
    res = doc["results"]
    assert res["hor_satisfied"] is True
    assert res["geometric_decay"] is True
    assert res["ratio_deviation"] <= 1e-12
    assert len(res["generations"]) == 6


def test_cli_extend_report(capsys):
    code, out = run_cli(capsys, "extend", "--period", "3", "--depth", "4",
                        "--resolution", "64")
    doc = json.loads(out)
    assert code == 0
    res = doc["results"]
    assert res["junction_mismatch"] <= 1e-6
    assert res["unimodal"] is True
    assert abs(res["quadratic_tip"] - res["quadratic_tip_algebraic"]) < 1e-5


# the benchmark's recorded stdout digest of every cli-mix command, read only
with open(Path(__file__).resolve().parents[1] / "bench" / "reference_outputs.json") as _fh:
    RECORDED_DIGESTS = json.load(_fh)


@pytest.mark.parametrize("command", sorted(RECORDED_DIGESTS))
def test_cli_output_matches_recorded_digest(capsys, command):
    # checked in-process, on every Python the tests run on
    reference = RECORDED_DIGESTS[command]
    code, out = run_cli(capsys, *command.split())
    data = out.encode()
    assert code == 0
    assert {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)} == reference


# stdout digests past the default depths and alphabet, recorded before the
# combinatorics were derived from the visiting cycles: the acceptance-scale
# suites of both periods and the 5-letter horseshoe
DEEP_DIGESTS = {
    "verify all --period 3 --full": {
        "sha256": "5e4e29d6c4366e5743d583b1183b93339ffe552f44f31f3bab41a4910061f3f1", "bytes": 1979,
    },
    "verify all --period 5 --full": {
        "sha256": "cde6129b93cc83166b3cb20c12860511daa4d69d0856237c300a27863af4a26d", "bytes": 1449,
    },
    "horseshoe --eps 1.02,1.01,1.0,0.99,0.98": {
        "sha256": "2c883016060ffd5520465c1e049c4e37cb4e36afe12a4cf5717875c678aec97a", "bytes": 1475,
    },
}


@pytest.mark.parametrize("command", sorted(DEEP_DIGESTS))
def test_cli_output_matches_deep_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    data = out.encode()
    assert code == 0
    assert {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)} == DEEP_DIGESTS[command]


def test_cli_horseshoe_report(capsys):
    code, out = run_cli(capsys, "horseshoe", "--depth", "4")
    doc = json.loads(out)
    assert code == 0
    res = doc["results"]
    assert res["cylinder_counts"] == [3, 9, 27, 81]
    assert min(res["derivatives"]) > 2.0
    cs = [row[1] for row in res["eps_sweep"]]
    assert all(b < a for a, b in zip(cs[:-1], cs[1:]))


def test_cli_out_file_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"period": 5, "tol": 1e-10}))
    out_path = tmp_path / "solve.json"
    code, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"]["period"] == 5
    # flags win over the config file
    code, _ = run_cli(capsys, "solve", "--config", str(cfg), "--period", "3",
                      "--out", str(out_path))
    assert json.loads(out_path.read_text())["results"]["period"] == 3


@pytest.mark.parametrize(
    "config",
    [{"period": 4}, {"period": "3"}, {"depth": 0}, {"depth": "5"}, [1, 2], 5, {"depht": 30}],
)
def test_cli_bad_config_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(capsys, "tower", "--config", str(cfg)) == (2, "")


@pytest.mark.parametrize(
    "command, config",
    [
        (["solve"], {"tol": "1e-10"}),
        (["plotdata", "scaling"], {"grid": "10"}),
        (["plotdata", "scaling"], {"grid": 2.5}),
        (["plotdata", "scaling"], {"grid": True}),
        (["solve"], {"tol": [1e-10]}),
        (["feasible"], {"format": "xml"}),
    ],
)
def test_cli_config_values_take_their_flag_types(tmp_path, capsys, command, config):
    # a value its flag's type= would not give exactly is a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(capsys, *command, "--config", str(cfg)) == (2, "")


def test_cli_numeric_config_matches_flags(tmp_path, capsys):
    # a valid numeric config gives the bytes the same flags give
    cfg = tmp_path / "cfg.json"
    for command, config in (
        (["solve"], {"period": 5, "tol": 1e-12, "step": 2e-4}),
        (["plotdata", "scaling"], {"period": 5, "grid": 40}),
        (["plotdata", "cobweb"], {"period": 5, "tol": 1e-12}),
    ):
        cfg.write_text(json.dumps(config))
        from_config = run_cli(capsys, *command, "--config", str(cfg))
        flags = [x for key, value in config.items() for x in (f"--{key}", str(value))]
        from_flags = run_cli(capsys, *command, *flags)
        assert from_config[0] == 0
        assert from_config == from_flags
    cfg.write_text(json.dumps({"period": 5, "tol": 1e-12, "step": 2e-4}))
    doc = json.loads(run_cli(capsys, "solve", "--config", str(cfg))[1])
    assert doc["provenance"]["config"]["tol"] == 1e-12
    assert doc["provenance"]["config"]["step"] == 2e-4


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["solve"], "grid", "5"),
        (["feasible"], "tol", "1e-10"),
        (["plotdata", "scaling"], "eps", "1.0,0.99"),
        (["tower"], "resolution", "64"),
        (["extend"], "seed", "1"),
        (["horseshoe"], "period", "3"),
        (["verify", "tower"], "depth", "4"),
    ],
)
def test_cli_refuses_flags_and_config_keys_the_command_does_not_read(
    tmp_path, capsys, command, flag, value
):
    # accepted, such a flag would only be echoed into provenance.config
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--{flag}", value])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: json.loads(value) if flag != "eps" else value}))
    capsys.readouterr()
    assert main([*command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"not flags of {command[0]}" in captured.err


PLOTDATA_READS = {
    "scaling": ("period", "grid", "out"),
    "returnmap": ("period", "grid", "step", "out"),
    "cobweb": ("period", "tol", "out"),
    "tower": ("period", "tol", "depth", "out"),
    "extension": ("period", "tol", "depth", "resolution", "out"),
}
PLOTDATA_UNREAD = [
    (kind, flag)
    for kind, flags in PLOTDATA_READS.items()
    for flag in cli_mod.FLAGS
    if flag not in flags
]
UNREAD_VALUE = {"period": 3, "tol": float("nan"), "depth": 3, "grid": 5, "step": 1e-3,
                "resolution": 64, "eps": "1.0,0.99", "seed": 1, "out": "x.csv", "format": "csv"}


@pytest.mark.parametrize("kind, flag", PLOTDATA_UNREAD)
def test_cli_plotdata_refuses_flags_its_kind_does_not_read(tmp_path, capsys, kind, flag):
    # each kind takes only its own flags, as every other command does
    value = UNREAD_VALUE[flag]
    with pytest.raises(SystemExit) as exc:
        main(["plotdata", kind, "--period", "3", f"--{flag}", str(value)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    assert main(["plotdata", kind, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"not flags of plotdata {kind}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "--period", "3", "--depth", "0"],
        ["extend", "--period", "5", "--depth", "0"],
        ["plotdata", "tower", "--period", "3", "--depth", "-1"],
        ["horseshoe", "--depth", "-3"],
        ["horseshoe", "--depth", "0"],
    ],
)
def test_cli_depth_below_one_is_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


FIVE_LETTERS = ["--eps", "1.02,1.01,1.0,0.99,0.98"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["horseshoe", "--depth", "40"], "need n <= 39 for 3 letters"),
        (["horseshoe", "--depth", "41"], "3^41 cylinders exceed the count limit 2^63 - 1"),
        (["horseshoe", "--depth", "28", *FIVE_LETTERS], "need n <= 27 for 5 letters"),
    ],
)
def test_cli_horseshoe_depth_past_count_limit_is_usage_error(capsys, argv, message):
    # refused, not clamped to the limit, and never a traceback from np.log
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, m, n", [([], 3, 15), (FIVE_LETTERS, 5, 10)])
def test_cli_horseshoe_counts_past_the_old_caps(capsys, argv, m, n):
    code, out = run_cli(capsys, "horseshoe", "--depth", str(n), *argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["cylinder_counts"] == [m**k for k in range(1, n + 1)]
    assert res["entropy_estimates"][-1] == pytest.approx(np.log(m), rel=1e-15)


def test_cli_horseshoe_without_a_full_shift_is_numerical_failure(capsys):
    # eps 1.0199 puts A_1 across A_0: the certificate's (a) fails, exit 3
    assert main(["horseshoe", "--eps", "1.02,1.0199,0.98"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not disjoint and increasing" in captured.err


def test_cli_depth_underflow_is_numerical_failure(capsys):
    assert main(["tower", "--period", "3", "--depth", "500"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflows" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--period", "3", "--depth", "13"],
        ["plotdata", "extension", "--period", "5", "--depth", "9"],
        ["extend", "--period", "3", "--depth", "400"],
    ],
)
def test_cli_extension_past_float_resolution_is_numerical_failure(capsys, argv):
    # levels whose samples lie closer than MIN_SAMPLE_ULPS (p3 from 9, p5
    # from 7) are refused, not reported as noisy Lipschitz constants
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "collapse below float resolution" in captured.err


def test_cli_extension_refusal_names_the_depth_that_resolves(capsys):
    # at resolution 1024 the p5 default depth 6 is refused at its level 6;
    # the depth the message names passes at that resolution
    assert main(["extend", "--period", "5", "--resolution", "1024"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: level 6 of 6: samples closer than 2048 ulps, the Lipschitz "
        "quotients collapse below float resolution; the deepest depth this resolution "
        "resolves is 5\n")
    code, out = run_cli(capsys, "extend", "--period", "5", "--resolution", "1024", "--depth", "5")
    assert code == 0 and json.loads(out)["results"]["depth"] == 5


def test_cli_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2


def test_cli_bad_tolerance_is_usage_error(capsys):
    assert main(["solve", "--period", "3", "--tol", "1e-20"]) == 2
    assert main(["solve", "--period", "3", "--tol", "nan"]) == 2
    assert main(["solve", "--period", "3", "--tol", "inf"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["feasible", "--period", "3", "--step", "0.2"]) == 2


def test_cli_refuses_a_step_below_its_floor_and_a_grid_above_its_ceiling(capsys):
    # both checks run before the scan or the grid is allocated
    for command in (["feasible"], ["solve"], ["plotdata", "returnmap"]):
        assert main([*command, "--period", "5", "--step", "9e-7"]) == 2
        assert "must lie in [1e-6, 1e-2]" in capsys.readouterr().err
    for kind in ("scaling", "returnmap"):
        assert main(["plotdata", kind, "--grid", "100001"]) == 2
        assert "above the ceiling 100000" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["extend"], ["plotdata", "extension"]])
def test_cli_refuses_a_resolution_above_its_ceiling(monkeypatch, capsys, command):
    # refused before any sample is allocated: a huge value once exhausted memory
    from renorm import extension

    allocated = []
    monkeypatch.setattr(extension, "_branch_piece", lambda *a: allocated.append(a))
    assert main([*command, "--period", "5", "--resolution", "16385"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must lie in [64, 16384]" in captured.err
    assert allocated == []


def test_cli_huge_eps_fails_cleanly_and_infinite_eps_is_a_usage_error(capsys):
    assert main(["horseshoe", "--eps", "1e200,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line: no numpy overflow warning ahead of it
    assert captured.err == (
        "numerical failure: no feasible domain at eps=1e+200: "
        "no feasible point for Period.THREE at step 0.0001\n"
    )
    assert main(["horseshoe", "--eps", "inf,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: eps must be finite, got inf\n"


def test_cli_empty_eps_is_a_usage_error_not_the_default_system(tmp_path, capsys):
    # an empty list is an entry that is not a number, as "," is; only an
    # eps left unset takes the default system
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": ""}))
    for argv in (["--eps", ""], ["--eps", ","], ["--config", str(cfg)]):
        assert main(["horseshoe", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: could not convert string to float: ''\n"


def _scalar_returnmap_rows(period, grid):
    """The reference for plotdata returnmap's rows: one scalar return_map
    call per point, a point where the s2 guard trips left out."""
    domain = feasible_domain(period)
    rows = []
    for k, (lo, hi) in enumerate(domain.intervals):
        for c in np.linspace(lo + 1e-9, hi - 1e-9, grid // len(domain.intervals)):
            try:
                rows.append((k, float(c), float(return_map(period, float(c)))))
            except DivisionGuard:
                continue
    return rows


@pytest.mark.parametrize("grid", [2000, 7])
@pytest.mark.parametrize("period", [3, 5])
def test_cli_plotdata_returnmap_matches_the_scalar_loop(capsys, period, grid):
    code, out = run_cli(capsys, "plotdata", "returnmap", "--period", str(period), "--grid", str(grid))
    assert code == 0
    rows = _scalar_returnmap_rows(Period(period), grid)
    assert rows
    assert out == rpt.to_csv(["interval", "c", "R"], rows)


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    import renorm.cli as cli_mod

    def boom(*args, **kwargs):
        raise NoRoot("forced")

    monkeypatch.setattr(cli_mod, "solve_fixed_point", boom)
    assert main(["solve", "--period", "3"]) == 3


# the documented exit-3 failures, by the module that defines them
NUMERICAL_ERRORS = {
    "solver": ("NoRoot", "MultipleRoots", "NoConvergence"),
    "scaling": ("EmptyDomain", "DivisionGuard"),
    "tower": ("InvalidFactor", "DepthUnderflow"),
    "horseshoe": ("ExpansionTooWeak", "NotAHorseshoe"),
    "extension": ("FillerOvershoot", "NonConvergent"),
}
# for each module of NUMERICAL_ERRORS, a function that module defines and a
# command that reaches it
RAISE_THROUGH = {
    "solver": ("_solve", ["solve", "--period", "3"]),
    "scaling": ("_bisect_boundary", ["feasible", "--period", "5"]),
    "tower": ("build_tower", ["tower", "--period", "3"]),
    "horseshoe": ("build_branch_system", ["horseshoe"]),
    "extension": ("extend", ["extend", "--period", "5"]),
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in NUMERICAL_ERRORS.items() for name in names],
)
def test_every_numerical_error_exits_3(monkeypatch, capsys, module, name):
    # InvalidFactor is a ValueError: it exits 3 only while the numerical
    # clause comes first
    error = getattr(importlib.import_module(f"renorm.{module}"), name)
    assert issubclass(error, NumericalFailure)
    function, argv = RAISE_THROUGH[module]

    class Forced(error):  # InvalidFactor and ExpansionTooWeak take their own arguments
        def __init__(self):
            Exception.__init__(self, "forced")

    def boom(*args, **kwargs):
        raise Forced()

    monkeypatch.setattr(f"renorm.{module}.{function}", boom)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: forced\n"


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        "renorm.verify.run_suite",
        lambda *a, **k: [{"name": "forced", "value": 2.0, "bound": 1.0, "ok": False}],
    )
    assert main(["verify", "tower", "--period", "3"]) == 1


def test_cli_verify_horseshoe_five_is_usage_error(capsys):
    assert main(["verify", "horseshoe", "--period", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "period-three" in captured.err


def test_verify_all_solves_the_fixed_point_once(monkeypatch):
    from renorm import verify as ver
    from renorm.scaling import Period

    calls = []
    solve = ver.solve_fixed_point
    monkeypatch.setattr(ver, "solve_fixed_point", lambda p: calls.append(p) or solve(p))
    rows = ver.run_suite("all", Period.THREE)
    assert calls == [Period.THREE]
    assert {r["name"].split("/")[0] for r in rows} == {"tower", "pwa", "extension", "horseshoe"}


def test_cli_verify_tower(capsys):
    code, out = run_cli(capsys, "verify", "tower", "--period", "3")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_extension_five(capsys):
    code, out = run_cli(capsys, "verify", "extension", "--period", "5")
    assert code == 0
    assert "lip-factor-is-one" in out


def test_cli_verify_out_holds_every_printed_row(tmp_path, capsys):
    path = tmp_path / "f.json"
    code, out = run_cli(capsys, "verify", "all", "--period", "5", "--out", str(path))
    assert code == 0
    printed = [line.split(": value=")[0].split(" ", 1) for line in out.splitlines()]
    doc = json.loads(path.read_text())
    assert doc["command"] == "verify"
    assert doc["results"]["passed"] is True
    checks = doc["results"]["checks"]
    assert len(checks) == len(printed) > 0
    assert [(c["name"], c["ok"]) for c in checks] == [(name, status == "PASS") for status, name in printed]
