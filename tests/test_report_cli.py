import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import renorm
from renorm import report as rpt
from renorm.cli import main
from renorm.solver import NoRoot
from reference_values import C3_6DP, C5_6DP, FD3_6DP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_float_serialization_roundtrip():
    doc = rpt.make_report("solve", {}, {"x": 0.1 + 0.2, "y": [1e-300, 3.14], "flag": True})
    text = rpt.to_json(doc)
    back = json.loads(text)
    assert back["results"]["x"] == 0.1 + 0.2
    assert back["results"]["y"][0] == 1e-300
    assert back["results"]["flag"] is True


def test_report_schema_validation():
    with pytest.raises(Exception):
        rpt.validate_report({"command": "solve"})  # missing provenance/results
    doc = rpt.make_report("solve", {"period": 3}, {"c_star": 0.44})
    rpt.validate_report(doc)
    assert doc["provenance"]["version"] == renorm.__version__ == "0.1.0"
    for key, bad in (("tool", "other"), ("schema_version", 2), ("config", [])):
        broken = dict(doc, provenance=dict(doc["provenance"], **{key: bad}))
        with pytest.raises(Exception):
            rpt.validate_report(broken)


def test_atomic_write(tmp_path):
    path = tmp_path / "out.json"
    rpt.atomic_write(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert [p for p in os.listdir(tmp_path)] == ["out.json"]


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
    # a header-only CSV is no plot
    assert run_cli(capsys, "plotdata", kind, "--period", "3", "--grid", grid) == (2, "")


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


BENCH_REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "reference_outputs.json"


@pytest.mark.parametrize(
    "command",
    [
        "extend --period 3",
        "extend --period 5",
        "plotdata extension --period 3",
        "plotdata extension --period 5",
        "verify all --period 5",
    ],
)
def test_cli_output_matches_recorded_digest(capsys, command):
    # the benchmark's recorded stdout digests, checked in-process
    with open(BENCH_REFERENCES) as fh:
        reference = json.load(fh)[command]
    code, out = run_cli(capsys, *command.split())
    data = out.encode()
    assert code == 0
    assert {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)} == reference


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
        (["plotdata", "scaling"], {"period": 5, "tol": 1e-12, "grid": 40}),
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


def test_cli_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2


def test_cli_bad_tolerance_is_usage_error(capsys):
    assert main(["solve", "--period", "3", "--tol", "1e-20"]) == 2
    assert main(["solve", "--period", "3", "--tol", "nan"]) == 2
    assert main(["feasible", "--period", "3", "--step", "0.2"]) == 2


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    import renorm.cli as cli_mod

    def boom(*args, **kwargs):
        raise NoRoot("forced")

    monkeypatch.setattr(cli_mod, "solve_fixed_point", boom)
    assert main(["solve", "--period", "3"]) == 3


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import renorm.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.ver, "run_suite",
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
