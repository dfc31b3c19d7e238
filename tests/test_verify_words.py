"""verify's random words: `verify._draws` is numpy's
`default_rng(seed).integers(0, bound)` stream bit for bit, drawn without
numpy, and the horseshoe suite reads it in numpy's order."""

import itertools

import numpy as np
import pytest

from renorm import verify as ver
from renorm.cli import main
from renorm.scaling import Period

# seeds of one to five 32-bit words, either side of 2**32 and 2**64; the
# pool holds four, so the fifth word of 2**130 + 7 is mixed in after it
SEEDS = [*range(200), 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 3, 2**97 + 12345, 2**130 + 7]
# horseshoe_suite's runs, in its order: 5 words of 8, 3 suffixes of 6, then
# 20 words of 6 (5 of them at the quick depth)
RUNS = [8] * 5 + [6] * 3 + [6] * 20


def numpy_runs(seed, bound, sizes):
    rng = np.random.default_rng(seed)
    return [[int(x) for x in rng.integers(0, bound, size=n)] for n in sizes]


def draws_runs(seed, bound, sizes):
    draws = ver._draws(seed, bound)
    return [list(itertools.islice(draws, n)) for n in sizes]


@pytest.mark.parametrize("bound", [2, 3, 5, 7])
def test_the_draws_are_numpys_stream_in_the_suites_runs(bound):
    for seed in SEEDS:
        assert draws_runs(seed, bound, RUNS) == numpy_runs(seed, bound, RUNS), seed


@pytest.mark.parametrize("bound", [2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
def test_the_draws_redraw_as_numpy_does(bound):
    # Lemire's threshold, (2**32 - bound) % bound, is 2**31 - 1 and 2**30
    # at the first two bounds, so some draws are refused and redrawn: the
    # first 68 draws differ from those of the first 68 32-bit halves of
    # numpy's raw PCG64 output taken one each; at 2**32 - 1 and 2**32 it
    # is 1 and 0, and none is refused
    refused = False
    for seed in SEEDS[:20] + SEEDS[-4:]:
        sizes = [8, 6, 50, 1, 3]
        assert draws_runs(seed, bound, sizes) == numpy_runs(seed, bound, sizes), seed
        raw = np.random.PCG64(seed).random_raw(34)
        halves = [int(h) for x in raw for h in (x & 0xFFFFFFFF, x >> 32)]
        unrefused = [h * bound >> 32 for h in halves[:68]]
        refused |= list(itertools.islice(ver._draws(seed, bound), 68)) != unrefused
    assert refused is (bound < 2**32 - 1)


def test_a_negative_seed_is_refused_with_numpys_text():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        ver._draws(-1, 3)  # at the call, before the first draw


@pytest.mark.parametrize("seed", [None, 1.5, "7", [1, 2], np.array([1, 2]), np.random.SeedSequence(7)],
                         ids=["None", "float", "str", "list", "array", "SeedSequence"])
def test_a_seed_that_is_no_int_is_a_type_error(seed):
    # numpy takes each of these but the float and the str; verify takes none
    with pytest.raises(TypeError):
        ver._draws(seed, 3)
    with pytest.raises(TypeError):
        ver.horseshoe_suite(None, seed)  # refused before the suite reads rep


def test_a_numpy_integer_seed_draws_as_its_int():
    assert draws_runs(np.uint64(2**40 + 7), 3, RUNS) == draws_runs(2**40 + 7, 3, RUNS)


@pytest.mark.parametrize("seed, quick", [(0, True), (7, True), (2**40 + 7, True), (123456789, False)])
def test_the_horseshoe_suite_reads_numpys_words(monkeypatch, seed, quick):
    # the same rows with numpy's generator in place of _draws
    rows = ver.run_suite("horseshoe", Period.THREE, seed, quick)
    monkeypatch.setattr(
        ver, "_draws", lambda s, bound: iter(np.random.default_rng(s).integers(0, bound, size=sum(RUNS)).tolist())
    )
    assert ver.run_suite("horseshoe", Period.THREE, seed, quick) == rows


def test_verify_horseshoe_refuses_a_negative_seed_as_a_usage_error(capsys):
    assert main(["verify", "horseshoe", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "usage error: expected non-negative integer\n")


@pytest.mark.parametrize("period", ["3", "5"])
@pytest.mark.parametrize("suite", ["all", "tower", "pwa", "extension", "horseshoe"])
def test_every_verify_suite_refuses_a_negative_seed(suite, period, capsys, tmp_path):
    # before any suite runs, whichever suite reads the seed, from the flag
    # or from a config file, and no report is written
    out = tmp_path / "report.json"
    assert main(["verify", suite, "--period", period, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "usage error: expected non-negative integer\n")
    config = tmp_path / "config.json"
    config.write_text('{"seed": -5}')
    assert main(["verify", suite, "--period", period, "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "usage error: expected non-negative integer\n")
    assert not out.exists()
