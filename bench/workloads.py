"""The three benchmark workloads: seeded inputs, the operation, its oracle.

Each workload runs as a closed loop with one client: the next operation
starts when the previous one has finished and been checked.  Inputs come
in decks, fixed multisets shuffled or drawn by the seed, so that every run
times the same mix of operation classes and a median or tail never sits on
a boundary that moves with the seed.

A run times --seconds / deck_seconds whole decks.  deck_seconds is a
deck's wall time, with its checks and speed probes, at the commit that
introduced the benchmark (2 vCPUs, Python 3.11.7, numpy 2.4.6), so there
a run measures about --seconds, and a parent and a change time the same
inputs for the same seed.  A fresh set-up process runs after every
setup_every operations, 17-26 per run of 30 seconds.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys

import oracle

LIGHT_COMMANDS = [
    [*cmd, "--period", p]
    for p in ("3", "5")
    for cmd in (
        ["solve"],
        ["feasible"],
        ["tower"],
        ["extend"],
        ["plotdata", "scaling"],
        ["plotdata", "returnmap"],
        ["plotdata", "cobweb"],
        ["plotdata", "tower"],
        ["plotdata", "extension"],
    )
]
VERIFY_P3 = ["verify", "all", "--period", "3"]
VERIFY_P5 = ["verify", "all", "--period", "5"]
# Light commands take 0.3-0.5 s of CPU as processes, `verify all --period 5`
# about as long, `horseshoe` about 1 s and `verify all --period 3` about 1.8 s.
# 19 of 26 operations in the light range put op_p50_s inside it; four verify
# p3 per verify p5 put the median of the verify class among the p3 runs, with
# enough of them for a steady median.  The eight verify p3 runs of two decks
# are the slowest, so the 11th-slowest, op_tail_s, is the middle one of the
# six horseshoe runs.
CLI_DECK = LIGHT_COMMANDS + [VERIFY_P5] + [VERIFY_P3] * 4 + [["horseshoe"]] * 3
CLI_TIMEOUT_S = 120


def run_cli(argv, child_env, cwd):
    """One cli-mix command as a fresh `python -m renorm.cli` process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "renorm.cli", *argv],
        cwd=cwd,
        env=child_env,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def distinct_commands():
    seen = {}
    for argv in CLI_DECK:
        seen.setdefault(oracle.command_key(argv), argv)
    return list(seen.values())


class CliMix:
    """A seeded shuffle of real commands, each a fresh `python -m renorm.cli`."""

    name = "cli-mix"
    setup_module = "renorm.cli"
    deck_seconds = 19.0
    setup_every = 3
    trace_decks = 1
    in_process = False  # the traced run calls renorm.cli.main in-process

    def __init__(self, renorm, child_env, cwd):
        self.child_env = child_env
        self.cwd = cwd
        self.references = oracle.load_reference_outputs()
        from renorm import cli

        self.cli = cli

    def warm_up(self, tally):
        pass

    def decks(self, seed):
        rng = random.Random(seed)
        while True:
            deck = list(CLI_DECK)
            rng.shuffle(deck)
            yield deck

    def long_chain(self, argv) -> bool:
        """`verify all` re-solves the fixed point 4-5 times per process."""
        return argv[0] == "verify"

    def run(self, argv, rec):
        if not self.in_process:
            return run_cli(argv, self.child_env, self.cwd)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with rec.span("cli.main"):
                code = self.cli.main(list(argv))
        return code, out.getvalue().encode()

    def check(self, argv, result, tally) -> bool:
        code, stdout = result
        return oracle.check_cli(argv, code, stdout, self.references, tally)


class SolveEps:
    """One eps-perturbed fixed-point solve per operation, eps ~ U[0.96, 1.04]."""

    name = "solve-eps"
    setup_module = "renorm"
    deck_seconds = 1.4
    setup_every = 24
    trace_decks = 2
    DECK = 30

    def __init__(self, renorm, child_env, cwd):
        self.renorm = renorm

    def warm_up(self, tally):
        """Solve the inputs that have a 50-digit reference, outside the timing."""
        for eps in (0.98, 1.0, 1.02):
            rep = self.renorm.solve_fixed_point_eps(eps)
            ok = oracle.check_eps_fixed_point(self.renorm, eps, rep.c_star, rep.expanding)
            tally.record(ok and tally.c_star(3, eps, rep.c_star))
        rep = self.renorm.solve_fixed_point(self.renorm.Period.FIVE)
        tally.record(tally.c_star(5, 1.0, rep.c_star))

    def decks(self, seed):
        rng = random.Random(seed)
        while True:
            yield [rng.uniform(0.96, 1.04) for _ in range(self.DECK)]

    def long_chain(self, eps) -> bool:
        return True  # a single operation class

    def run(self, eps, rec):
        with rec.span("solver.solve_fixed_point_eps"):
            rep = self.renorm.solve_fixed_point_eps(eps)
        return rep

    def check(self, eps, rep, tally) -> bool:
        return oracle.check_eps_fixed_point(self.renorm, eps, rep.c_star, rep.expanding)


class Horseshoe:
    """Branch systems on seeded eps triples, with one 5-letter system per deck."""

    name = "horseshoe"
    setup_module = "renorm"
    deck_seconds = 1.8
    setup_every = 3
    trace_decks = 3
    N_WORDS = 4
    WORD_LEN = 10
    SYMBOL_WORD_LEN = 6

    def __init__(self, renorm, child_env, cwd):
        from renorm import horseshoe as hs
        from renorm.pwa import shift_residual

        self.hs = hs
        self.shift_residual = shift_residual

    def warm_up(self, tally):
        """Build the reference system (1.02, 1, 0.98), outside the timing."""
        b = self.hs.build_branch_system(1.02, 1.0, 0.98)
        ok = True
        for eps, c in zip(b.epsilons, b.fixed_points):
            ok &= tally.c_star(3, eps, c)
        tally.record(ok)

    def _draw(self, rng, alphabet):
        mid = rng.uniform(0.99, 1.01)
        if alphabet == 3:
            step = rng.uniform(0.01, 0.03)
            eps = tuple(mid + k * step for k in (1, 0, -1))
            n_max = 8
        else:
            step = rng.uniform(0.005, 0.015)
            eps = tuple(mid + k * step for k in (2, 1, 0, -1, -2))
            n_max = 5
        words = [
            tuple(rng.randrange(alphabet) for _ in range(self.WORD_LEN))
            for _ in range(self.N_WORDS)
        ]
        symbol_word = tuple(rng.randrange(alphabet) for _ in range(self.SYMBOL_WORD_LEN))
        return eps, n_max, words, symbol_word

    def decks(self, seed):
        rng = random.Random(seed)
        while True:
            deck = [self._draw(rng, alphabet) for alphabet in (3, 3, 5)]
            rng.shuffle(deck)
            yield deck

    def long_chain(self, inp) -> bool:
        """5-letter systems solve five fixed points, 3-letter ones three."""
        return len(inp[0]) == 5

    def run(self, inp, rec):
        hs = self.hs
        eps, n_max, words, symbol_word = inp
        m = len(eps)
        with rec.span("horseshoe.build_branch_system"):
            b = hs.build_branch_system(*eps)
        counts = []
        for n in range(1, n_max + 1):
            with rec.span("horseshoe.cylinder_count"):
                counts.append(hs.cylinder_count(b, n))
        residuals = []
        for w in words:
            with rec.span("horseshoe.code_to_point"):
                residuals.append(hs.code_to_point(b, hs.Word(w, m), len(w)).residual)
        with rec.span("horseshoe.symbol_scaling_sequence"):
            seq = hs.symbol_scaling_sequence(b, hs.Word(symbol_word, m))
        with rec.span("pwa.shift_residual"):
            shift = self.shift_residual(seq, len(symbol_word)).sup_norm
        return counts, residuals, shift

    def check(self, inp, result, tally) -> bool:
        counts, residuals, shift = result
        return oracle.check_horseshoe(len(inp[0]), counts, residuals, shift)


WORKLOADS = {w.name: w for w in (CliMix, SolveEps, Horseshoe)}
