"""Benchmark of the renorm package: three seeded workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics of
BENCHMARK.json; --trace 1 makes the separate traced run and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The package is imported from src/ of the checkout;
without it the benchmark exits with code 2 and prints no result.
See bench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import oracle
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
TIME_CAP = 1.6  # times --seconds
PROBE_RUNS = 5
# Median CPU time of calibrate() on the reference machine (2 vCPUs, Python
# 3.11.7, numpy 2.4.6).  Timings are reported in seconds at that machine speed.
PROBE_NOMINAL_S = 6.5e-4
LAYERS = ("quadratic", "scaling", "solver", "tower", "pwa", "extension",
          "horseshoe", "verify", "report", "cli")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment():
    """Re-execute the running script under pinned thread counts and hash seed, once."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(sys.argv[0]).resolve()), *sys.argv[1:]], env)


def fail(message: str, code: int):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    if not (SRC / "renorm" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'renorm'}", 2)
    sys.path.insert(0, str(SRC))
    import renorm

    if Path(renorm.__file__).resolve().parent != SRC / "renorm":
        fail(f"renorm was imported from {renorm.__file__}, not from {SRC}", 2)
    return renorm


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, \
        {m["name"]: m["unit"] for m in spec["per_layer"]}, \
        [w["name"] for w in spec["workloads"]]


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its finished children.

    Operations and set-up are timed on this clock.  The program is
    single-threaded and CPU-bound, so on an idle machine its CPU time is its
    wall time; on a shared one, wall time adds the time it waits for a CPU
    that other tenants hold, which is up to 3x a 40 ms solve.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def fresh_python(args, env):
    """CPU seconds of a fresh interpreter, from spawn to exit, and its result."""
    start = cpu_seconds()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    elapsed = cpu_seconds() - start
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited with {proc.returncode}: {proc.stderr.decode()[-500:]}", 1)
    return elapsed, proc


def calibrate():
    """Fixed scalar-Python and small-array numpy work, independent of renorm."""
    import numpy as np

    x = 0.3
    for _ in range(3000):
        x = 3.9 * x * (1.0 - x)
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(60):
        a = np.sqrt(a * a + 1e-3) * 0.5
    return x + float(a[0])


def probe() -> float:
    """The machine's present speed: median CPU seconds of calibrate()."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.process_time()
        calibrate()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def at_nominal_speed(seconds, probes):
    """Scale each timing by the mean of the probes just before and after it.

    The machine's speed drifts by up to 1.7x over seconds to minutes when
    other tenants load it, and the drift moves every timing alike; a probe
    of fixed work on either side of each timing measures and removes it.
    """
    return [t * PROBE_NOMINAL_S / (0.5 * (before + after))
            for t, before, after in zip(seconds, probes, probes[1:])]


def measure_imports(module, env):
    runs = [tracing.parse_importtime(fresh_python(["-X", "importtime", "-c", f"import {module}"], env)[1]
                                     .stderr.decode()) for _ in range(IMPORTTIME_RUNS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class Sample(NamedTuple):
    raw: float       # CPU seconds of the operation's calls, not its check
    latency: float   # raw, at nominal machine speed
    wall: float      # wall seconds of the same calls
    chain: bool      # in the workload's longest-chain class
    ok: bool


def checked(workload, inp, result, tally) -> bool:
    """The workload's oracle; an exception in it counts as a failed operation."""
    try:
        return workload.check(inp, result, tally)
    except Exception:
        traceback.print_exc()
        return False


def run_ops(workload, seed, n_decks, rec, tally, time_cap=math.inf, on_op=None, setup=None):
    """Closed loop over n_decks whole decks.

    Returns one Sample per operation and the list of set-up samples, each
    a pair (raw, at nominal speed) of seconds.  When setup is given, it is
    called after every workload.setup_every operations, so set-up is timed
    throughout the run and shares its speed probes.  The loop also stops
    after the deck during which time_cap seconds passed outside set-up, so
    that a much slower program still ends in time.
    """
    timings, probes, ops = [], [probe()], []  # a probe between any two timings
    start, setup_wall = time.perf_counter(), 0.0
    for deck_no, deck in zip(range(n_decks), workload.decks(seed)):
        for inp in deck:
            if on_op:
                on_op()
            t0, w0 = cpu_seconds(), time.perf_counter()
            try:
                with rec.op(len(ops), workload.name):
                    result = workload.run(inp, rec)
            except Exception:  # a failed operation is counted, the run goes on
                raw, wall = cpu_seconds() - t0, time.perf_counter() - w0
                traceback.print_exc()
                ok = False
            else:
                raw, wall = cpu_seconds() - t0, time.perf_counter() - w0
                ok = checked(workload, inp, result, tally)
            probes.append(probe())
            tally.record(ok)
            ops.append((len(timings), wall, workload.long_chain(inp), ok))
            timings.append(raw)
            if setup and len(ops) % workload.setup_every == 0:
                w0 = time.perf_counter()
                timings.append(setup())
                setup_wall += time.perf_counter() - w0
                probes.append(probe())
        if deck_no + 1 < n_decks and time.perf_counter() - start - setup_wall > time_cap:
            print(f"time cap of {time_cap:.0f} s reached after {deck_no + 1} of {n_decks} decks")
            break
    print(f"loop: {len(ops)} operations in {deck_no + 1} decks, "
          f"{time.perf_counter() - start - setup_wall:.2f} s outside set-up")
    scaled = at_nominal_speed(timings, probes)
    op_index = {i for i, *_ in ops}
    setups = [(timings[i], scaled[i]) for i in range(len(timings)) if i not in op_index]
    return [Sample(timings[i], scaled[i], *rest) for i, *rest in ops], setups


def ops_per_s(samples):
    return sum(s.ok for s in samples) / sum(s.latency for s in samples)


def write_out(name, data):
    """Keep the traced run's spans next to the checkout, outside the sources."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / name, "w") as fh:
        json.dump(data, fh)


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], f"max of {len(s)} samples (fewer than {TAIL_BEYOND + 1})"
    k = len(s) - TAIL_BEYOND - 1
    return s[k], f"p{100.0 * (k + 1) / len(s):.1f} of {len(s)} samples, {TAIL_BEYOND} beyond"


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(workload, args, env, tally):
    setup_argv = ["-c", f"import {workload.setup_module}"]
    fresh_python(setup_argv, env)  # writes bytecode caches
    workload.warm_up(tally)
    n_decks = max(1, round(args.seconds / workload.deck_seconds))
    samples, setups = run_ops(workload, args.seed, n_decks, tracing.NullRecorder(), tally,
                              time_cap=TIME_CAP * args.seconds,
                              setup=lambda: fresh_python(setup_argv, env)[0])
    latencies = [s.latency for s in samples]
    raw = [s.raw for s in samples]
    wall = [s.wall for s in samples]
    chain = [s for s in samples if s.chain]
    op_tail_s, tail_note = tail(latencies)
    metrics = {
        "ops_per_s": ops_per_s(samples),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": op_tail_s,
        "chain_p50_s": statistics.median(s.latency for s in chain),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": statistics.median(nominal for _, nominal in setups),
    }
    notes = {
        "ops_per_s": f"{len(samples)} operations in {sum(latencies):.3f} s; "
                     f"raw CPU {sum(raw):.3f} s, wall {sum(wall):.3f} s",
        "op_p50_s": f"raw CPU {statistics.median(raw):.6g}, wall {statistics.median(wall):.6g}",
        "op_tail_s": f"{tail_note}; raw CPU {tail(raw)[0]:.6g}, wall {tail(wall)[0]:.6g}",
        "chain_p50_s": f"{len(chain)} operations in the longest-chain class; "
                       f"raw CPU {statistics.median(s.raw for s in chain):.6g}, "
                       f"wall {statistics.median(s.wall for s in chain):.6g}",
        "setup_s": f"median of {len(setups)} fresh `import {workload.setup_module}`, one after "
                   f"every {workload.setup_every} operations; "
                   f"raw CPU {statistics.median(raw for raw, _ in setups):.6g}",
    }
    return metrics, notes


def traced(workload, args, env, tally):
    from renorm import horseshoe, solver

    imports = measure_imports(workload.setup_module, env)
    workload.in_process = True
    workload.warm_up(tally)
    plain, _ = run_ops(workload, args.seed, workload.trace_decks, tracing.NullRecorder(), tally)

    rec = tracing.Recorder()
    solves, inversions = tracing.SolveInputs(), tracing.InversePoints()
    solves.install(solver)
    inversions.install(horseshoe)
    try:
        samples, _ = run_ops(workload, args.seed, workload.trace_decks, rec, tally,
                             on_op=solves.new_op)
    finally:
        solves.uninstall()
        inversions.uninstall()

    prof = tracing.LayerProfile(rec.profile, SRC / "renorm", BENCH_DIR)
    self_s = prof.self_times()
    n = len(samples)
    op_s = rec.op_seconds()
    metrics = {
        "import.numpy_s": imports["numpy"],
        "import.jsonschema_s": imports["jsonschema"],
        "import.renorm_s": imports["renorm"],
        "report.write_s": prof.cumulative("report", "write_report", "to_csv") / n,
        "report.calls": prof.calls("report", "write_report", "to_csv") / n,
        "solver.solve_calls": solves.calls / n,
        "solver.solve_unique_ratio": solves.unique_ratio,
        "solver.solve_s": prof.cumulative("solver", "solve_fixed_point", "solve_fixed_point_eps") / n,
        "scaling.feasible_domain_s": prof.cumulative("scaling", "feasible_domain") / n,
        "scaling.feasible_domain.calls": prof.calls("scaling", "feasible_domain") / n,
        "scaling.return_map.calls": prof.calls("scaling", "return_map") / n,
        "scaling.return_map.horseshoe_calls":
            prof.calls_from("scaling", "return_map", "horseshoe") / n,
        "horseshoe.build_branch_system_s": prof.cumulative("horseshoe", "build_branch_system") / n,
        "horseshoe.cylinder_count_s": prof.cumulative("horseshoe", "cylinder_count") / n,
        "horseshoe.coding_s": prof.cumulative("horseshoe", "code_to_point", "coded_orbit") / n,
        "horseshoe.inverse_points": inversions.points / n,
        "tower.build_tower_s": prof.cumulative("tower", "build_tower") / n,
        "pwa.build_pwa_s": prof.cumulative("pwa", "build_pwa") / n,
        "pwa.residual_s": prof.cumulative("pwa", "fixed_residual", "shift_residual") / n,
        "extension.extend_s": prof.cumulative("extension", "extend") / n,
        **{f"{layer}.self_s": self_s.get(layer, 0.0) / n for layer in LAYERS},
        "harness.self_s": self_s.get(tracing.HARNESS, 0.0) / n,
        "trace.op_s": op_s / n,
        "trace.self_coverage_frac": sum(self_s.get(layer, 0.0) for layer in LAYERS) / op_s,
        "tracing_overhead_frac": 1.0 - ops_per_s(samples) / ops_per_s(plain),
    }
    notes = {
        "horseshoe.inverse_points": "computed: summed sizes of the arrays inverted",
        "tracing_overhead_frac": f"{len(plain)} operations untraced, then traced",
        "trace.self_coverage_frac": "renorm layers' self time over traced operation time; "
                                    "the rest is harness.self_s and profiler gaps",
    }
    write_out(f"spans-{workload.name}-seed{args.seed}.json", rec.spans)
    return metrics, notes


def pin_cpu():
    """Run on one CPU, and so does every child process.

    The speed probes then time the CPU that the operations run on.  Left to
    the scheduler, a cli-mix child often ran on the other CPU of the two,
    and the spread of op_p50_s over five seeds was 0.16 where pinned it was 0.05.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    args = parse_args()
    pin_environment()
    pin_cpu()
    renorm = import_package()
    e2e_units, layer_units, workload_names = declared_metrics()
    import numpy

    if args.workload not in WORKLOADS or args.workload not in workload_names:
        fail(f"unknown workload {args.workload!r}; choose from {workload_names}", 2)
    env = child_env()
    print("env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        **{k: os.environ[k] for k in PINNED_ENV},
    }, sort_keys=True))

    references = oracle.load_reference_outputs()
    _, report = fresh_python(["-m", "renorm.cli", "solve", "--period", "3"], env)
    controls_ok = oracle.negative_controls(renorm, report.stdout, references)

    workload = WORKLOADS[args.workload](renorm, env, ROOT)
    tally = oracle.Tally()
    if args.trace:
        metrics, notes = traced(workload, args, env, tally)
        units = layer_units
    else:
        metrics, notes = end_to_end(workload, args, env, tally)
        units = e2e_units
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", 1)

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(f"error_rate = {tally.error_rate:.6g}  ({tally.failed} of {tally.attempted} failed)")
    print(f"c_star_err = {tally.c_star_err:.3g}  (bound {oracle.C_STAR_TOL:g}, "
          f"{tally.c_star_checked} outputs with a 50-digit reference)")
    correct = (
        controls_ok
        and tally.failed == 0
        and tally.c_star_checked > 0
        and tally.c_star_err <= oracle.C_STAR_TOL
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
