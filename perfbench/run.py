#!/usr/bin/env python3
"""Repository benchmark: two seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload paper_k1_lockstep --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The run sets up its workload three
times (``setup_s`` is the one-off import time plus the median set-up),
then repeats the workload's fixed work list in rounds until the next
round would overrun ``--seconds``, with at least the workload's
``min_rounds``.  Every operation's output is checked by the workload's
oracle after its round, outside the timing, and every round must
reproduce the first round's simulated statistics exactly.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, the tracing overhead (traced
minus untraced ``wall_s``) and the unattributed remainder.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full reports, the span trace and the statistics record
go to ``.bench_out/``.  The exit code is 1 when any oracle or the
statistics check fails, 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread in this process and in every worker it spawns, so a
# run occupies at most its clients plus one pool worker on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("paper_k1_lockstep", "grid_pss_served")
SETUPS = 3

#: Units of the end-to-end metrics that are reported but not gated;
#: the gated metrics and their units come from ``BENCHMARK.json``.
SPECIFIC_UNITS = {"wall_p50_s": "s", "wall_best_s": "s", "op_p50_s": "s",
                  "op_tail_s": "s", "key_op_p50_s": "s", "key_op_best_s": "s",
                  "time_to_ci_s": "s",
                  "served_jobs_per_s": "1/s", "hit_p50_s": "s", "miss_p50_s": "s",
                  "error_rate": "ratio"}
COUNTS = {  # per-layer count -> simulated statistic of one round
    "devices.evaluations": "device_evaluations",
    "swec.accepted_steps": "march_points",
    "swec.rejected_steps": "rejected_steps",
    "core.factorizations": "factorizations",
    "core.linear_solves": "linear_solves",
    "core.factor_reuses": "factor_reuses",
    "pss.newton_iterations": "newton_iterations",
    "stochastic.paths_simulated": "paths_simulated",
    "service.payload_bytes": "payload_bytes",
}


def _arguments(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    import statistics

    return float(statistics.median(values)) if values else float("nan")


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _environment(workload) -> dict:
    import platform

    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    for part in workload.parts:
        if getattr(part, "clients", 0):
            env["load"] = (f"closed loop, {part.clients} clients, "
                           f"{part.WORKERS} process-pool worker")
    return env


def _make(name: str):
    """The workload: two of the four parts, one after the other."""
    from workloads import Composite, GridPSS, McLockstep, PaperK1

    if name == "paper_k1_lockstep":
        return Composite(name, [PaperK1(), McLockstep()], ("flipflop_fig9",))
    from served import McServed

    return Composite(name, [GridPSS(), McServed(ROOT)], ("pss_grid16",))


@dataclass
class Round:
    """One pass over the work list, and its spans when traced."""

    wall: float
    ops: list
    #: Seconds of each part's share of the round.
    parts: dict
    traced: bool
    #: Self seconds and calls per span name, and the seconds layer
    #: spans cover on any thread (see ``Tracer.collect``).
    self_seconds: dict
    calls: dict
    covered: float


def _rounds(workload, tally, tracer, args):
    """Run rounds of the work list until ``--seconds`` would be overrun."""
    from collections import Counter

    from tracer import Patcher, patch_layers
    from workloads import Runner

    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        patcher = Patcher()
        if traced:
            patch_layers(patcher, tracer.wrapper)
        runner = Runner(tally, tracer if traced else None)
        began = time.perf_counter()
        try:
            ops, parts = workload.round(runner, len(rounds))
        finally:
            wall = time.perf_counter() - began
            patcher.undo()
        runner.check()  # the oracles: neither timed nor traced
        spans = tracer.collect("bench.op") if traced else (Counter(), Counter(), 0.0)
        rounds.append(Round(wall, ops, parts, traced, *spans))
        elapsed = time.perf_counter() - start
        # A round with its oracles and, every other round, its trace.
        typical = elapsed / len(rounds)
        if len(rounds) >= workload.min_rounds and elapsed + typical > args.seconds:
            return rounds


def _round_stats(ops):
    from collections import Counter

    total = Counter()
    for op in ops:
        total.update(op.stats)
    return {key: value for key, value in sorted(total.items()) if value}


def _end_to_end(workload, rounds, import_s, setups):
    """Gated metrics and reported ones, each ``(value, samples, note)``.

    ``wall_s`` is the mean round.  Other tenants of a shared host slow
    its cores by up to a third, in stretches from milliseconds to
    minutes; over ten runs the mean round spread less than the median
    or the fastest round (see the README), which are reported beside it.
    """
    walls = [r.wall for r in rounds]
    wall = sum(walls) / len(walls)
    ops = [op for r in rounds for op in r.ops]
    latencies = [op.seconds for op in ops]
    tail, percentile, n = _tail(latencies)
    points = _round_stats(rounds[0].ops).get("march_points", 0)
    key = [op.seconds for op in ops if op.name in workload.key_ops]
    what = " + ".join(workload.key_ops)
    metrics = {
        "setup_s": (import_s + _median(setups), len(setups),
                    f"imports {import_s:.3f} s once + median of {len(setups)} set-ups"),
        "wall_s": (wall, len(walls), "mean round"),
        "steps_per_s": (points / wall, len(walls),
                        f"{points} march points x instances per round / wall_s"),
        "peak_rss_mb": (_peak_rss_mb(), 1, "this process + largest child"),
    }
    specific = {
        "wall_p50_s": (_median(walls), len(walls), "median round"),
        "wall_best_s": (min(walls), len(walls), "fastest round"),
        "op_p50_s": (_median(latencies), n, "all operations"),
        "op_tail_s": (tail, n, f"p{percentile:.1f}, 10 samples beyond" if n > 10
                      else "max: fewer than 11 samples"),
        "key_op_p50_s": (_median(key), len(key), f"median {what}"),
        "key_op_best_s": (min(key), len(key), f"fastest {what}"),
    }
    vr = [op.seconds for op in ops if op.kind == "vr"]
    if vr:
        specific["time_to_ci_s"] = (_median(vr), len(vr), "VR runs to target CI")
    served = [part for part in workload.parts if getattr(part, "clients", 0)]
    if served:
        done = [op for op in ops if op.kind in ("hit", "miss") and op.problem is None]
        for kind in ("hit", "miss"):
            values = [op.seconds for op in ops if op.kind == kind]
            specific[f"{kind}_p50_s"] = (_median(values), len(values),
                                         f"{kind} submissions")
        busy = sum(r.parts[served[0].name] for r in rounds)
        specific["served_jobs_per_s"] = (len(done) / busy, len(walls),
                                         f"{served[0].clients}-client closed loop")
    return metrics, specific


def _op_p50s(ops) -> dict:
    """``{operation name: (median seconds, samples)}``."""
    by_name: dict = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op.seconds)
    return {name: (_median(values), len(values)) for name, values in by_name.items()}


def _per_layer(rounds):
    """``{metric: (value, samples)}``: self times and span counts are
    medians over traced rounds, simulated statistics are per round."""
    from tracer import self_time_metrics

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]

    def per_traced(value):
        return _median([value(r) for r in traced]), len(traced)

    ops = rounds[0].ops
    stats = _round_stats(ops)
    metrics = {}
    for name, spans in self_time_metrics().items():
        metrics[name] = per_traced(
            lambda r, spans=spans: sum(r.self_seconds.get(s, 0.0) for s in spans))
    # Round wall time that no layer span covers on any thread.
    metrics["trace.unattributed_s"] = per_traced(lambda r: r.wall - r.covered)
    metrics["trace.overhead_s"] = (
        per_traced(lambda r: r.wall)[0] - _median([r.wall for r in untraced]),
        len(traced))
    metrics["trace.spans"] = per_traced(lambda r: sum(r.calls.values()))
    metrics["devices.chord_calls"] = per_traced(
        lambda r: r.calls.get("devices.chord", 0))
    for name, key in COUNTS.items():
        metrics[name] = (stats.get(key, 0), len(rounds))
    accepted = stats.get("march_points", 0)
    attempted = accepted + stats.get("rejected_steps", 0)
    metrics["swec.accept_ratio"] = (
        accepted / attempted if attempted else 0.0, len(rounds))
    reductions = [op.extra["variance_reduction"] for op in ops
                  if "variance_reduction" in op.extra]
    metrics["stochastic.variance_reduction"] = (
        sum(reductions) / len(reductions) if reductions else 0.0, len(reductions))
    daemon = next((op.extra for op in ops if "service.executed" in op.extra), {})
    for counter in ("cache_hits", "executed", "coalesced", "failed"):
        name = f"service.{counter}"
        metrics[name] = (daemon.get(name, 0), len(rounds))
    submissions = sum(op.kind in ("hit", "miss") for op in ops)
    metrics["service.hit_ratio"] = (
        stats.get("cache_hits", 0) / submissions if submissions else 0.0, len(rounds))
    return metrics


def _check_statistics(workload, seed, rounds) -> list[str]:
    """Every round, and any earlier run of the same code and seed, must
    give identical simulated statistics."""
    import json

    problems = []
    first = _round_stats(rounds[0].ops)
    for index, later in enumerate(rounds[1:], start=1):
        if _round_stats(later.ops) != first:
            problems.append(f"round {index} statistics differ from round 0")
    record = ROOT / ".bench_out" / "stats" / f"{workload.name}-s{seed}.json"
    digest = _source_digest()
    if record.exists():
        previous = json.loads(record.read_text())
        if previous.get("source") == digest and previous.get("stats") != first:
            problems.append(f"statistics differ from an earlier run ({record.name})")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"source": digest, "stats": first}, indent=1))
    return problems


def _run_all(args) -> int:
    """Run every workload in its own process, one after the other; the
    last line sums the runs, with metrics named ``<workload>.<metric>``."""
    import json
    import subprocess

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] &= done.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from tracer import LAYERS, Patcher, Tracer, patch_layers
    from workloads import MarchTally

    workload = _make(args.workload)
    import_s = time.perf_counter() - T0

    import signal

    # A terminated run still stops the daemon and its worker (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tally, counting = MarchTally(), Patcher()
    tally.install(counting)
    tracer = Tracer()
    if args.trace:
        # Import every traced module up front so no first-use import
        # lands inside a traced round; the probe is undone at once.
        probe = Patcher()
        patch_layers(probe, tracer.wrapper)
        probe.undo()
    setups = []
    try:
        for index in range(SETUPS):
            if index:
                workload.close()
            began = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - began)
        rounds = _rounds(workload, tally, tracer, args)
    finally:
        workload.close()
        counting.undo()

    ops = [op for r in rounds for op in r.ops]
    failures = [f"{op.name}: {op.problem}" for op in ops if op.problem]
    problems = _check_statistics(workload, args.seed, rounds)
    correct = not failures and not problems
    untraced = [r for r in rounds if not r.traced]
    untraced_ops = [op for r in untraced for op in r.ops]
    e2e, specific = _end_to_end(workload, untraced, import_s, setups)
    specific["error_rate"] = (len(failures) / len(ops), len(ops),
                              "failed or wrong / attempted")
    layers = _per_layer(rounds) if args.trace else {}

    env = _environment(workload)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} ({len(untraced)} untraced) ops={len(ops)} | "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(SPECIFIC_UNITS)
    for name, (value, n, note) in {**e2e, **specific}.items():
        print(f"{name:<22} {value:>14.6g} {units[name]:<5} n={n:<4} {note}")
    op_p50s = _op_p50s(untraced_ops)
    for name, (value, n) in op_p50s.items():
        print(f"{'op_p50[' + name + ']':<30} {value:>14.6g} s     n={n}")
    for name, (value, n) in layers.items():
        print(f"{name:<30} {value:>14.6g} {units[name]:<5} n={n}")
    for line in failures + problems:
        print(f"FAIL {line}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        tracer.write(out / f"trace-{args.workload}-s{args.seed}.npz")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "rounds": [r.wall for r in rounds],
        "parts": [r.parts for r in rounds],
        "end_to_end": {k: {"value": v, "samples": n, "note": note}
                       for k, (v, n, note) in {**e2e, **specific}.items()},
        "per_layer": {k: {"value": v, "samples": n, "unit": units[k]}
                      for k, (v, n) in layers.items()},
        "op_p50_by_name": {k: {"value": v, "samples": n}
                           for k, (v, n) in op_p50s.items()},
        "layers": {layer.name: layer.targets for layer in LAYERS},
        "statistics": _round_stats(rounds[0].ops),
        "operations": [{"name": op.name, "seconds": op.seconds, "kind": op.kind,
                        "problem": op.problem} for op in ops],
        "failures": failures + problems,
    }
    (out / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layers if args.trace else e2e
    metrics = {m["name"]: {"value": float(measured[m["name"]][0]), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
