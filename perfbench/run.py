"""torsionlab benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each was chosen): homology-large,
nerve-cover, verify-batches.  The loop is closed, with one client: ops run
in this process, one at a time.  Children (the set-up and import probes)
run one at a time while this process waits, so at most two processes
exist; while a set-up probe runs, both are pinned to one CPU (see speed.py).

A run does a fixed number of whole rounds, sized so that they take about
--seconds at the seed commit; the same seed and seconds give the same ops.
The default seed is DEFAULT_SEED; HELD_OUT_SEED is kept out of tuning and
reserved for confirming a claimed gain.

--trace 0 prints the end-to-end metrics setup_s, ops_per_s, op_p50_ms and
peak_rss_mb, then op_tail_ms and failed_ratio, which are printed but not in
the JSON result: failed_ratio is 0 on most workloads, and op_tail_ms falls
to p50 on every workload of fewer than 101 ops.  Times are scaled to the
reference host speed (see speed.py), with the raw wall figure beside each.
op_p50_ms is the median latency of each op kind, averaged geometrically
over the kinds, so each kind counts however often it runs.  op_tail_ms is the highest percentile
with at least 10 ops beyond it; the output names the percentile and n.
--trace 1 runs the same ops untraced and then traced, and prints the
per-layer self times and counts; spans go to .bench_build/perfbench/ as
JSONL.  Every answer is checked; a wrong answer exits 1.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import spans
import speed
import stats
import workloads

ROOT = workloads.ROOT
SRC = workloads.SRC
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_PROBES = 5
BLOCK_NS = 50_000_000  # least wall time of a block of ops scaled together
IMPORT_PROBES = 3
IMPORT_PROBE_CODE = ("import time; t = time.perf_counter(); import torsionlab.cli; "
                     "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: build the inputs, print 'ready' and exit")
    parser.add_argument("--prepare", action="store_true",
                        help="internal: crosscheck the fixed inputs once per checkout")
    return parser.parse_args(argv)


@dataclass
class Timing:
    latencies: list[int] = field(default_factory=list)  # wall ns per op
    scaled: list[float] = field(default_factory=list)  # ns at reference host speed
    failures: list[tuple] = field(default_factory=list)  # (index, op name, exception)
    outputs: list = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled) / 1e9

    @property
    def wall_s(self) -> float:
        return sum(self.latencies) / 1e9


def run_ops(ops, tracer=None) -> Timing:
    """Call every op in order.

    Untraced, the host speed is sampled while the ops run (speed.py): ops
    are taken in blocks of at least BLOCK_NS of wall time, and a block's
    latencies are scaled by the samples that fell inside it.  Traced, the
    sampler stays off, so that it adds nothing to the spans.
    """
    timing = Timing()
    with contextlib.ExitStack() as stack:
        sampler = None if tracer else stack.enter_context(speed.Sampler())
        block = sampler.mark() if sampler else 0
        first, block_ns = 0, 0
        for index, op in enumerate(ops):
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    out = tracer.span("op", op.call, attrs={"index": index, "op": op.name})
            except Exception as exc:  # a failed op is counted, and the loop goes on
                timing.failures.append((index, op.name, exc))
                out = None
            elapsed = perf_counter_ns() - t0
            timing.latencies.append(elapsed)
            timing.outputs.append(out)
            block_ns += elapsed
            if block_ns >= BLOCK_NS or index == len(ops) - 1:
                scale = sampler.scale(block) if sampler else 1.0
                timing.scaled += [x * scale for x in timing.latencies[first:]]
                block = sampler.mark() if sampler else 0
                first, block_ns = index + 1, 0
    return timing


def check_outputs(ops, timing: Timing) -> None:
    failed = {index for index, _, _ in timing.failures}
    for index, (op, out) in enumerate(zip(ops, timing.outputs)):
        if index not in failed:
            op.check(out)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its inputs are ready:
    (scaled to the reference host speed, raw wall) per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        with speed.one_cpu(), speed.Sampler() as sampler:
            t0 = perf_counter_ns()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                    env=workloads.child_env())
            line = proc.stdout.readline()
            elapsed = (perf_counter_ns() - t0) / 1e9
            scale = sampler.scale(0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        raw.append(elapsed)
        scaled.append(elapsed * scale)
    return scaled, raw


def measure_cli_import() -> tuple[float, float]:
    """Median (import seconds, scipy self seconds) of fresh `import torsionlab.cli`."""
    totals, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE_CODE],
                              capture_output=True, cwd=ROOT, env=workloads.child_env(), check=True)
        totals.append(float(proc.stdout))
        self_us = 0
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
                self_us += int(parts[0].split(":")[1])
        scipy.append(self_us / 1e6)
    return stats.median(totals), stats.median(scipy)


def report_failures(args, failures) -> None:
    for index, name, exc in failures:
        print(f"# failed op: workload={args.workload} seed={args.seed} index={index} "
              f"op={name}: {type(exc).__name__}: {exc}")


def untraced_run(args, spec) -> dict:
    setup, setup_raw = measure_setup(args)
    workload = spec.build(args.seed, workloads.rounds_for(spec, args.seconds))
    timing = run_ops(workload.ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_outputs(workload.ops, timing)
    workload.post_check()

    n = len(timing.latencies)
    kinds = [op.kind for op in workload.ops]
    ms = [x / 1e6 for x in timing.scaled]
    raw_ms = [x / 1e6 for x in timing.latencies]
    tail_p, tail_ms = stats.tail(ms)
    report_failures(args, timing.failures)
    metrics = {
        "setup_s": (stats.median(setup), "s", f"median of {len(setup)} fresh interpreters; "
                                              f"raw {stats.median(setup_raw):.4g}"),
        "ops_per_s": (n / timing.scaled_s, "ops/s",
                      f"n={n} ops; raw {n / timing.wall_s:.4g} over {timing.wall_s:.3f} s"),
        "op_p50_ms": (stats.kind_median(ms, kinds), "ms",
                      f"n={n}, {len(set(kinds))} kinds; raw {stats.kind_median(raw_ms, kinds):.4g}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
    print(f"{args.workload} op_tail_ms = {tail_ms:.6g} ms (p{tail_p:g}, n={n})")
    print(f"{args.workload} failed_ratio = {len(timing.failures) / n:.6g} 1 "
          f"({len(timing.failures)}/{n} ops)")
    return {"correct": True, "attempted": n, "failed": len(timing.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def traced_run(args, spec) -> dict:
    rounds = workloads.rounds_for(spec, args.seconds / 2)
    plain = spec.build(args.seed, rounds)
    plain_timing = run_ops(plain.ops)
    check_outputs(plain.ops, plain_timing)

    workload = spec.build(args.seed, rounds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        timing = run_ops(workload.ops, tracer)
    finally:
        tracer.uninstall()
    check_outputs(workload.ops, timing)
    plain.post_check()
    workload.post_check()

    records = tracer.records(source="harness")
    trace_path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write_jsonl(trace_path, records)

    values = spans.span_metrics(records)
    values["cli.import_s"], values["cli.import_scipy_s"] = measure_cli_import()
    values["trace.overhead_ratio"] = timing.wall_s / plain_timing.wall_s
    report_failures(args, timing.failures)
    op_s = values["trace.op_s"]
    print(f"# spans: {trace_path.relative_to(ROOT)} ({len(records)} records, "
          f"{len(timing.latencies)} ops traced)")
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        value = values[name]
        inside_ops = unit == "s" and name.split(".")[0] not in ("cli", "trace")
        share = f" ({value / op_s:.1%} of op time)" if inside_ops and op_s else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{share}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": len(timing.latencies), "failed": len(timing.failures),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no torsionlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 64
    if args.setup_probe:
        spec.build(args.seed, workloads.rounds_for(spec, args.seconds))
        print("ready", flush=True)
        return 0
    try:
        if args.prepare:
            workloads.prepare_oracle()
            return 0

        import torsionlab
        if Path(torsionlab.__file__).resolve().parent != SRC / "torsionlab":
            sys.stderr.write(f"perfbench: imported torsionlab from {torsionlab.__file__}\n")
            return 2
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        # In a child, so that its memory stays out of this process's peak RSS.
        prepare = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                  "--workload", args.workload, "--prepare"],
                                 cwd=ROOT, env=workloads.child_env())
        if prepare.returncode != 0:
            return prepare.returncode
        result = traced_run(args, spec) if args.trace else untraced_run(args, spec)
    except workloads.WrongAnswer as exc:
        sys.stderr.write(f"perfbench: WRONG ANSWER (workload={args.workload} "
                         f"seed={args.seed}): {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
