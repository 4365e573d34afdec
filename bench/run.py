"""Benchmark of binomci: runs one workload from a seed and prints its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload interactive --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload planning --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 bench/run.py --summarize RESULTS > bench/trajectory/NAME.json

A run imports ``binomci`` from ``src/`` of the same checkout, builds the
workload's op list from the seed, warms up on keys no timed op uses, and
runs the ops one after another in this one process (a closed loop with one
client).  It measures whole rounds of ops until ``--seconds`` have passed
and at least the workload's minimum number of ops have run.  After the
timed region every output is checked against an independent scipy
reference.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the ops of half a run are run twice, plain and then
traced, and the metrics are the per-layer metrics, plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
say the same for a reader.  The whole result, with its provenance, is also
written to ``bench/out/`` (``--out`` changes the directory), and
``--compare`` reads two such sets.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # fresh interpreters timed before, and again after, the timed region


class OpError(str):
    """Output slot of an op that raised; holds the exception's repr."""


class Pass(NamedTuple):
    ops: list
    outputs: list
    latencies: list  # seconds per op
    wall: float      # seconds for the whole pass
    scales: list | None = None  # machine-speed scale per op (SpeedGauge)


def load_library():
    """Import binomci from this checkout's src/, never from anywhere else."""
    if not (SRC / "binomci" / "__init__.py").is_file():
        raise ImportError(f"no binomci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import binomci

    if Path(binomci.__file__).resolve().parent != SRC / "binomci":
        raise ImportError(f"binomci was imported from {binomci.__file__}, not from {SRC}")
    return binomci


def prepare(workload: str, seed: int):
    """Set-up: generate the op list and warm up.  Returns the rounds."""
    import workloads

    rounds = workloads.generate_rounds(workload, seed)
    for op in workloads.warmup_ops(workload):
        workloads.run_op(op)
    return rounds


class SpeedGauge:
    """How fast this machine runs while the benchmark runs.

    On a shared machine the same code runs up to 1.7x slower from one
    second to the next, as other tenants load the same cores.  The gauge
    times a fixed kernel of small numpy calls, the kind of work the library
    does, but none of the library's code, every 0.1 s between ops.  A time
    multiplied by REFERENCE_S over the kernel's time around it reads as on
    a machine on which the kernel takes REFERENCE_S, so that runs on a busy
    and on a quiet machine compare.
    """

    REFERENCE_S = 0.0008
    EVERY_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, kept out of timed walls
        self._next = 0.0

    def sample(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        x = np.linspace(0.01, 0.99, 257)
        times = []
        for _ in range(3):
            t1 = time.perf_counter()
            acc = 0.0
            for k in range(60):
                acc += float(np.sum(np.log1p(-0.5 * x) * (k + 1.0) + np.exp(-x)))
            times.append(time.perf_counter() - t1)
        self.samples.append(statistics.median(times))
        self._next = time.perf_counter() + self.EVERY_S
        self.spent += time.perf_counter() - t0
        return self.samples[-1]

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor_between(self, i: int) -> float:
        """Scale for a time measured between samples i and i + 1."""
        return 2.0 * self.REFERENCE_S / (self.samples[i] + self.samples[i + 1])


def measure(rounds, seconds: float, min_ops: int, tracer=None, gauge=None) -> Pass:
    """Run whole rounds until `seconds` have passed and `min_ops` ops ran.

    With a gauge, each op gets the speed scale of the gauge samples just
    before and just after it, and the pass's wall time leaves out the time
    the gauge spends sampling."""
    from workloads import run_op

    ops, outputs, latencies, before = [], [], [], []
    clock = time.perf_counter
    start = clock()
    spent = gauge.spent if gauge else 0.0
    for ops_of_round in rounds:
        for op in ops_of_round:
            if gauge:
                gauge.sample_if_due()
                before.append(len(gauge.samples) - 1)
            t0 = clock()
            try:
                if tracer is None:
                    out = run_op(op)
                else:
                    with tracer.op(len(ops), op.kind):
                        out = run_op(op)
            except Exception as exc:  # a failed op is counted; the run goes on
                out = OpError(repr(exc))
            latencies.append(clock() - t0)
            ops.append(op)
            outputs.append(out)
        wall = clock() - start - (gauge.spent - spent if gauge else 0.0)
        if wall >= seconds and len(ops) >= min_ops:
            break
    scales = None
    if gauge:
        gauge.sample()
        scales = [gauge.factor_between(i) for i in before]
    return Pass(ops, outputs, latencies, wall, scales)


def check(ops, outputs):
    """Indices of the ops that raised or missed their reference, and the
    largest errors seen.  Imports scipy, so it runs after the timed region."""
    import reference

    checker = reference.Checker()
    failed = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, OpError):
            failed.append(i)
            continue
        try:
            ok = checker.check(op, out)
        except (ValueError, KeyError, IndexError, TypeError):  # malformed output
            ok = False
        if not ok:
            failed.append(i)
    return failed, dict(checker.max_err)


def setup_seconds(workload: str, seed: int, gauge: SpeedGauge) -> list[tuple[float, float]]:
    """(wall time, speed factor) of fresh interpreters that import binomci,
    generate the inputs and warm up, as a CLI user pays it on every command.

    Each factor comes from gauge samples just before and just after that
    interpreter, since the machine's speed changes from second to second."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = gauge.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = gauge.sample()
        samples.append((t1 - t0, 2.0 * gauge.REFERENCE_S / (before + after)))
    return samples


# ---------------------------------------------------------------------------
# provenance

def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, ops) -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "binomci").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    seen = set()
    repeated = 0
    for op in ops:
        repeated += op.key in seen
        seen.add(op.key)
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_binomci_lines": lines,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "ops": len(ops),
        "ops_by_kind": dict(sorted(Counter(op.kind for op in ops).items())),
        "repeated_key_share": repeated / len(ops) if ops else 0.0,
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end_run(args) -> dict:
    import workloads

    gauge = SpeedGauge()
    setups = setup_seconds(args.workload, args.seed, gauge)
    rounds = prepare(args.workload, args.seed)
    timed = measure(rounds, args.seconds, workloads.MIN_OPS[args.workload], gauge=gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_seconds(args.workload, args.seed, gauge)
    failed, max_err = check(timed.ops, timed.outputs)
    lat_ms = [t * 1000.0 for t in timed.latencies]
    scaled_ms = [t * f for t, f in zip(lat_ms, timed.scales)]
    mean_scale = sum(scaled_ms) / sum(lat_ms)
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "ops_per_s": len(timed.ops) / timed.wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / mean_scale, "1/s"),
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(scaled_ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "metrics": metrics,
        "ops": timed.ops,
        "outputs": timed.outputs,
        "failed": failed,
        "notes": {
            "unscaled": raw,
            "speed_factor": mean_scale,
            "speed_samples": len(gauge.samples),
            "setup_samples_s_factor": setups,
            "timed_wall_s": timed.wall,
            "op_seconds_by_kind": _seconds_by_kind(timed),
            "max_errors": max_err,
        },
    }


def _seconds_by_kind(p: Pass) -> dict[str, float]:
    total = Counter()
    for op, t in zip(p.ops, p.latencies):
        total[op.kind] += t
    return dict(sorted(total.items()))


def traced_run(args) -> dict:
    import tracer as tracing

    rounds = prepare(args.workload, args.seed)
    plain = measure(rounds, args.seconds / 2.0, 0)
    _clear_endpoint_cache()
    with tracing.Tracer() as tracer:
        traced = measure([plain.ops], 0.0, 0, tracer)
    failed, max_err = check(plain.ops, plain.outputs)
    differ = [i for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs))
              if repr(a) != repr(b)]
    failed = sorted(set(failed) | set(differ))
    values = tracer.layer_metrics()
    values["trace.overhead_pct"] = (traced.wall / plain.wall - 1.0) * 100.0
    values["trace.ops"] = float(len(plain.ops))
    values["trace.spans"] = float(len(tracer.spans))
    units = {f"{layer}.{q}": unit for layer, q, unit, _ in tracing.LAYER_METRICS}
    units.update((name, unit) for name, unit, _ in tracing.TRACE_METRICS)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.json"
    args.out.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.dump()))
    pooled = sum(1 for op in plain.ops if op.kind == "min_coverage" and op.args[-1] > 1)
    return {
        "metrics": metrics,
        "ops": plain.ops,
        "outputs": plain.outputs,
        "failed": failed,
        "notes": {
            "untraced_ops_per_s": len(plain.ops) / plain.wall,
            "traced_ops_per_s": len(plain.ops) / traced.wall,
            "traced_outputs_differ": len(differ),
            "missing_layers": tracer.missing_layers(),
            "missing_targets": tracer.missing,
            "ops_using_pool_workers": pooled,
            "pool_workers_traced": False,
            "spans_file": str(spans_path),
            "max_errors": max_err,
        },
    }


def _clear_endpoint_cache() -> None:
    """Give the traced pass the same endpoint cache state as the plain pass.

    Uses an internal name, so only the traced run calls it; outputs do not
    depend on the cache, only the hit and miss counts do."""
    from binomci import exact_eval

    clear = getattr(getattr(exact_eval, "_bounds_arrays", None), "cache_clear", None)
    if clear is not None:
        clear()


# ---------------------------------------------------------------------------

def _report(args, result: dict) -> dict:
    ops, failed = result["ops"], result["failed"]
    attempted = len(ops)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "provenance": provenance(args.workload, args.seed, args.seconds, ops),
        "notes": result["notes"],
        "failures": [
            {"op": list(ops[i]), "output": repr(result["outputs"][i])[:300]} for i in failed[:20]
        ],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, default=str))

    prov = summary["provenance"]
    print(f"binomci benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  ops {attempted} ({prov['ops_by_kind']}), repeated-key share "
          f"{prov['repeated_key_share']:.3f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<44} {summary['fail_ratio']:>16.6g} ({len(failed)} of {attempted})")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")
    print(f"  src {prov['src_sha256'][:12]} ({prov['src_binomci_lines']} lines), git "
          f"{prov['git_sha']}, {prov['cpu_count']} CPUs, Python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}")
    print(f"  result written to {path}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of result files")
    parser.add_argument("--summarize", metavar="DIR",
                        help="print one trajectory point for the result files in DIR")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare or args.summarize:
        import compare

        if args.summarize:
            print(json.dumps(compare.summarize(args.summarize), indent=1))
            return 0
        return compare.main(*args.compare)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # the CLI ops of the interactive workload read this; keep them sequential
    os.environ.pop("BINOMCI_THREADS", None)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    result = traced_run(args) if args.trace else end_to_end_run(args)
    summary = _report(args, result)
    line = {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
