"""Tests of the benchmark itself (not of binomci).

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _small_ops():
    """A few cheap ops of every kind the untraced runs use."""
    inter = workloads.generate("interactive", 3, max_ops=60)
    picked = {}
    for op in inter:
        picked.setdefault(op.kind, op)
    tables = [op for op in workloads.generate("tables", 3)[:400]
              if op.kind in ("expected_width", "mean_coverage")
              or (op.kind == "min_coverage" and op.args[1] <= 100)][:12]
    planning = [min(workloads.generate("planning", 3, max_ops=9), key=lambda op: -op.args[2])]
    return list(picked.values()) + tables + planning


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.generate(workload, 7, max_ops=300)
    assert a == workloads.generate(workload, 7, max_ops=300)
    assert a != workloads.generate(workload, 8, max_ops=300)


def test_interactive_keys_never_repeat():
    ops = workloads.generate("interactive", 5)
    assert len({op.key for op in ops}) == len(ops)


def test_warmup_keys_are_not_timed_keys():
    for workload in workloads.WORKLOADS:
        keys = {op.key for op in workloads.generate(workload, 1)}
        assert not keys & {op.key for op in workloads.warmup_ops(workload)}


def test_wrong_output_counts_as_failed():
    ops = _small_ops()
    passed = run.measure([ops], 0.0, 0)
    failed, _ = run.check(passed.ops, passed.outputs)
    assert failed == []
    outputs = list(passed.outputs)
    i = next(k for k, op in enumerate(ops) if op.kind == "interval")
    outputs[i] = outputs[i].replace("upper ", "upper 1")  # upper becomes 10x
    j = next(k for k, op in enumerate(ops) if op.kind == "exact_n")
    outputs[j] = (outputs[j][0], outputs[j][1] * (1.0 + 1e-6))
    k = next(k for k, op in enumerate(ops) if op.kind == "mean_coverage")
    outputs[k] = run.OpError("RuntimeError('boom')")
    failed, _ = run.check(passed.ops, outputs)
    assert failed == sorted([i, j, k])


def test_traced_outputs_equal_untraced_and_wrappers_are_removed():
    ops = _small_ops()
    originals = {(m, a): getattr(__import__(m, fromlist=["_"]), a)
                 for m, a, _, _ in tracing.TARGETS}
    plain = run.measure([ops], 0.0, 0)
    run._clear_endpoint_cache()
    with tracing.Tracer() as tracer:
        traced = run.measure([ops], 0.0, 0, tracer)
        assert all(getattr(__import__(m, fromlist=["_"]), a) is not originals[(m, a)]
                   for m, a in originals)
    assert [repr(o) for o in traced.outputs] == [repr(o) for o in plain.outputs]
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=["_"]), a) is fn
    metrics = tracer.layer_metrics()
    assert tracer.missing_layers() == []
    assert metrics["cli.run.calls"] == sum(op.kind in workloads._CLI_KINDS for op in ops)
    assert metrics["sample_size.exact_n.calls"] == 1
    assert metrics["sample_size.exact_n.width_evals"] > 0
    assert {s[tracing.OP] for s in tracer.spans} == set(range(len(ops)))


def test_missing_target_is_reported_not_raised(monkeypatch):
    from binomci import exact_eval

    monkeypatch.delattr(exact_eval, "_betacf_vec")
    with tracing.Tracer() as tracer:
        pass
    assert "binomci.exact_eval._betacf_vec" in tracer.missing
    assert tracer.missing_layers() == ["exact_eval._betacf_vec"]
    assert tracer.layer_metrics()["exact_eval._betacf_vec.calls"] == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = [f"{n}.{q}" for n, q, _, _ in tracing.LAYER_METRICS]
    layer += [n for n, _, _ in tracing.TRACE_METRICS]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]


def test_compare_verdicts():
    import compare

    base = {s: 100.0 + s for s in range(10)}
    faster = {s: 80.0 + s for s in range(10)}
    same = {s: 100.0 + s for s in range(10)}
    slower = {s: 130.0 + s for s in range(10)}
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, same, "lower", 0.1)[0] == "no worse within bound"
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
