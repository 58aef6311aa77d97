"""Tests of the benchmark itself: failures are counted, traces add up, output is kept."""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from perfbench import checker, run, tracing, workloads


@pytest.fixture
def lib():
    """A fresh desir import, with the test run's own modules put back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "desir" or k.startswith("desir.")}
    yield workloads.load_library()
    for name in [m for m in sys.modules if m == "desir" or m.startswith("desir.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def results_of(lib, workload, slot, variant, tmp_path):
    items = workloads.build_items(lib, workloads.WORKLOADS[workload], [(slot, variant)], tmp_path)
    results, _ = run.run_queries(items, count=len(items))
    return results


def own_reference(results):
    return {r.item.key: r.verdict for r in results}


def test_valid_answers_pass(lib, tmp_path):
    results = results_of(lib, "count-cone", 2, 0, tmp_path)  # an incoherent slot
    assert [r.verdict for r in results] == ["fails", "unbounded_above", "unbounded_below",
                                            "incoherent"]
    assert checker.check_run(results, own_reference(results)) == [None] * len(results)


def test_corrupted_witness_is_a_failure(lib, tmp_path):
    results = results_of(lib, "count-cone", 2, 0, tmp_path)
    reference = own_reference(results)
    coherence = results[0]
    witness = coherence.evidence.witness
    weights = list(witness.generator_weights)
    weights[0] += 1
    coherence.evidence = dataclasses.replace(
        coherence.evidence,
        witness=dataclasses.replace(witness, generator_weights=tuple(weights)))
    reasons = checker.check_run(results, reference)
    assert reasons[0].startswith("certificate check failed")
    assert reasons[1:] == [None] * (len(results) - 1)


def test_corrupted_bernstein_certificate_is_a_failure(lib, tmp_path):
    # Slot 1 scans random polynomials; find a variant answered "yes".
    for variant in range(workloads.VARIANTS):
        [result] = results_of(lib, "bernstein-scan", 1, variant, tmp_path)
        if result.verdict.startswith("yes"):
            break
    reference = own_reference([result])
    assert checker.check_run([result], reference) == [None]
    cert = result.evidence.certificate
    bumped = cert.values[:-1] + (cert.values[-1] + 1,)
    result.evidence = dataclasses.replace(
        result.evidence, certificate=dataclasses.replace(cert, values=bumped))
    assert checker.check_run([result], reference)[0].startswith("certificate check failed")


def test_wrong_reference_value_is_a_failure(lib, tmp_path):
    results = results_of(lib, "count-cone", 0, 0, tmp_path)
    reference = own_reference(results)
    lower = next(r for r in results if r.item.op == "lower")
    reference[lower.item.key] = "1/7"
    reasons = checker.check_run(results, reference)
    assert [r.item.op for r, why in zip(results, reasons) if why] == ["lower"]
    assert checker.check_run(results, {})[0] == "no reference answer for this input"


def test_raised_exception_is_a_failure():
    def boom():
        raise ValueError("boom")

    item = workloads.Item("0:0:coherence", "coherence", None, boom)
    results, _ = run.run_queries([item], count=2)
    assert [r.verdict for r in results] == [None, None]
    reasons = checker.check_run(results, {"0:0:coherence": "avoids"})
    assert all(why.startswith("raised") and "boom" in why for why in reasons)


def test_self_time_of_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("cli.main", "cli", 0.0, 10.0, None, 0),
        S("io.load_json", "io", 1.0, 3.0, 0, 0, {"bytes": 40}),
        S("cones.lower_prevision", "cones", 3.0, 9.0, 0, 0),
        S("lp.solve", "lp", 4.0, 8.0, 2, 0, {"rows": 3, "cols": 5, "free_cols": 1,
                                              "infeasible": False, "den_bits": 7}),
        S("cones.DesirCone.avoidance", "cones", 8.5, 9.0, 2, 0),
    ]
    self_s, outermost = tracing.span_times(spans)
    assert self_s == [2.0, 2.0, 1.5, 4.0, 0.5]
    assert outermost == [True, True, True, True, False]
    m = tracing.layer_metrics(spans, [10.0, 10.0], stdout_bytes=100)
    assert m["cli.self_s"] == 1.0 and m["cli.busy_s"] == 5.0
    assert m["cones.calls"] == 1.0 and m["cones.busy_s"] == 3.0 and m["cones.self_s"] == 1.0
    assert m["lp.share"] == 0.2 and m["lp.rows.mean"] == 3 and m["lp.witness_den_bits.max"] == 7
    assert m["trace.coverage"] == 0.5 and m["cli.stdout_bytes"] == 50
    assert m["io.bytes_read"] == 20


def test_tracing_keeps_script_stdout_byte_identical(lib, tmp_path):
    case = workloads.script_case(lib, 16, 0, tmp_path)
    plain = workloads.run_script(lib.cli, case.path)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced = workloads.run_script(lib.cli, case.path)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "io.load_json", "lp.solve", "cones.avoids_nonpositivity",
            "gambles.kernel_basis", "exchangeability.enl",
            "bernstein.BernsteinPoly.raised"} <= names
    assert workloads.run_script(lib.cli, case.path) == plain
    assert not hasattr(lib.cones.solve, "__wrapped__")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric(lib, tmp_path, monkeypatch, capsys, trace, section):
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "bernstein-scan", "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    assert code == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    assert list(report["metrics"]) == [m["name"] for m in spec[section]]


def test_reference_covers_every_input():
    """A seed picks any (slot, variant), so the reference must hold them all."""
    ops = {
        "count-cone": lambda slot: workloads.CC_OPS,
        "bernstein-scan": lambda slot: (workloads.BS_SLOTS[slot][0],),
        "exchangeable-script": lambda slot: ("run",),
    }
    for name, workload in workloads.WORKLOADS.items():
        reference = json.loads((run.REFERENCE / f"{name}.json").read_text(encoding="utf-8"))
        expected = {f"{slot}:{variant}:{op}" for slot in range(len(workload.slots))
                    for variant in range(workloads.VARIANTS) for op in ops[name](slot)}
        assert set(reference) == expected, name
