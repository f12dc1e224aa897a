"""Tests of the benchmark itself, at tiny problem sizes."""

import json
from pathlib import Path

import numpy as np
import pytest

import radialheat.time_stepper
from radialheat.assembly import assemble_system

from perfbench.harness import (END_TO_END, ENTRY_POINTS, REFERENCE_S, Record,
                               end_to_end, layer_metrics, paired_loop,
                               per_layer_names, per_layer_unit, run_workload,
                               tail)
from perfbench.tracer import Tracer
from perfbench.workloads import (Exact, Op, Outcome, Shifted, Solve, Transient,
                                 op_count_ok)

TINY = {"solve": lambda: Solve(n=100), "transient": lambda: Transient(n=100),
        "shifted": lambda: Shifted(n=60), "exact": lambda: Exact(n=60)}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_of_every_workload(name):
    result = run_workload(TINY[name](), seed=0, seconds=0.0, trace=True)
    assert result["correct"]
    assert result["attempted"] >= 2
    assert set(result["end_to_end"]) == set(END_TO_END)
    assert list(result["per_layer"]) == per_layer_names()
    assert all(np.isfinite(v) for v in result["end_to_end"].values())
    if name == "shifted":
        assert len(result["tau_table"]) == 8


def _traced_tiny_transient():
    tracer = Tracer()
    workload = Transient(n=100)
    with tracer.installed(ENTRY_POINTS), tracer.span("setup"):
        prepared = workload.setup(0)
    paired_loop(workload.ops(prepared), workload.ops(prepared), 0.0, tracer)
    return tracer


def test_spans_nest_and_self_times_sum_to_root_duration():
    tracer = _traced_tiny_transient()
    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"setup", "op", "mesh.build_mesh", "time_stepper.advance",
            "assembly.assemble_system", "band_solvers.NTDM"} <= names
    self_t = tracer.self_times()
    subtree = [0.0] * len(spans)
    for i in reversed(range(len(spans))):
        subtree[i] += self_t[i]
        parent = spans[i].parent
        if parent is not None:
            assert parent < i
            assert spans[parent].start <= spans[i].start <= spans[i].end <= spans[parent].end
            subtree[parent] += subtree[i]
    for i, s in enumerate(spans):
        assert spans[tracer.root_of(i)].name in ("setup", "op")
        assert subtree[i] == pytest.approx(s.duration, rel=1e-9, abs=1e-12)
        assert self_t[i] >= -1e-12


def test_tracer_restores_the_original_functions():
    _traced_tiny_transient()
    assert radialheat.time_stepper.assemble_system is assemble_system
    assert radialheat.assembly.assemble_system is assemble_system


def test_same_seed_gives_identical_inputs():
    a, b, c = Solve(n=100).setup(5), Solve(n=100).setup(5), Solve(n=100).setup(6)
    assert np.array_equal(a.y_bar, b.y_bar)
    assert np.array_equal(a.pd_system.matrix.d0, b.pd_system.matrix.d0)
    assert np.array_equal(a.td_system.rhs, b.td_system.rhs)
    assert not np.array_equal(a.y_bar, c.y_bar)
    (_, u1), (_, u2) = Transient(n=100).setup(5), Transient(n=100).setup(5)
    assert np.array_equal(u1.values, u2.values)
    x, y = Exact(n=60).setup(5), Exact(n=60).setup(5)
    assert x.y_bar.tolist() == y.y_bar.tolist()


def test_every_transient_round_repeats_the_same_steps():
    workload = Transient(n=100)
    ops = workload.ops(workload.setup(0))
    rounds = []
    for _ in range(2):
        fields = []
        for op in ops:
            result = op.run()
            assert op.check(result).status == "ok"
            fields.append(result[0].values)
        rounds.append(fields)
    assert len(ops) == Transient.STEPS
    assert not np.array_equal(rounds[0][0], rounds[0][1])
    assert all(np.array_equal(a, b) for a, b in zip(*rounds))


def test_op_count_gate_fires_on_a_wrong_count():
    assert op_count_ok("NPDM", 10**5, 11, 1899971)
    assert op_count_ok("MNPDM", 10**5, 11, 1300069)
    assert op_count_ok("NTDM", 10**5, 11, 899992)
    assert not op_count_ok("MNPDM", 10**5, 11, 1300070)

    workload = Solve(n=100)
    for op in workload.ops(workload.setup(0)):
        report = op.run()
        assert op.check(report).status == "ok"
        report.op_count += 1
        assert op.check(report).status == "wrong"


def test_traced_op_count_mismatch_is_counted():
    tracer = _traced_tiny_transient()
    n_ops = sum(s.name == "op" for s in tracer.spans)
    assert layer_metrics(tracer, n_ops, 1)[1] == 0
    ntdm = next(s for s in tracer.spans if s.name == "band_solvers.NTDM")
    ntdm.info["op_count"] -= 1
    assert layer_metrics(tracer, n_ops, 1)[1] == 1


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 101)]) == (90, 90.0)
    assert tail([float(v) for v in range(1, 21)]) == (50, 10.0)


def test_round_ref_and_setup_s_are_ratios_to_the_reference_sweep():
    ok = Outcome("ok")
    a, b = (Op(label, 10, None, None) for label in "ab")
    records = [Record(a, 2.0, ok, 1.0), Record(b, 9.0, ok, 3.0),
               Record(a, 8.0, ok, 2.0), Record(b, 3.0, ok, 1.0),
               Record(a, 3.0, ok, 1.0), Record(b, 6.0, ok, 1.0)]
    # a: ratios 2, 4, 3 -> median 3; b: ratios 3, 3, 6 -> median 3
    metrics = end_to_end(records, [(0.5, 1.0), (3.0, 2.0), (0.2, 0.5)])[0]
    assert metrics["round_ref"] == 6.0
    assert metrics["setup_s"] == pytest.approx(0.5 * REFERENCE_S)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
