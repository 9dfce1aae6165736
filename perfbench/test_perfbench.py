"""The benchmark's own tests: deterministic inputs, answer checks that reject
planted wrong answers, tracer counts, and output that matches BENCHMARK.json.

Run with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import argparse
import json
import random

import pytest

from drest import duality
from drest.dra import validate_axioms
from drest.fixtures import broken_restriction, get_fixture
from drest.pfun import Carrier, PartialFunction, closure_generate

from perfbench import checks, run
from perfbench.tracing import Tracer
from perfbench.workloads import (
    NAMES,
    AlgebraRoundtrip,
    CliDocuments,
    CliItem,
    OperatorClassify,
    SpaceDualize,
    make,
    random_space,
)


def space(points, basis, projection=None, n_base=None):
    projection = tuple(projection or range(points))
    return duality.EtaleSpace(
        points, n_base or len(set(projection)), projection, tuple(frozenset(u) for u in basis)
    )


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    workload = make(name, run.ROOT, tmp_path)
    first = repr(workload.generate(random.Random(7)))
    assert repr(workload.generate(random.Random(7))) == first
    assert repr(workload.generate(random.Random(8))) != first


def test_axiom_check_rejects_broken_restriction():
    assert checks.check_axioms(validate_axioms(broken_restriction().algebra).ok) is not None
    assert checks.check_axioms(validate_axioms(get_fixture("boolean_four").algebra).ok) is None


def test_roundtrip_judge_rejects_wrong_answers():
    workload = AlgebraRoundtrip()
    closed = get_fixture("boolean_four").concrete
    out: dict = {}
    workload.run(closed, out)
    assert workload.judge(closed, out, None) == ("ok", "")
    for key, wrong in (
        ("filters", out["filters"] + 1),
        ("completion", out["completion"] - 1),
        ("axioms", False),
        ("flags", dict(out["flags"], triangle_space_side=False)),
    ):
        status, reason = workload.judge(closed, dict(out, **{key: wrong}), None)
        assert status == "failed", key
        assert reason


def test_refusal_is_not_a_failure():
    workload = AlgebraRoundtrip()
    closed = get_fixture("boolean_four").concrete
    refusal = ValueError("filter enumeration capped at 16 elements")
    assert workload.judge(closed, {}, refusal)[0] == "refused"
    assert workload.judge(closed, {}, KeyError("x"))[0] == "failed"


def test_space_judge_rejects_wrong_verdicts():
    workload = SpaceDualize()
    valid = space(3, [{0}, {1}, {2}, {0, 1}], projection=(0, 0, 1))
    dropped = space(3, [{0}, {1}, {0, 1, 2}], projection=(0, 0, 1))
    assert checks.space_expectation(3, 2, valid.projection, valid.basis) == (True, 6)
    out: dict = {}
    workload.run(valid, out)
    assert out == {"valid": True, "sections": 6}
    assert workload.judge(valid, out, None)[0] == "ok"
    assert workload.judge(valid, {"valid": True, "sections": 5}, None)[0] == "failed"
    assert workload.judge(dropped, {"valid": True, "sections": 6}, None)[0] == "failed"
    out = {}
    workload.run(dropped, out)
    assert workload.judge(dropped, out, None) == ("ok", "")


def test_generated_invalid_spaces_drop_a_singleton():
    rng = random.Random(3)
    for points in (3, 4, 5):
        bad = random_space(rng, points, valid=False)
        assert not checks.space_expectation(bad.n_points, bad.n_base, bad.projection, bad.basis)[0]
        good = random_space(rng, points, valid=True)
        assert checks.space_expectation(good.n_points, good.n_base, good.projection, good.basis)[0]


def test_operator_judge_rejects_wrong_classification():
    workload = OperatorClassify()
    carrier = Carrier(2)
    seeds = [PartialFunction.from_graph(carrier, [(0, 1)]), PartialFunction.from_graph(carrier, [(1, 1)])]
    for op, verdict in (("domain", True), ("antidomain", False), ("override", False)):
        closed = closure_generate(carrier, seeds, ops=("difference", "restrict", op))
        out: dict = {}
        workload.run((op, closed), out)
        assert out["cpo"] is verdict
        assert workload.judge((op, closed), out, None)[0] == "ok"
        flipped = dict(out, cpo=not verdict)
        assert workload.judge((op, closed), flipped, None)[0] == "failed"


def test_cli_judge_rejects_a_swapped_exit_code(tmp_path):
    workload = CliDocuments(run.ROOT, tmp_path)
    item = CliItem("corrupt-space", ("validate", "x.json"), 1)
    assert workload.judge(item, {"code": 1, "stdout": "", "stderr": ""}, None)[0] == "ok"
    assert workload.judge(item, {"code": 0, "stdout": "", "stderr": ""}, None)[0] == "failed"
    refusal = {"code": 2, "stdout": "", "stderr": '{"error": "operator checks capped at 10 elements"}'}
    may_refuse = CliItem("complete-with-op", ("complete", "x.json"), 0, (4,), may_refuse=True)
    assert workload.judge(may_refuse, refusal, None)[0] == "refused"
    assert workload.judge(item, refusal, None)[0] == "failed"


def test_cli_items_answer_as_built(tmp_path):
    workload = CliDocuments(run.ROOT, tmp_path)
    rng = random.Random(5)
    for kind in CliDocuments.KINDS:
        item = workload._item(rng, kind, kind)
        out: dict = {}
        workload.run_in_process(item, out)
        status, reason = workload.judge(item, out, None)
        assert status in ("ok", "refused"), (kind, reason)
        wrong = dict(out, code=item.code + 1)
        assert workload.judge(item, wrong, None)[0] == "failed", kind


def test_one_triangle_check_makes_the_counted_calls():
    algebra = get_fixture("boolean_four").algebra.with_ops(())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = 0
        duality.check_triangle_identities(algebra)
    finally:
        tracer.uninstall()
    assert not hasattr(duality.opens, "__wrapped__")
    metrics = tracer.layer_metrics(items=1)
    assert metrics["filters.maximal_filters.calls_per_item"] == 7
    assert metrics["duality.validate_etale.calls_per_item"] == 14
    assert metrics["duality.opens.calls_per_item"] == 29
    assert metrics["duality.G_object.calls_per_item"] == 7
    for name, start, end, parent, *_ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    root = next(s for s in tracer.spans if s[3] == -1)
    assert total == pytest.approx(root[2] - root[1])


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0
    assert percentile == 90.0


class TinySpaces(SpaceDualize):
    WEIGHTS = {(3, True): 2, (3, False): 1}
    trace_batches = 1


def test_output_matches_benchmark_json(monkeypatch, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = argparse.Namespace(seed=1, seconds=0.0, trace=0)
    metrics, tally, deterministic = run.end_to_end(TinySpaces(), args, 0.1, run.Clock())
    assert deterministic and tally.outcomes["failed"] == 0
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    args = argparse.Namespace(seed=1, seconds=0.0, trace=1)
    metrics, tally, _ = run.traced(TinySpaces(), args, run.Clock())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
