"""JSON documents and the command-line front end."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

from drest import dra, duality, pfun
from drest.cli import main
from drest.documents import (
    DocumentError,
    emit_document,
    parse_document,
)
from drest.dra import FiniteAlgebra, OpTable, bottom, from_concrete, representation
from drest.duality import EtaleSpace, F_object, G_object
from drest.fixtures import (
    FIXTURES,
    boolean_four,
    broken_restriction,
    conflicting_pair,
    disjoint_pair,
    get_fixture,
    inclusion_disjoint_into_boolean,
    single_point,
)
from drest.filters import maximal_filters
from drest.operators import OPERATOR_ALGEBRA_CAP, relation_from_operator
from drest.pfun import Carrier, ConcretePFAlgebra, PartialFunction, closure_generate, enumerate_all_pfs

ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# documents

def test_algebra_round_trip():
    alg = disjoint_pair().algebra
    text = emit_document(alg)
    kind, parsed = parse_document(text)
    assert kind == "algebra"
    assert parsed == alg
    assert emit_document(parsed) == text


def test_algebra_with_ops_round_trip():
    alg = from_concrete(boolean_four().concrete, extra_ops=("domain", "identity"))
    kind, parsed = parse_document(emit_document(alg))
    assert parsed == alg


def test_pfalgebra_round_trip_normalizes():
    concrete = conflicting_pair().concrete
    text = emit_document(concrete)
    kind, parsed = parse_document(text)
    assert kind == "pfalgebra"
    assert parsed == concrete
    # normalization is idempotent even from unordered input
    doc = json.loads(text)
    doc["elements"].reverse()
    _, reparsed = parse_document(json.dumps(doc))
    assert reparsed == concrete


def test_space_and_relation_round_trip():
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    rel = relation_from_operator(alg.with_ops(()), alg.op("domain"))
    text = emit_document(rel)
    kind, parsed = parse_document(text)
    assert kind == "relation"
    assert parsed.tuples == rel.tuples
    assert parsed.space == rel.space

    space_text = emit_document(rel.space)
    kind, space = parse_document(space_text)
    assert kind == "space" and space == rel.space


def test_morphism_round_trip():
    incl = inclusion_disjoint_into_boolean()
    kind, parsed = parse_document(emit_document(incl))
    assert kind == "morphism"
    assert parsed.table == incl.table


def test_unknown_kind_is_positioned():
    with pytest.raises(DocumentError) as err:
        parse_document('{"kind": "mystery", "version": 1}')
    assert err.value.path == "$.kind"


def test_bad_arity_is_positioned():
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    doc = json.loads(emit_document(alg))
    doc["ops"][0]["entries"] = doc["ops"][0]["entries"][:-1]
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert "entries" in err.value.path


def test_relation_arity_over_the_cap_is_positioned():
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    doc = json.loads(emit_document(relation_from_operator(alg.with_ops(()), alg.op("domain"))))
    doc["arity"], doc["tuples"] = 8, [[0] * 9]
    with pytest.raises(DocumentError, match="capped at") as err:
        parse_document(json.dumps(doc))
    assert err.value.path == "$.arity"


@pytest.mark.parametrize("value", [
    pytest.param(conflicting_pair().concrete, id="pfalgebra"),
    pytest.param(F_object(disjoint_pair().algebra), id="space"),
])
def test_non_string_label_is_positioned(value):
    doc = json.loads(emit_document(value))
    doc["labels"] = ["a", 7]
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert err.value.path == "$.labels[1]"


def test_huge_arity_is_refused_before_the_power_is_taken(tmp_path):
    # in a child process, so that taking the power fails by the timeout
    # instead of running for minutes
    doc = json.loads(emit_document(disjoint_pair().algebra))
    doc["ops"] = [{"name": "big", "arity": 10**9, "entries": ["{}"]}]
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", "validate", write(tmp_path, "big.json", json.dumps(doc))],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=10, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert json.loads(run.stderr)["error"].startswith("$.ops[0].entries:")


def test_negative_operator_arity_is_positioned(tmp_path, capsys):
    for fixture in (single_point(), disjoint_pair()):
        alg = fixture.algebra
        doc = {
            "kind": "operator",
            "version": 1,
            "algebra": json.loads(emit_document(alg)),
            "name": "f",
            "arity": -1,
            "entries": [alg.elements[0]],
        }
        assert main(["validate", write(tmp_path, "op.json", json.dumps(doc))]) == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith("$.arity:")


def test_negative_relation_arity_is_positioned():
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    doc = json.loads(emit_document(relation_from_operator(alg.with_ops(()), alg.op("domain"))))
    doc.update(arity=-1, tuples=[[]])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert err.value.path == "$.arity"


def test_unresolved_element_name_is_positioned():
    doc = json.loads(emit_document(disjoint_pair().algebra))
    doc["minus"][0][0] = "ghost"
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert err.value.path == "$.minus[0][0]"


def test_not_json_is_an_error():
    with pytest.raises(DocumentError):
        parse_document("not json at all")


def test_wrong_version_rejected():
    doc = json.loads(emit_document(disjoint_pair().algebra))
    doc["version"] = 99
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert err.value.path == "$.version"


# ---------------------------------------------------------------------------
# CLI

def fixture_file(tmp_path, name):
    return write(tmp_path, f"{name}.json", emit_document(get_fixture(name).algebra))


def test_validate_exit_codes(tmp_path, capsys):
    good = fixture_file(tmp_path, "disjoint_pair")
    bad = fixture_file(tmp_path, "broken_restriction")
    assert main(["validate", good]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert main(["validate", bad]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["violations"]


@pytest.mark.parametrize("argv", [["filters"], ["dualize"], ["complete"], ["roundtrip"], ["check-op", "domain"]])
def test_invalid_input_algebra_exits_1(tmp_path, capsys, argv):
    assert main([argv[0], fixture_file(tmp_path, "broken_restriction"), *argv[1:]]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "input algebra fails validation"}


@pytest.fixture(scope="module")
def corrupted_section_algebra(tmp_path_factory) -> str:
    """The 256-element section algebra of an 8-point discrete space with one
    difference entry pointed elsewhere, written as a document."""
    space = EtaleSpace(8, 8, tuple(range(8)), tuple(frozenset({x}) for x in range(8)))
    alg = G_object(space).algebra
    minus = list(alg.minus.entries)
    minus[5 * alg.n + 7] = 3
    corrupted = FiniteAlgebra(alg.elements, OpTable("minus", 2, alg.n, tuple(minus)), alg.rest)
    assert representation(corrupted) is None
    path = tmp_path_factory.mktemp("corrupted") / "algebra.json"
    path.write_text(emit_document(corrupted))
    return str(path)


@pytest.mark.parametrize(
    "argv", [["filters"], ["dualize"], ["complete"], ["roundtrip"], ["check-op", "meet"]]
)
def test_a_corrupted_algebra_is_refused_without_walking_the_laws(
    corrupted_section_algebra, capsys, argv
):
    # only validate walks the n³ law triples; the other commands read the
    # representation's verdict, 2.7-4.1 s per command when they walked too
    start = time.perf_counter()
    assert main([argv[0], corrupted_section_algebra, *argv[1:]]) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().err) == {"error": "input algebra fails validation"}


@pytest.mark.parametrize(
    "argv",
    [
        ["complete"],
        ["complete", "--with-op", "domain"],
        ["roundtrip"],
        ["check-op", "domain", "--relation"],
    ],
)
def test_each_command_finds_one_representation(tmp_path, capsys, monkeypatch, argv):
    # validity is decided on the bare algebra the command runs on
    found = []
    original = dra._represent
    monkeypatch.setattr(dra, "_represent", lambda alg: found.append(alg) or original(alg))
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    path = write(tmp_path, "with_d.json", emit_document(alg))
    assert main([argv[0], path, *argv[1:]]) == 0
    assert len(found) == 1


@pytest.mark.parametrize("command", ["dualize", "roundtrip"])
def test_invalid_input_space_exits_1(tmp_path, capsys, command):
    # the one basis set holds both points of the one fibre
    path = write(tmp_path, "space.json", space_doc(basis=[[0, 1]]))
    assert main([command, path]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "projection not a local homeomorphism; points not separated by disjoint opens"
    }


def test_check_hom_names_the_invalid_side(tmp_path, capsys):
    doc = json.loads(emit_document(inclusion_disjoint_into_boolean()))
    broken = json.loads(emit_document(broken_restriction().algebra))
    for side in ("source", "target"):
        bad = {**doc, side: broken}
        bad["map"] = [bad["target"]["elements"][0]] * len(bad["source"]["elements"])
        assert main(["check-hom", write(tmp_path, "map.json", json.dumps(bad))]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"{side} algebra fails validation"}


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(algebra):
        raise AssertionError("internal error: broken invariant")

    monkeypatch.setattr("drest.cli.validate_axioms", broken)
    assert main(["validate", fixture_file(tmp_path, "disjoint_pair")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "internal error: broken invariant"}


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(algebra):
        raise TypeError("unexpected argument")

    monkeypatch.setattr("drest.cli.validate_axioms", broken)
    assert main(["validate", fixture_file(tmp_path, "disjoint_pair")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "internal error: TypeError: unexpected argument"}


def test_failed_import_exits_3(tmp_path, capsys, monkeypatch):
    # a module the command imports on use cannot be loaded
    monkeypatch.setitem(sys.modules, "drest.duality", None)
    assert main(["filters", fixture_file(tmp_path, "disjoint_pair")]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith("internal error: ModuleNotFoundError:")


@pytest.mark.parametrize("command", ["validate", "filters", "dualize", "complete", "roundtrip"])
def test_ops_that_is_not_a_list_is_a_usage_error(tmp_path, capsys, command):
    doc = {"kind": "algebra", "version": 1, "elements": ["0"], "minus": [["0"]], "rest": [["0"]], "ops": 5}
    assert main([command, write(tmp_path, "ops.json", json.dumps(doc))]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("$.ops:")


def space_doc(**fields) -> str:
    doc = {"kind": "space", "version": 1, "points": 2, "base": 1, "projection": [0, 0], "basis": [[0], [1]]}
    return json.dumps({**doc, **fields})


def test_negative_space_counts_are_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "space.json", space_doc(points=0, base=-3, projection=[], basis=[]))
    assert main(["validate", path]) == 2
    assert "nonnegative" in json.loads(capsys.readouterr().err)["error"]


def test_a_document_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys):
    assert main(["filters", write(tmp_path, "space.json", space_doc())]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "$.kind: expected an algebra document, got space"
    )


def test_oversized_pfalgebra_carrier_is_a_usage_error(tmp_path, capsys):
    doc = {"kind": "pfalgebra", "version": 1, "carrier": 1_000_000, "elements": []}
    assert main(["validate", write(tmp_path, "pf.json", json.dumps(doc))]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "$.carrier: carrier capped at 64 points"
    with pytest.raises(DocumentError, match="capped at"):
        parse_document(json.dumps({**doc, "carrier": 65}))
    _, algebra = parse_document(json.dumps({**doc, "carrier": 64}))
    assert algebra.carrier.size == 64


def test_pfalgebra_with_too_many_elements_is_a_usage_error(tmp_path):
    # the 4,096 restrictions of the identity on 12 points, a closed algebra;
    # in a child process, so that checking its closure fails by the timeout
    elements = [[[x, x] for x in range(12) if m >> x & 1] for m in range(1 << 12)]
    doc = {"kind": "pfalgebra", "version": 1, "carrier": 12, "elements": elements}
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", "validate", write(tmp_path, "pf.json", json.dumps(doc))],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=10, capture_output=True, text=True,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert json.loads(run.stderr)["error"] == "$.elements: elements capped at 1024"
    # the empty function is added to the listed graphs, and the cap counts those
    _, algebra = parse_document(json.dumps({**doc, "elements": elements[1:1025]}))
    assert len(algebra.elements) == 1025


def test_non_stable_space_at_the_size_cap_is_decided_in_seconds(tmp_path):
    # identity projection, every set of at least two of the 16 points as
    # basis: 65,519 sets whose pairs meet in singletons, no basis set; in a
    # child process, so that listing its opens fails by the timeout
    basis = [[x for x in range(16) if m >> x & 1] for m in range(1 << 16) if m.bit_count() >= 2]
    path = write(tmp_path, "space.json", space_doc(points=16, base=16, projection=list(range(16)), basis=basis))
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", "validate", path],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=30, capture_output=True, text=True,
    )
    assert run.returncode == 1
    report = json.loads(run.stdout)
    assert report["failures"] == ["basis not intersection-stable"] and report["discrete"]


def test_short_point_labels_are_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "space.json", space_doc(labels=["a"]))
    assert main(["validate", path]) == 2
    assert "labels" in json.loads(capsys.readouterr().err)["error"]
    with pytest.raises(DocumentError):
        parse_document(space_doc(labels=["a", "b", "c"]))
    _, space = parse_document(space_doc(labels=["a", "b"]))
    assert space.label(1) == "b"


def test_validate_missing_file_is_a_usage_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_validate_malformed_document(tmp_path):
    path = write(tmp_path, "junk.json", '{"kind": "algebra"}')
    assert main(["validate", path]) == 2


def test_filters_output(tmp_path, capsys):
    path = fixture_file(tmp_path, "conflicting_pair")
    assert main(["filters", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["maximal_filters"]) == [["{0:0}"], ["{0:1}"]]
    assert len(out["classes"]) == 1


def test_dualize_both_directions(tmp_path, capsys):
    path = fixture_file(tmp_path, "disjoint_pair")
    assert main(["dualize", path]) == 0
    space_text = capsys.readouterr().out
    kind, space = parse_document(space_text)
    assert kind == "space"
    back = write(tmp_path, "space.json", space_text)
    assert main(["dualize", back]) == 0
    kind, algebra = parse_document(capsys.readouterr().out)
    assert kind == "algebra" and algebra.n == 4


def test_complete_emits_the_embedding(tmp_path, capsys):
    path = fixture_file(tmp_path, "disjoint_pair")
    assert main(["complete", path]) == 0
    kind, embedding = parse_document(capsys.readouterr().out)
    assert kind == "morphism"
    assert embedding.source.n == 3 and embedding.target.n == 4


def test_complete_reports_the_completion_on_stderr(tmp_path, capsys):
    path = fixture_file(tmp_path, "disjoint_pair")
    assert main(["complete", path]) == 0
    report = json.loads(capsys.readouterr().err)
    assert set(report) == {
        "embedding", "target_complete", "image_dense", "source_size", "target_size"
    }


def test_complete_runs_each_completion_check_once(tmp_path, capsys, monkeypatch):
    calls = {"hom_check": 0, "is_fin_compatibly_complete": 0}
    for name in calls:
        original = getattr(dra, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        # every module that imported the name gets the counter
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("drest") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(["complete", fixture_file(tmp_path, "disjoint_pair")]) == 0
    # the unit is the representation, an embedding with no check run
    assert calls == {"hom_check": 0, "is_fin_compatibly_complete": 1}
    report = json.loads(capsys.readouterr().err)
    assert report["embedding"] and report["target_complete"] and report["image_dense"]


def test_complete_with_operator(tmp_path, capsys):
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    path = write(tmp_path, "with_d.json", emit_document(alg))
    assert main(["complete", path, "--with-op", "domain"]) == 0
    kind, embedding = parse_document(capsys.readouterr().out)
    assert "domain" in embedding.target.op_names()


def test_complete_with_operator_beyond_the_operator_cap(tmp_path, capsys):
    # a 7-element closure under domain completes to 12 elements, more than
    # the operator checks take; the carried operator is not classified
    carrier = Carrier(3)
    seeds = [PartialFunction.from_graph(carrier, g) for g in ([(1, 0), (2, 2)], [(0, 0)])]
    closed = closure_generate(carrier, seeds, ops=("difference", "restrict", "domain"))
    alg = from_concrete(closed, extra_ops=("domain",))
    size = prod(len(cls) + 1 for cls in maximal_filters(alg).classes)
    assert alg.n == 7 and size == 12 > OPERATOR_ALGEBRA_CAP
    assert main(["complete", write(tmp_path, "with_d.json", emit_document(alg)), "--with-op", "domain"]) == 0
    out, err = capsys.readouterr()
    _, embedding = parse_document(out)
    assert embedding.target.n == json.loads(err)["target_size"] == size
    assert "domain" in embedding.target.op_names()


def test_oversized_carried_table_is_refused_before_the_completion(tmp_path):
    # nine disjoint atoms complete to 2^9 sections, so a ternary carried
    # table would have 512^3 entries; in a child process, so that building
    # it fails by the timeout instead of running for minutes
    carrier = Carrier(9)
    atoms = [PartialFunction.from_graph(carrier, g) for g in [[]] + [[(i, i)] for i in range(9)]]
    alg = from_concrete(ConcretePFAlgebra(carrier, tuple(sorted(atoms, key=lambda f: f.sort_key))))
    alg = alg.with_ops((OpTable("zero", 3, alg.n, (bottom(alg),) * alg.n**3),))
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", "complete", write(tmp_path, "z.json", emit_document(alg)), "--with-op", "zero"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=10, capture_output=True, text=True,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "capped at" in json.loads(run.stderr)["error"]


def test_complete_with_operator_builds_one_unit_and_report(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("unit_eta", "_completion_report", "complete"):
        original = getattr(duality, name)
        monkeypatch.setattr(
            duality, name,
            lambda *a, name=name, original=original, **k: calls.append(name) or original(*a, **k),
        )
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    assert main(["complete", write(tmp_path, "with_d.json", emit_document(alg)), "--with-op", "domain"]) == 0
    assert calls == ["unit_eta", "_completion_report"]
    out, err = capsys.readouterr()
    assert "domain" in parse_document(out)[1].target.op_names()
    assert json.loads(err) == {
        "embedding": True, "target_complete": True, "image_dense": True, "source_size": 3, "target_size": 4,
    }


def child(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``drest`` run as a child process."""
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60, capture_output=True, text=True,
    )
    return run.returncode, run.stdout, run.stderr


NOT_CLOSED = (2, "", json.dumps({"error": "algebra not closed under requested operation"}) + "\n")
# each command, and the exit codes its table documents give on the fixtures
PF_COMMANDS = [
    (("filters",), {0}),
    (("dualize",), {0}),
    (("complete",), {0}),
    (("roundtrip",), {0}),
    (("complete", "--with-op", "domain", "--with-op", "compose"), {0}),
    (("check-op", "range", "--relation"), {0, 2}),
    (("check-op", "override"), {1, 2}),
    (("check-op", "no-such-op"), {2}),
]


@pytest.mark.parametrize("command,codes", PF_COMMANDS, ids=[" ".join(c) for c, _ in PF_COMMANDS])
def test_a_pfalgebra_document_answers_as_its_tables_do(tmp_path, command, codes):
    ops = [a for a in command[1:] if a in ("domain", "compose", "range", "override")]
    answers = set()
    for name in FIXTURES:
        concrete = get_fixture(name).concrete
        if concrete is None:
            continue
        pf = write(tmp_path, f"{name}-pf.json", emit_document(concrete))
        try:
            tables = write(tmp_path, f"{name}.json", emit_document(from_concrete(concrete, ops)))
        except ValueError:
            expected = NOT_CLOSED
        else:
            expected = child(command[0], tables, *command[1:])
        assert child(command[0], pf, *command[1:]) == expected, name
        answers.add(expected[0])
    assert answers == codes


def test_a_pfalgebra_not_closed_under_the_named_operation_is_a_usage_error(tmp_path, capsys):
    # {0:0} overriding {1:1} is {0:0,1:1}, not a member
    path = write(tmp_path, "pf.json", emit_document(disjoint_pair().concrete))
    for argv in (["check-op", path, "override"], ["complete", path, "--with-op", "override"]):
        assert main(argv) == 2
        assert capsys.readouterr() == NOT_CLOSED[1:]


def test_the_operator_cap_refuses_a_pfalgebra_before_any_table_is_built(tmp_path, capsys, monkeypatch):
    # the 16 restrictions of a 4-cycle, and of a constant: closed under
    # difference and restriction, over the cap, and not closed under compose
    # and converse, which were refused as such before the cap
    carrier = Carrier(4)

    def restrictions(total):
        graphs = [[(x, y) for x, y in enumerate(total) if bits >> x & 1] for bits in range(16)]
        elements = sorted((PartialFunction.from_graph(carrier, g) for g in graphs), key=lambda f: f.sort_key)
        return ConcretePFAlgebra(carrier, tuple(elements))

    cycle, constant = restrictions((1, 2, 3, 0)), restrictions((0, 0, 0, 0))
    assert cycle.is_closed_under(("difference", "restrict"))
    assert constant.is_closed_under(("difference", "restrict"))

    def built(*args):
        raise AssertionError("an operation table was built")

    forms = {
        name: (arity, pfun.Pairwise(built, built, built) if arity == 2 else built)
        for name, (arity, _) in pfun.graph_operations(4).items()
    }
    monkeypatch.setattr(pfun, "graph_operations", lambda size: forms)
    capped = ("", json.dumps({"error": "operator checks capped at 10 elements"}) + "\n")
    for family, names in ((cycle, ("override", "compose", "range_restrict")), (constant, ("converse",))):
        path = write(tmp_path, "big.json", emit_document(family))
        for name in names:
            for argv in (["check-op", path, name], ["complete", path, "--with-op", name]):
                assert main(argv) == 2, argv
                assert capsys.readouterr() == capped


UNKNOWN = ("", json.dumps({"error": "no operation named 'no-such-op'"}) + "\n")


def test_an_unknown_operation_is_refused_by_its_name(tmp_path, capsys):
    concrete = boolean_four().concrete
    for document in (emit_document(concrete), emit_document(from_concrete(concrete))):
        path = write(tmp_path, "doc.json", document)
        for argv in (["check-op", path, "no-such-op"], ["complete", path, "--with-op", "no-such-op"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == UNKNOWN


def test_an_unknown_operation_is_refused_before_any_table_is_built(tmp_path, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a table was built")

    path = write(tmp_path, "pf.json", emit_document(boolean_four().concrete))
    monkeypatch.setattr(dra, "from_masks", built)
    for argv in (["check-op", path, "no-such-op"], ["complete", path, "--with-op", "no-such-op"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == UNKNOWN


def unclosed_pfalgebra(tmp_path) -> str:
    """{0:0,1:1} and {0:0}, whose difference {1:1} is missing."""
    carrier = Carrier(2)
    elements = [PartialFunction.from_graph(carrier, g) for g in ([(0, 0)], [(0, 0), (1, 1)])]
    document = emit_document(ConcretePFAlgebra(carrier, tuple(elements)))
    return write(tmp_path, "unclosed.json", document)


@pytest.mark.parametrize(
    "argv",
    [
        ["filters"],
        ["dualize"],
        ["complete"],
        ["complete", "--with-op", "override"],
        ["roundtrip"],
        ["check-op", "range"],
        ["check-op", "override", "--relation"],
    ],
)
def test_a_pfalgebra_not_closed_under_difference_fails_validation(tmp_path, capsys, argv):
    # difference and restriction are decided before any named operation,
    # so every command gives the verdict of validate
    assert main([argv[0], unclosed_pfalgebra(tmp_path), *argv[1:]]) == 1
    invalid = json.dumps({"error": "input algebra fails validation"}) + "\n"
    assert capsys.readouterr() == ("", invalid)


def test_validate_finds_the_unclosed_pfalgebra_not_closed(tmp_path, capsys):
    assert main(["validate", unclosed_pfalgebra(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"kind": "pfalgebra", "closed": False}


def test_roundtrip_command(tmp_path, capsys):
    for name in ("disjoint_pair", "conflicting_pair", "boolean_four", "single_point"):
        path = fixture_file(tmp_path, name)
        assert main(["roundtrip", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(out.values())


def test_roundtrip_completes_once_with_the_same_output(tmp_path, capsys, monkeypatch):
    original = duality.complete
    calls = []
    monkeypatch.setattr(duality, "complete", lambda alg: calls.append(alg) or original(alg))
    for name in FIXTURES:
        if name == "broken_restriction":
            continue
        calls.clear()
        assert main(["roundtrip", fixture_file(tmp_path, name)]) == 0
        assert len(calls) == 1
        # the output that completing the completion gives: its unit is a
        # bijection
        algebra = get_fixture(name).algebra
        triangles = duality.check_triangle_identities(algebra)
        completed, _ = original(algebra)
        twice, iota = original(completed)
        expected = {
            "completion_idempotent": twice.n == completed.n and len(set(iota.table)) == twice.n,
            "triangle_algebra_side": triangles.algebra_side,
            "triangle_space_side": triangles.space_side,
        }
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"


def test_check_hom_command(tmp_path, capsys):
    incl = inclusion_disjoint_into_boolean()
    path = write(tmp_path, "incl.json", emit_document(incl))
    assert main(["check-hom", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hom"] and out["embedding"]
    # the top of the cube lies below no single image element
    assert out["proper"] is False


def test_check_hom_dualize(tmp_path, capsys):
    incl = inclusion_disjoint_into_boolean()
    path = write(tmp_path, "incl.json", emit_document(incl))
    assert main(["check-hom", path, "--dualize"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    dual = json.loads(lines[-1])
    assert set(dual) == {"source", "target", "map"}


def test_check_op_command(tmp_path, capsys):
    alg = from_concrete(disjoint_pair().concrete, extra_ops=("domain",))
    path = write(tmp_path, "with_d.json", emit_document(alg))
    assert main(["check-op", path, "domain", "--relation"]) == 0
    out = capsys.readouterr().out
    first = json.loads(out.splitlines()[0])
    assert first["compat_preserving_operator"] is True
    kind, rel = parse_document(out.split("\n", 1)[1])
    assert kind == "relation"

    alg2 = from_concrete(conflicting_pair().concrete, extra_ops=("override",))
    path2 = write(tmp_path, "with_o.json", emit_document(alg2))
    assert main(["check-op", path2, "override"]) == 1

    assert main(["check-op", path, "missing"]) == 2


def test_classify_op_command(tmp_path, capsys):
    path = write(
        tmp_path, "pf.json", emit_document(conflicting_pair().concrete)
    )
    assert main(["classify-op", path]) == 0
    rows = {r["operation"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["domain"]["compat_preserving_operator"] is True
    assert rows["override"]["compat_preserving"] is False
    assert rows["update"]["implemented"] is False


def test_classify_op_refuses_an_input_over_the_cap_at_once(tmp_path):
    # the 625 partial functions on four points already exceed the operator cap
    carrier = Carrier(4)
    path = write(tmp_path, "all.json", emit_document(ConcretePFAlgebra(carrier, enumerate_all_pfs(carrier))))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "drest.cli", "classify-op", path],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    over = "closure exceeds the operator check cap"
    expected = [
        *({"implemented": False, "note": over, "operation": name} for name in (
            "compose", "domain", "range", "fixset", "identity", "range_restrict", "antidomain", "override",
        )),
        {"implemented": False, "note": "converse of a non-injective partial function", "operation": "converse"},
        {"implemented": False, "note": "no definition adopted", "operation": "update"},
    ]
    assert run.returncode == 0
    assert run.stdout == json.dumps(expected, sort_keys=True) + "\n"
    assert elapsed < 1.0


def test_catalog_lists_all_fixtures(capsys):
    assert main(["catalog"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "disjoint_pair" in out and "broken_restriction" in out
    for entry in out.values():
        assert entry["algebra"]["kind"] == "algebra"


def test_catalog_is_deterministic(capsys):
    main(["catalog"])
    first = capsys.readouterr().out
    main(["catalog"])
    assert capsys.readouterr().out == first


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    text = emit_document(disjoint_pair().algebra)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["validate", "-"]) == 0


# start-up is most of a command's time, so a command loads only the modules
# it runs; numpy is for the test oracles only, and no record type generates
# code, so neither dataclasses nor the inspect module it imports is loaded
LOADS_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from drest.cli import main
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(
    m for m in sys.modules if m in ("numpy", "dataclasses", "inspect") or m.startswith("drest")
)]))
"""
BASE = ("drest", "drest.cli", "drest.documents", "drest.dra")
DUAL = BASE + ("drest.duality", "drest.filters")
CLASSIFY = BASE + ("drest.operators", "drest.pfun")
OPS = DUAL + CLASSIFY[len(BASE):]
LOAD_CASES = [
    (("--help",), 0, BASE),
    (("validate", "algebra"), 0, BASE),
    (("validate", "invalid"), 1, BASE),
    (("validate", "pfalgebra"), 0, BASE + ("drest.pfun",)),
    (("check-hom", "morphism"), 0, BASE),
    *[((command, "malformed"), 2, BASE) for command in (
        "validate", "filters", "dualize", "complete", "roundtrip", "check-hom", "classify-op"
    )],
    (("check-op", "malformed", "domain"), 2, BASE),
    (("classify-op", "algebra"), 2, BASE),
    *[((command, "invalid"), 1, BASE) for command in ("filters", "dualize", "complete", "roundtrip")],
    (("check-op", "invalid", "domain"), 1, BASE),
    (("complete", "invalid", "--with-op", "domain"), 1, BASE),
    (("validate", "space"), 0, DUAL),
    (("dualize", "space"), 0, DUAL),
    (("dualize", "invalid-space"), 1, DUAL),
    (("roundtrip", "space"), 0, DUAL),
    *[((command, "algebra"), 0, DUAL) for command in ("filters", "dualize", "complete", "roundtrip")],
    (("check-hom", "morphism", "--dualize"), 0, DUAL),
    (("check-op", "with-op", "domain"), 0, CLASSIFY),
    (("check-op", "with-op", "domain", "--relation"), 0, OPS),
    (("complete", "with-op", "--with-op", "domain"), 0, OPS),
    (("classify-op", "pfalgebra"), 0, CLASSIFY),
    *[((command, "pfalgebra"), 0, DUAL + ("drest.pfun",)) for command in (
        "filters", "dualize", "complete", "roundtrip"
    )],
    (("check-op", "pfalgebra", "domain"), 0, CLASSIFY),
    (("check-op", "pfalgebra", "domain", "--relation"), 0, OPS),
    (("catalog",), 0, BASE + ("drest.fixtures", "drest.pfun")),
]


@pytest.mark.parametrize("argv,code,modules", LOAD_CASES, ids=[" ".join(c[0]) for c in LOAD_CASES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, modules):
    algebra = disjoint_pair().algebra
    texts = {
        "algebra": emit_document(algebra),
        "invalid": emit_document(broken_restriction().algebra),
        "malformed": "{",
        "space": emit_document(F_object(algebra)),
        "invalid-space": space_doc(basis=[[0, 1]]),
        "morphism": emit_document(inclusion_disjoint_into_boolean()),
        "with-op": emit_document(from_concrete(disjoint_pair().concrete, extra_ops=("domain",))),
        "pfalgebra": emit_document(disjoint_pair().concrete),
    }
    argv = [write(tmp_path, f"{a}.json", texts[a]) if a in texts else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", LOADS_CHILD, *argv],
        env=env, check=True, timeout=60, capture_output=True, text=True,
    )
    assert json.loads(run.stdout) == [code, sorted(modules)]


def test_survey_script_counts_the_two_point_closures():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_closures.py"), "--max-carrier", "2"],
        env=env, check=True, timeout=60, capture_output=True, text=True,
    )
    counts = dict(line.split(": ", 1) for line in run.stdout.splitlines())
    assert counts["closures generated and validated"] == "48"
    assert counts["already complete"] == "36"
    assert counts["completions refused at the sections cap"] == "0"
