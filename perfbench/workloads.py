"""The four seeded workloads and the answer check for each item.

A workload turns a seed into strata: lists of items that cost about the same,
each with a weight.  Every batch holds ``weight`` items of every stratum, so
all batches have the same mix, and a run that stops between batches has the
mix of the whole workload.  Batches draw from each stratum cyclically; a run
that needs more batches than the pool holds sees its items again.

``run`` makes only the library calls of an item and records the answers in
``out``; ``judge`` checks them afterwards, outside the timed region.  The
library is always called through its module attributes, so that a tracer
that rebinds those attributes sees the calls.
"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Optional, Sequence

from drest import cli, documents, dra, duality, filters, operators, pfun
from drest.operators import OPERATOR_ALGEBRA_CAP
from drest.pfun import Carrier, enumerate_all_pfs

from perfbench import checks
from perfbench.checks import CAP_MARKER, is_refusal

POOL_BATCHES = 12  # batches of generated items before a stratum repeats
MAX_TRIES = 200_000  # rejection-sampling guard; no stratum needs nearly this many


@dataclass(frozen=True)
class Stratum:
    name: str
    weight: int
    items: tuple


def batch(strata: Sequence[Stratum], index: int) -> list:
    items = []
    for stratum in strata:
        for j in range(index * stratum.weight, (index + 1) * stratum.weight):
            items.append(stratum.items[j % len(stratum.items)])
    return items


def verdict(problems: Sequence[Optional[str]], error: Optional[BaseException]) -> tuple[str, str]:
    """Status and reason: "ok", "refused" (a size cap hit on a legal input)
    or "failed"."""
    wrong = [p for p in problems if p]
    if wrong:
        return "failed", "; ".join(wrong)
    if error is None:
        return "ok", ""
    if is_refusal(error):
        return "refused", str(error)
    return "failed", f"unexpected {type(error).__name__}: {error}"


def _shuffled(rng: random.Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def two_seed_closures() -> list:
    """Every distinct closure of at most two partial functions on carriers
    1-3 (the acceptance-test corpus: 1,944 algebras)."""
    seen: set = set()
    out = []
    for size in (1, 2, 3):
        carrier = Carrier(size)
        for seeds in combinations_with_replacement(enumerate_all_pfs(carrier), 2):
            closed = pfun.closure_generate(carrier, list(seeds))
            key = (size, tuple(f.values for f in closed.elements))
            if key not in seen:
                seen.add(key)
                out.append(closed)
    return out


def random_space(rng: random.Random, points: int, valid: bool) -> duality.EtaleSpace:
    """Points over 1..points base points with an onto projection.  The basis
    is every singleton plus up to three random unions; an invalid space has
    one singleton dropped, so that point is not separated from the others."""
    n_base = rng.randint(1, points)
    projection = list(range(n_base)) + [rng.randrange(n_base) for _ in range(points - n_base)]
    rng.shuffle(projection)
    basis = {frozenset({x}) for x in range(points)}
    for _ in range(rng.randint(0, 3)):
        basis.add(frozenset(rng.sample(range(points), rng.randint(2, points))))
    if not valid:
        basis.discard(frozenset({rng.randrange(points)}))
    return duality.EtaleSpace(points, n_base, tuple(projection), tuple(sorted(basis, key=sorted)))


class Workload:
    name = ""
    trace_batches = 1  # fixed work of a traced run, so its counts repeat
    spawns = False  # items run as child processes

    def generate(self, rng: random.Random) -> list[Stratum]:
        raise NotImplementedError

    def run(self, item, out: dict) -> None:
        raise NotImplementedError

    def run_in_process(self, item, out: dict) -> None:
        self.run(item, out)

    def judge(self, item, out: dict, error: Optional[BaseException]) -> tuple[str, str]:
        raise NotImplementedError

    def warm_up(self, strata: Sequence[Stratum]) -> None:
        for item in batch(strata, 0)[:3]:
            try:
                self.run(item, {})
            except Exception:  # the timed loop judges every item
                pass


# ---------------------------------------------------------------------------

class AlgebraRoundtrip(Workload):
    """What ``drest roundtrip`` does, plus the filter scan, on every closure
    of two seeds on carriers 1-3 and on seeded closures of three seeds."""

    name = "algebra-roundtrip"
    trace_batches = 2
    # carrier size -> {atom count: items per batch} for three-seed closures
    # with n <= 16; the atom count sets the cost.  The costliest class gets
    # two per batch, so the tail percentile falls inside it.
    THREE_SEED_ATOMS = {3: {4: 1, 5: 1, 6: 1}, 4: {4: 1, 5: 1, 6: 1, 7: 2}}
    CORPUS_SHARE = 40  # the corpus spreads over this many batches

    def generate(self, rng):
        by_size: dict[int, list] = {}
        for closed in two_seed_closures():
            by_size.setdefault(len(closed), []).append(closed)
        strata = [
            Stratum(f"corpus-n{n}", max(1, round(len(items) / self.CORPUS_SHARE)), _shuffled(rng, items))
            for n, items in sorted(by_size.items())
        ]
        for size, atom_counts in self.THREE_SEED_ATOMS.items():
            found = self._three_seed(rng, size, atom_counts)
            strata += [
                Stratum(f"3seed-c{size}-k{k}", weight, tuple(found[k]))
                for k, weight in atom_counts.items()
            ]
        return strata

    @staticmethod
    def _three_seed(rng, size, atom_counts) -> dict[int, list]:
        carrier = Carrier(size)
        pool = enumerate_all_pfs(carrier)
        want = {k: weight * POOL_BATCHES for k, weight in atom_counts.items()}
        found: dict[int, list] = {k: [] for k in atom_counts}
        for _ in range(MAX_TRIES):
            if all(len(found[k]) >= want[k] for k in want):
                return found
            closed = pfun.closure_generate(carrier, rng.sample(pool, 3))
            if len(closed) > filters.FILTER_SIZE_CAP:
                continue
            atoms, _ = checks.algebra_facts(dra.from_concrete(closed))
            if atoms in found and len(found[atoms]) < want[atoms]:
                found[atoms].append(closed)
        raise RuntimeError(f"three-seed strata on carrier {size} not filled")

    def run(self, closed, out):
        algebra = dra.from_concrete(closed)
        out["algebra"] = algebra
        out["axioms"] = dra.validate_axioms(algebra).ok
        out["filters"] = len(filters.maximal_filters(algebra).points)
        completed, _ = duality.complete(algebra)
        out["completion"] = completed.n
        triangles = duality.check_triangle_identities(algebra)
        again, iota = duality.complete(completed)
        out["flags"] = {
            "triangle_space_side": triangles.space_side,
            "triangle_algebra_side": triangles.algebra_side,
            "completion_idempotent": again.n == completed.n and len(set(iota.table)) == again.n,
        }

    def judge(self, closed, out, error):
        problems = []
        if "algebra" in out:
            atoms, size = checks.algebra_facts(out["algebra"])
            if "axioms" in out:
                problems.append(checks.check_axioms(out["axioms"]))
            if "filters" in out:
                problems.append(checks.check_filter_count(out["filters"], atoms))
            if "completion" in out:
                problems.append(checks.check_completion(out["completion"], size))
            if "flags" in out:
                problems.append(checks.check_flags(out["flags"]))
        return verdict(problems, error)


class SpaceDualize(Workload):
    """Validate a generated space and, when it is valid, build its dual
    algebra of sections."""

    name = "space-dualize"
    trace_batches = 2
    # (points, valid) -> items per batch; the weights put the median and the
    # tail percentile inside a size class, not on the step between two
    WEIGHTS = {
        (5, True): 4,
        (6, True): 10,
        (7, True): 3,
        (8, True): 1,
        (5, False): 2,
        (6, False): 2,
        (7, False): 1,
        (8, False): 1,
    }

    POOL_BATCHES = 40  # spaces are cheap to generate, and more of them steady the tail

    def generate(self, rng):
        return [
            Stratum(
                f"{points}pt-{'valid' if valid else 'invalid'}",
                weight,
                tuple(random_space(rng, points, valid) for _ in range(weight * self.POOL_BATCHES)),
            )
            for (points, valid), weight in self.WEIGHTS.items()
        ]

    def run(self, space, out):
        report = duality.validate_etale(space)
        out["valid"] = report.ok
        if report.ok:
            out["sections"] = len(duality.G_object(space).sections)

    def judge(self, space, out, error):
        valid, sections = checks.space_expectation(
            space.n_points, space.n_base, space.projection, space.basis
        )
        problems = []
        if "valid" in out:
            problems.append(checks.check_equal("validate_etale verdict", out["valid"], valid))
        if "sections" in out:
            problems.append(checks.check_equal("sections vs prod(|fibre|+1)", out["sections"], sections))
        return verdict(problems, error)


class OperatorClassify(Workload):
    """Classify a named concrete operation on a closure under it; carry a
    compatibility-preserving operator through its relation and completion."""

    name = "operator-classify"
    trace_batches = 6
    OPS = ("domain", "range", "fixset", "compose", "range_restrict", "override", "antidomain")
    # algebra sizes n of the strata, and items per batch in each band.  The
    # smallest band is the largest, so the median falls inside it and not
    # between two bands.  The two costliest strata (HEAVY in the top band)
    # get one item per batch, so a run holds a few dozen of them and the tail
    # percentile falls inside them rather than at their sparse top.
    BANDS = ((1, 4), (5, 7), (8, OPERATOR_ALGEBRA_CAP))
    BAND_WEIGHTS = (9, 3, 3)
    BAND_POOLS = (48, 24, 24)  # distinct items per stratum
    HEAVY = ("compose", "range_restrict")
    HEAVY_POOL = 48

    def generate(self, rng):
        pools = {size: enumerate_all_pfs(Carrier(size)) for size in (1, 2, 3)}
        strata = []
        for op in self.OPS:
            for band, (lo, hi) in enumerate(self.BANDS):
                heavy = op in self.HEAVY and band == 2
                wanted = self.HEAVY_POOL if heavy else self.BAND_POOLS[band]
                found = []
                for _ in range(MAX_TRIES):
                    # larger bands draw from the carriers that reach them
                    size = rng.randint(1 + band, 3)
                    closed = pfun.closure_generate(
                        Carrier(size), rng.choices(pools[size], k=2), ops=("difference", "restrict", op)
                    )
                    if lo <= len(closed) <= hi:
                        found.append((op, closed))
                        if len(found) == wanted:
                            break
                else:
                    raise RuntimeError(f"operator stratum {op} n={lo}..{hi} not filled")
                weight = 1 if heavy else self.BAND_WEIGHTS[band]
                strata.append(Stratum(f"{op}-n{lo}-{hi}", weight, tuple(found)))
        return strata

    def run(self, item, out):
        op, closed = item
        algebra = dra.from_concrete(closed, extra_ops=(op,))
        bare, table = algebra.with_ops(()), algebra.op(op)
        out["algebra"] = bare
        out["cpo"] = operators.classify_operator(bare, table).is_compat_preserving_operator
        if out["cpo"]:
            relation = operators.relation_from_operator(bare, table)
            out["relation_ok"] = operators.check_relation_properties(relation).ok
            completed, _, _ = operators.complete_with_operators(bare, [table])
            out["completion"] = completed.n

    def judge(self, item, out, error):
        op, closed = item
        problems = []
        if "cpo" in out:
            expected = checks.expected_compat_preserving_operator(op, len(closed))
            problems.append(checks.check_equal(f"{op} classification", out["cpo"], expected))
        if "relation_ok" in out:
            problems.append(checks.check_equal(f"{op} relation properties", out["relation_ok"], True))
        if "completion" in out:
            _, size = checks.algebra_facts(out["algebra"])
            problems.append(checks.check_completion(out["completion"], size))
        return verdict(problems, error)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliItem:
    kind: str
    argv: tuple[str, ...]
    code: int  # expected exit code, known from how the document was built
    facts: tuple = ()  # expected output facts, read by CliDocuments.check_output
    may_refuse: bool = False  # the command can hit a size cap after some work


class CliDocuments(Workload):
    """``python -m drest.cli <subcommand> <document>`` as a child process,
    one at a time, on documents written from the generators above."""

    name = "cli-documents"
    trace_batches = 3
    spawns = True
    CHILD_TIMEOUT_S = 60
    KINDS = (
        "validate-algebra",
        "validate-space",
        "filters",
        "dualize-algebra",
        "dualize-space",
        "complete",
        "complete-with-op",
        "roundtrip",
        "check-op",
        "classify-op",
        "corrupt-algebra",
        "corrupt-space",
        "malformed",
    )
    SUBCOMMANDS = ("validate", "filters", "dualize", "complete", "roundtrip")

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    # -- documents ----------------------------------------------------------

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    @staticmethod
    def _closure(rng, ops=("difference", "restrict")):
        """A closure of one or two seeds with 2..OPERATOR_ALGEBRA_CAP elements."""
        while True:
            size = rng.randint(2, 3)
            seeds = rng.sample(enumerate_all_pfs(Carrier(size)), rng.randint(1, 2))
            closed = pfun.closure_generate(Carrier(size), seeds, ops=ops)
            if 2 <= len(closed) <= OPERATOR_ALGEBRA_CAP:
                return closed

    def _item(self, rng, kind: str, tag: str) -> CliItem:
        if kind in ("validate-space", "dualize-space", "corrupt-space"):
            valid = kind != "corrupt-space"
            space = random_space(rng, rng.randint(4, 6), valid)
            path = self._write(f"{tag}.json", documents.emit_document(space))
            _, sections = checks.space_expectation(
                space.n_points, space.n_base, space.projection, space.basis
            )
            if kind == "dualize-space":
                return CliItem(kind, ("dualize", path), 0, (sections,))
            return CliItem(kind, ("validate", path), 0 if valid else 1)
        if kind == "classify-op":
            path = self._write(f"{tag}.json", documents.emit_document(self._closure(rng)))
            return CliItem(kind, ("classify-op", path), 0)
        if kind in ("complete-with-op", "check-op"):
            ops = checks.COMPAT_PRESERVING_OPS if kind == "complete-with-op" else OperatorClassify.OPS
            op = rng.choice(ops)
            closed = self._closure(rng, ("difference", "restrict", op))
            algebra = dra.from_concrete(closed, extra_ops=(op,))
            path = self._write(f"{tag}.json", documents.emit_document(algebra))
            if kind == "check-op":
                expected = checks.expected_compat_preserving_operator(op, algebra.n)
                return CliItem(kind, ("check-op", path, op, "--relation"), 0 if expected else 1)
            _, size = checks.algebra_facts(algebra)
            return CliItem(kind, ("complete", path, "--with-op", op), 0, (size,), may_refuse=True)

        algebra = dra.from_concrete(self._closure(rng))
        atoms, classes = checks.order_facts(algebra.n, algebra.minus.entries, algebra.rest.entries)
        doc = documents.algebra_to_dict(algebra)
        if kind == "corrupt-algebra":
            # rest(x, x) must be x, by law 5 at (x, x); point it at the bottom
            x = rng.choice([a for a in range(algebra.n) if a != algebra.minus.entries[0]])
            doc["rest"][x][x] = algebra.elements[algebra.minus.entries[0]]
            path = self._write(f"{tag}.json", json.dumps(doc))
            return CliItem(kind, (rng.choice(self.SUBCOMMANDS), path), 1)
        if kind == "malformed":
            flaw = rng.randrange(5)
            if flaw == 0:
                text = json.dumps(doc)[:-7]  # cut short: not JSON
            elif flaw == 1:
                text = json.dumps(dict(doc, version=99))
            elif flaw == 2:
                doc["minus"][0][0] = "no-such-element"
                text = json.dumps(doc)
            elif flaw == 3:
                text = json.dumps({k: v for k, v in doc.items() if k != "rest"})
            else:  # a space where only an algebra is accepted
                text = documents.emit_document(random_space(rng, 3, True))
            subcommands = ("filters", "complete") if flaw == 4 else self.SUBCOMMANDS
            path = self._write(f"{tag}.json", text)
            return CliItem(kind, (rng.choice(subcommands), path), 2)

        path = self._write(f"{tag}.json", documents.emit_document(algebra))
        size = checks.completion_size(classes)
        if kind == "validate-algebra":
            return CliItem(kind, ("validate", path), 0)
        if kind == "filters":
            return CliItem(kind, ("filters", path), 0, (len(atoms),))
        if kind == "dualize-algebra":
            return CliItem(kind, ("dualize", path), 0, (len(atoms), len(classes)))
        if kind == "complete":
            return CliItem(kind, ("complete", path), 0, (size,))
        if kind == "roundtrip":
            return CliItem(kind, ("roundtrip", path), 0, may_refuse=True)
        raise ValueError(f"unknown item kind {kind!r}")

    def generate(self, rng):
        return [
            Stratum(kind, 1, tuple(self._item(rng, kind, f"{kind}-{i}") for i in range(POOL_BATCHES)))
            for kind in self.KINDS
        ]

    # -- running ------------------------------------------------------------

    def run(self, item, out):
        proc = subprocess.run(
            [sys.executable, "-m", "drest.cli", *item.argv],
            capture_output=True,
            text=True,
            timeout=self.CHILD_TIMEOUT_S,
            env=self.env,
            cwd=self.root,
        )
        out["code"], out["stdout"], out["stderr"] = proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, item, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(item.argv))
        out["code"], out["stdout"], out["stderr"] = code, stdout.getvalue(), stderr.getvalue()

    def warm_up(self, strata):
        self.run(batch(strata, 0)[0], {})

    def judge(self, item, out, error):
        if error is not None or "code" not in out:
            return verdict([], error or RuntimeError("no exit code"))
        code = out["code"]
        if item.may_refuse and code == 2 and CAP_MARKER in out["stderr"]:
            return "refused", out["stderr"].strip()
        problem = checks.check_equal("exit code", code, item.code)
        if problem is None and code == 0:
            problem = self.check_output(item, out["stdout"])
        return verdict([problem], None)

    @staticmethod
    def check_output(item: CliItem, stdout: str) -> Optional[str]:
        kind = item.kind
        if kind == "check-op":
            return None  # the exit code carries the verdict
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{kind}: output is not JSON ({exc})"
        if kind in ("validate-algebra", "validate-space"):
            return checks.check_equal(f"{kind} verdict", doc.get("valid"), True)
        if kind == "filters":
            return checks.check_filter_count(len(doc["maximal_filters"]), item.facts[0])
        if kind == "dualize-algebra":
            return checks.check_equal(
                "dual space (points, base)", (doc["points"], doc["base"]), item.facts
            )
        if kind == "dualize-space":
            return checks.check_equal("sections vs prod(|fibre|+1)", len(doc["elements"]), item.facts[0])
        if kind in ("complete", "complete-with-op"):
            return checks.check_completion(len(doc["target"]["elements"]), item.facts[0])
        if kind == "roundtrip":
            return checks.check_flags(doc)
        if kind == "classify-op":
            verdicts = {
                row["operation"]: row["compat_preserving_operator"]
                for row in doc
                if "compat_preserving_operator" in row
            }
            for op in checks.COMPAT_PRESERVING_OPS + checks.NON_OPERATOR_OPS:
                if op in verdicts:
                    expected = op in checks.COMPAT_PRESERVING_OPS
                    problem = checks.check_equal(f"classify-op {op}", verdicts[op], expected)
                    if problem:
                        return problem
            return None
        return f"no output check for {kind}"


def make(name: str, root: Path, workdir: Path) -> Workload:
    if name == CliDocuments.name:
        return CliDocuments(root, workdir)
    for cls in (AlgebraRoundtrip, SpaceDualize, OperatorClassify):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (AlgebraRoundtrip.name, SpaceDualize.name, OperatorClassify.name, CliDocuments.name)
