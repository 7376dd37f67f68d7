"""The benchmark's workloads: seeded inputs, jobs, and their oracles.

A workload turns (seed, round index) into a list of jobs.  Each job has a
``run`` part, which is timed and calls the library under the tracer's spans,
and a ``check`` part, which is not timed and compares the output with an
oracle that does not depend on the seed: a committed reference digest
(``references.json``) or an algebraic identity.  A check raises on any
disagreement and on a missing reference, so a wrong or unverifiable output
counts as a failed job.

Every round builds fresh group and algebra objects, as each CLI invocation
does; no library cache is cleared between rounds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import random
import signal
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Iterator

from heckepieces.b4_example import (
    check_chi,
    check_conjectures,
    check_group_facts,
    check_restrictions,
)
from heckepieces.charsheaf_b4 import build_context, conjecture_report, report_as_dict
from heckepieces.cli import load_kl_cache, save_kl_cache
from heckepieces.coxeter import coxeter_group
from heckepieces.hecke import (
    HeckeAlgebra,
    WeightFunction,
    canonical_basis,
    inverse_kl,
    kl_table,
)
from heckepieces.laurent import Laurent
from heckepieces.pieces import (
    E_operator,
    bedard_inverse,
    bedard_sequence,
    closure_hasse,
    piece_dimension,
    piece_indices,
    twisted_normalizer,
)

from tracing import counting

# Coxeter matrices of the groups built on the generic (matrix) backend.
MATRICES = {
    "A3": ((1, 3, 2), (3, 1, 3), (2, 3, 1)),
    "B3": ((1, 4, 2), (4, 1, 3), (2, 3, 1)),
    "H3": ((1, 5, 2), (5, 1, 3), (2, 3, 1)),
    "I2(5)": ((1, 5), (5, 1)),
    "A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "B4": ((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "D4": ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),  # node 2 central
}
ORDERS = {"A3": 24, "B2": 8, "B3": 48, "B4": 384, "D4": 192, "A4": 120}


class Mismatch(Exception):
    """An output disagrees with its oracle, or has no oracle to agree with."""


class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def seeded(*parts) -> random.Random:
    # str seeds go through SHA-512, so the stream is the same in every process
    return random.Random("/".join(map(str, parts)))


def digest(obj) -> str:
    data = json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode()
    return hashlib.sha256(data).hexdigest()


def cli_json_digest(payload) -> str:
    """Digest of ``payload`` rendered exactly as the CLI renders JSON."""
    text = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expect(refs: dict, key: str, actual: str) -> None:
    want = refs.get(key)
    if want is None:
        raise Mismatch(f"no reference for {key}")
    if actual != want:
        raise Mismatch(f"{key}: got {actual[:16]}, reference {want[:16]}")


def group_of(label: str, relabel: tuple[int, ...] | None = None):
    """``B<n>`` on the signed-permutation backend, ``matrix:<name>`` on the
    generic backend with node i relabelled relabel[i]."""
    if not label.startswith("matrix:"):
        return coxeter_group(label)
    m = MATRICES[label[len("matrix:"):]]
    p = relabel or tuple(range(len(m)))
    return coxeter_group([[m[p[i]][p[j]] for j in range(len(m))] for i in range(len(m))])


def short_name(label: str) -> str:
    return label[len("matrix:"):] if label.startswith("matrix:") else label


def laurent_items(p: Laurent) -> list:
    return [[e, c] for e, c in p.items()]


def q_coefficients(p: Laurent) -> list[int]:
    return [p.coeff(e) for e in range(0, p.max_exp() + 1, 2)]


def comparable_pairs(group):
    return [(y, w) for w in group.elements() for y in group.bruhat_lower(w)]


def kl_multiset(kl) -> list:
    """P_{y,w} over all pairs y <= w, as a sorted list of (l(y), l(w),
    q-coefficients).  It reads the table only through ``get``, so it does
    not depend on which pairs the table stores, and it does not depend on
    how the generators are labelled."""
    length = kl.group.length
    return sorted([length(y), length(w), q_coefficients(kl.get(y, w))]
                  for y, w in comparable_pairs(kl.group))


def cache_multiset(text: str) -> list:
    """The same multiset, read from the bytes of a cache file (a record's
    words are reduced, so their lengths are their lengths in the group)."""
    out = []
    for line in text.split("\n")[1:]:
        if line:
            y, w, coeffs = line.split("\t")
            out.append([0 if y == "∅" else len(y), 0 if w == "∅" else len(w),
                        [int(c) for c in coeffs.split(",")]])
    return sorted(out)


def inverse_kl_rows(group, ikl: dict) -> list:
    ws = group.word_str
    return sorted([ws(x), ws(z), laurent_items(p)] for (x, z), p in ikl.items())


def canonical_basis_rows(basis) -> list:
    group = basis.algebra.group
    ws = group.word_str
    rows = []
    for z in sorted(basis.vectors, key=group.sort_key):
        vec = basis.vectors[z]
        rows.append([ws(z), [[ws(t), laurent_items(vec.coeff(t))] for t in vec.support()]])
    return rows


def example_payload(ctx, checks, report) -> dict:
    """The ``example-b4 --format json`` document."""
    return {
        "schema": 1,
        "checks": [
            {"name": c.name, "passed": c.passed, "summary": c.summary,
             "failures": list(c.failures)}
            for c in checks
        ],
        "report": report_as_dict(ctx, report),
        "all_pass": all(c.passed for c in checks),
    }


def pieces_payload(group, J, idx, normalizer, datas, dims, covers) -> dict:
    """The ``pieces --format json`` document."""
    ws = group.word_str
    entries = []
    for w, data in zip(idx, datas):
        entry = {
            "word": ws(w),
            "n0": data.n0,
            "index_sets": [sorted(Jn) for Jn, _ in data.steps],
            "coset_minima": [ws(wn) for _, wn in data.steps],
            "stable_set": sorted(data.J_infinity),
            "stable_minimum": ws(data.w_infinity),
        }
        if dims is not None:
            entry["dimension"] = dims[w]
        entries.append(entry)
    return {
        "type": group.type_tag,
        "J": sorted(J),
        "piece_indices": entries,
        "normalizer": [ws(w) for w in normalizer],
        "closure_covers": [[ws(a), ws(b)] for a, b in covers],
    }


def seeded_laurent(rng: random.Random) -> Laurent:
    return Laurent({rng.randint(-3, 3): rng.choice((-2, -1, 1, 2, 3)) for _ in range(2)})


def _set_key(J) -> str:
    return ",".join(str(i) for i in sorted(J))


def group_job(label: str, state: dict, tr) -> Job:
    """Build a group for the round's later jobs, which find it in ``state``."""
    def run():
        with tr.span("coxeter.group"):
            group = group_of(label)
            group.elements()
        state[label] = group
        return group

    def check(group):
        if len(group.elements()) != ORDERS[short_name(label)]:
            raise Mismatch(f"{label} has {len(group.elements())} elements")
        return {}

    return Job(f"group {label}", run, check)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """Base: a seeded source of rounds.  ``setup`` builds fixtures once per
    process; ``jobs`` returns one round's jobs."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, refs: dict):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.refs = refs

    def setup(self) -> None:
        pass

    def jobs(self, round_index: int, tr) -> list[Job]:
        raise NotImplementedError

    def reference_keys(self) -> set[str]:
        """Every reference key that some seed can make a check look up."""
        raise NotImplementedError


class KLWrite(Workload):
    """The first ``kl --type T --cache F``: build the group, its full KL
    table, and write the cache."""

    name = "kl-write"

    def groups(self) -> tuple[str, ...]:
        if self.smoke:
            return ("B3", "matrix:A3", "matrix:I2(5)", "matrix:B3")
        return ("B4", "matrix:D4", "matrix:H3", "matrix:B4")

    def reference_keys(self) -> set[str]:
        keys = {f"kl.multiset.{short_name(g)}" for g in self.groups()}
        return keys | {f"kl.cache.{g}" for g in self.groups() if not g.startswith("matrix:")}

    def jobs(self, round_index, tr):
        rng = seeded(self.seed, round_index, self.name)
        jobs = []
        for label in self.groups():
            relabel = None
            if label.startswith("matrix:"):
                n = len(MATRICES[short_name(label)])
                relabel = tuple(rng.sample(range(n), n))
            jobs.append(self._job(label, relabel, tr))
        return jobs

    def _job(self, label, relabel, tr):
        path = self.workdir / f"kl-write-{label.replace(':', '-')}.klcache"

        def run():
            with tr.span("coxeter.group"):
                group = group_of(label, relabel)
                group.elements()
            with tr.span("hecke.kl_table"):
                kl = kl_table(group)
            with tr.span("cli.save"):
                save_kl_cache(kl, str(path))
            return kl

        def check(kl):
            data = path.read_bytes()
            key = f"kl.multiset.{short_name(label)}"
            expect(self.refs, key, digest(kl_multiset(kl)))
            expect(self.refs, key, digest(cache_multiset(data.decode("utf-8"))))
            if not label.startswith("matrix:"):
                expect(self.refs, f"kl.cache.{label}", hashlib.sha256(data).hexdigest())
            stored = kl.pairs()
            return {"hecke.kl_pairs": len(stored),
                    "hecke.kl_distinct": len({kl.get(y, w) for y, w in stored}),
                    "cli.cache_bytes": len(data)}

        return Job(f"kl {label} relabel={relabel}", run, check)


class KLRead(Workload):
    """Repeated ``kl --cache F --pair Y W`` and ``example-b4 --cache F``
    against a cache written once in setup."""

    name = "kl-read"

    @property
    def group_label(self) -> str:
        return "B3" if self.smoke else "B4"

    @property
    def n_queries(self) -> int:
        return 500 if self.smoke else 10_000

    def parabolics(self) -> list[frozenset]:
        rank = int(self.group_label[1:])
        gens = range(1, rank + 1)
        return [frozenset(c) for k in (2, 3) if k <= rank
                for c in itertools.combinations(gens, k)]

    def reference_keys(self):
        keys = {f"kl.cache.{self.group_label}"}
        keys |= {f"inverse_kl.{self.group_label}.J={_set_key(J)}" for J in self.parabolics()}
        if not self.smoke:
            keys.add("example_b4.json")
        return keys

    def setup(self):
        group = coxeter_group(self.group_label)
        self.fresh = kl_table(group)
        self.path = self.workdir / "kl-read.klcache"
        save_kl_cache(self.fresh, str(self.path))
        # queries are drawn from sorted words, so that they do not depend on
        # the order in which a version of the library lists elements or pairs
        self.element_of = {group.word_str(w): w for w in group.elements()}
        self.words = sorted(self.element_of)
        self.comparable = sorted((group.word_str(y), group.word_str(w))
                                 for y, w in comparable_pairs(group))

    def jobs(self, round_index, tr):
        rng = seeded(self.seed, round_index, self.name)
        queries = [
            (rng.choice(self.words), rng.choice(self.words)) if rng.random() < 0.8
            else rng.choice(self.comparable)
            for _ in range(self.n_queries)
        ]
        # a seeded order of the subsets, walked round by round, so that every
        # run times each subset about equally often
        parabolics = seeded(self.seed, self.name, "J").sample(
            self.parabolics(), len(self.parabolics()))
        J = parabolics[round_index % len(parabolics)]
        state = {}
        jobs = [self._load(state, tr), self._queries(state, queries, tr),
                self._inverse(state, J, tr)]
        if not self.smoke:
            jobs.append(self._example(state, tr))
        return jobs

    def _load(self, state, tr):
        def run():
            with tr.span("coxeter.group"):
                group = coxeter_group(self.group_label)
                group.elements()
            with tr.span("cli.load"):
                state["table"] = load_kl_cache(str(self.path), group)
            return state["table"]

        def check(table):
            data = self.path.read_bytes()
            expect(self.refs, f"kl.cache.{self.group_label}", hashlib.sha256(data).hexdigest())
            elem, fresh = self.element_of, self.fresh
            for y_word, w_word in self.comparable:
                y, w = elem[y_word], elem[w_word]
                if table.get(y, w) != fresh.get(y, w):
                    raise Mismatch(f"loaded P({y_word},{w_word}) differs from the fresh table")
            return {"cli.cache_bytes": len(data)}

        return Job("load cache", run, check)

    def _queries(self, state, queries, tr):
        def run():
            table = state["table"]
            parse = table.group.parse_word
            answers = []
            with tr.span("hecke.query"):
                for y_word, w_word in queries:
                    y, w = parse(y_word), parse(w_word)
                    answers.append((table.get(y, w), table.mu(y, w)))
            return answers

        def check(answers):
            fresh, elem = self.fresh, self.element_of
            want = [(fresh.get(elem[a], elem[b]), fresh.mu(elem[a], elem[b])) for a, b in queries]
            if answers != want:
                raise Mismatch("a get/mu answer differs from the freshly built table")
            return {}

        return Job(f"{len(queries)} get/mu queries", run, check)

    def _inverse(self, state, J, tr):
        def run():
            table = state["table"]
            with tr.span("hecke.inverse_kl"):
                return table.group, inverse_kl(table, table.group.parabolic_elements(J))

        def check(out):
            group, ikl = out
            key = f"inverse_kl.{self.group_label}.J={_set_key(J)}"
            expect(self.refs, key, digest(inverse_kl_rows(group, ikl)))
            return {}

        return Job(f"inverse_kl J={_set_key(J)}", run, check)

    def _example(self, state, tr):
        def run():
            with tr.span("charsheaf_b4.build_context"):
                ctx = build_context(kl=state["table"])
            with tr.span("charsheaf_b4.report"):
                report = conjecture_report(ctx)
            with tr.span("b4_example.checks"):
                checks = (check_group_facts(ctx), check_restrictions(ctx),
                          check_chi(ctx), check_conjectures(ctx, report))
            return ctx, checks, report

        def check(out):
            ctx, checks, report = out
            failed = [c.name for c in checks if not c.passed]
            if failed:
                raise Mismatch(f"frozen checks failed: {failed}")
            expect(self.refs, "example_b4.json", cli_json_digest(example_payload(*out)))
            return {}

        return Job("example-b4 on the loaded table", run, check)


class Pieces(Workload):
    """``heckepieces pieces`` plus the E-operators on seeded Hecke elements."""

    name = "pieces"
    D4_DELTAS = tuple(  # the non-identity automorphisms of D4: permute leaves 1, 3, 4
        {1: a, 2: 2, 3: b, 4: c} for a, b, c in itertools.permutations((1, 3, 4))
        if (a, b, c) != (1, 3, 4)
    )

    def specs(self, rng: random.Random | None) -> list[tuple[str, frozenset, dict | None]]:
        """(group label, J, delta mapping or None for the identity).  With
        no rng, every delta the seed can draw."""
        if self.smoke:
            return [("B3", frozenset({2}), None), ("B3", frozenset({1, 3}), None),
                    ("matrix:A3", frozenset({1}), {1: 3, 2: 2, 3: 1})]
        d4 = [rng.choice(self.D4_DELTAS)] if rng else list(self.D4_DELTAS)
        return ([("B4", frozenset(J), None) for J in ({2}, {1, 3}, {2, 3})]
                + [("matrix:D4", frozenset({2}), d) for d in d4]
                + [("matrix:A4", frozenset({1, 2}), {1: 4, 2: 3, 3: 2, 4: 1})])

    @staticmethod
    def reference_key(label, J, delta) -> str:
        d = "id" if delta is None else ",".join(str(delta[i]) for i in sorted(delta))
        return f"pieces.{short_name(label)}.J={_set_key(J)}.delta={d}"

    def reference_keys(self):
        return {self.reference_key(*spec) for spec in self.specs(None)}

    def jobs(self, round_index, tr):
        rng = seeded(self.seed, round_index, self.name)
        specs = self.specs(rng)
        state = {}
        jobs = [group_job(label, state, tr) for label in dict.fromkeys(s[0] for s in specs)]
        for k, spec in enumerate(specs):
            jobs.append(self._payload(spec, state, tr))
            jobs.append(self._operators(spec, state, seeded(self.seed, round_index, f"E{k}"), tr))
        return jobs

    def _payload(self, spec, state, tr):
        label, J, mapping = spec

        def run():
            group = state[label]
            delta = group.automorphism(mapping)
            with tr.span("pieces.piece_indices"):
                idx = piece_indices(group, J, delta)
            with tr.span("pieces.normalizer"):
                normalizer = twisted_normalizer(group, J, delta)
            datas, back = [], []
            dims = {} if group.type_tag.startswith("B") else None
            for w in idx:
                with tr.span("pieces.sequence"):
                    data = bedard_sequence(group, J, delta, w)
                with tr.span("pieces.sequence"):
                    back.append(bedard_inverse(group, J, delta, data.steps))
                datas.append(data)
                if dims is not None:
                    with tr.span("pieces.dimension"):
                        dims[w] = piece_dimension(group, J, w, delta)
            with tr.span("pieces.closure"):
                covers = closure_hasse(group, J, delta)
            state[self.reference_key(*spec)] = datas
            return group, idx, normalizer, datas, back, dims, covers

        def check(out):
            group, idx, normalizer, datas, back, dims, covers = out
            if back != list(idx):
                raise Mismatch("bedard_inverse does not invert bedard_sequence")
            payload = pieces_payload(group, J, idx, normalizer, datas, dims, covers)
            expect(self.refs, self.reference_key(*spec), cli_json_digest(payload))
            return {"pieces.indices": len(idx), "pieces.covers": len(covers)}

        return Job(f"pieces {self.reference_key(*spec)}", run, check)

    def _operators(self, spec, state, rng, tr):
        label = spec[0]

        def run():
            group = state[label]
            elements = group.elements()
            with tr.span("hecke.algebra"):
                algebra = HeckeAlgebra(group)
            out = []
            for data in state[self.reference_key(*spec)]:
                # one term the projection keeps, two drawn from the whole group
                terms = {group.inverse(data.w): seeded_laurent(rng)}
                for _ in range(2):
                    terms[rng.choice(elements)] = seeded_laurent(rng)
                h = algebra.element(terms)
                with tr.span("pieces.E_operator"):
                    e_n = E_operator(h, data, data.n0)
                with tr.span("pieces.E_operator"):
                    e_next = E_operator(h, data, data.n0 + 1)
                out.append((data, e_n, e_next))
            return out

        def check(out):
            for data, e_n, e_next in out:
                if e_next != data.tau_element(e_n):
                    raise Mismatch(f"E_(n+1) != tau(E_n) at {data.group.word_str(data.w)}")
            return {}

        return Job(f"E operators {self.reference_key(*spec)}", run, check)


class HeckeWeighted(Workload):
    """Unequal-parameter canonical bases, and multiplication and the bar
    involution in the geometric normalization."""

    name = "hecke-weighted"
    WEIGHT_VALUES = (1, 2, 3)
    MAX_LENGTH = 6  # operands of multiply and bar use elements up to this length

    @property
    def validated_label(self) -> str:
        return "B2" if self.smoke else "B3"

    @property
    def unvalidated_label(self) -> str:
        return "B3" if self.smoke else "B4"

    def weights(self):
        return list(itertools.product(self.WEIGHT_VALUES, repeat=2))

    @staticmethod
    def reference_key(label, ab) -> str:
        return f"canonical_basis.{label}.a={ab[0]},b={ab[1]}"

    def reference_keys(self):
        return {self.reference_key(label, ab) for ab in self.weights()
                for label in (self.validated_label, self.unvalidated_label)}

    def jobs(self, round_index, tr):
        rng = seeded(self.seed, round_index, self.name)
        state = {}
        labels = (self.validated_label, self.unvalidated_label)
        jobs = [group_job(label, state, tr) for label in labels]
        # Rounds walk a seeded order of the weights rather than drawing each
        # afresh: a basis's cost depends on its weight, and a run's median
        # over distinct weights varies less from seed to seed.
        order = {label: seeded(self.seed, self.name, label).sample(
            self.weights(), len(self.weights())) for label in labels}
        for k in (2 * round_index, 2 * round_index + 1):
            ab = order[self.validated_label][k % len(self.weights())]
            jobs.append(self._basis(self.validated_label, ab, True, state, tr))
        ab = order[self.unvalidated_label][round_index % len(self.weights())]
        jobs.append(self._basis(self.unvalidated_label, ab, False, state, tr))
        n = 2 if self.smoke else 6
        triples = [[self._element_spec(rng) for _ in range(3)] for _ in range(n)]
        singles = [self._element_spec(rng) for _ in range(n)]
        jobs.append(self._multiply(triples, state, tr))
        jobs.append(self._bar(singles, state, tr))
        return jobs

    def _element_spec(self, rng):
        return [(rng.random(), seeded_laurent(rng)) for _ in range(3)]

    @staticmethod
    def _element(algebra, short, spec):
        return algebra.element({short[int(u * len(short))]: c for u, c in spec})

    def _basis(self, label, ab, validate, state, tr):
        def run():
            group = state[label]
            values = {i: ab[0] if i == 1 else ab[1] for i in group.generators()}
            with tr.span("hecke.algebra"):
                algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, values))
            with tr.span("hecke.canonical_basis"):
                return canonical_basis(algebra, validate=validate)

        def check(basis):
            expect(self.refs, self.reference_key(label, ab),
                   digest(canonical_basis_rows(basis)))
            return {}

        return Job(f"canonical_basis {label} a={ab[0]} b={ab[1]} validate={validate}",
                   run, check)

    def _multiply(self, triples, state, tr):
        def run():
            group = state[self.unvalidated_label]
            with tr.span("hecke.algebra"):
                algebra = state["geometric"] = HeckeAlgebra(group)
            short = state["short"] = [w for w in group.elements()
                                      if group.length(w) <= self.MAX_LENGTH]
            out = []
            for specs in triples:
                x, y, z = (self._element(algebra, short, s) for s in specs)
                with tr.span("hecke.multiply"):
                    xy = algebra.multiply(x, y)
                with tr.span("hecke.multiply"):
                    out.append((x, y, z, algebra.multiply(xy, z)))
            return algebra, out

        def check(result):
            algebra, out = result
            for x, y, z, xy_z in out:
                if algebra.multiply(x, algebra.multiply(y, z)) != xy_z:
                    raise Mismatch("multiplication is not associative")
            return {}

        return Job("geometric multiply", run, check)

    def _bar(self, singles, state, tr):
        def run():
            algebra = state["geometric"]
            out = []
            for spec in singles:
                x = self._element(algebra, state["short"], spec)
                with tr.span("hecke.bar"):
                    out.append((x, algebra.bar(x)))
            return algebra, out

        def check(result):
            algebra, out = result
            for x, bx in out:
                if algebra.bar(bx) != x:
                    raise Mismatch("bar is not an involution")
            return {}

        return Job("geometric bar", run, check)


WORKLOADS = {cls.name: cls for cls in (KLWrite, KLRead, Pieces, HeckeWeighted)}


# --------------------------------------------------------------------------
# running a round
# --------------------------------------------------------------------------


class Calibrator:
    """Samples the host's speed while the jobs run.  The host's speed drifts
    by tens of percent within seconds, so a round's time alone is a noisy
    measure of the work done.  While a job runs, a timer signal interrupts it
    every ``INTERVAL_S``, and the handler times ``STEPS`` steps of a fixed
    loop of the kind of work the library does: build small tuples, look
    them up in a dict and store into them.  The job's time, less the
    handlers' time, multiplied by the loop's steps per second over the same
    stretch, measures the work in units that cancel most of the drift."""

    INTERVAL_S = 0.05
    STEPS = 5000

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        table: dict = {}
        for i in range(self.STEPS):
            key = (i % 7, i % 11)
            table[key] = table.get(key, 0) + i
        elapsed = time.perf_counter() - entered
        self.steps += self.STEPS
        self.seconds += elapsed
        self.paused += elapsed

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> tuple[int, float]:
        """Steps and seconds sampled since the last call; a round too short
        for the timer gets one sample now."""
        if not self.steps:
            self._sample(signal.SIGALRM, None)
        out = (self.steps, self.seconds)
        self.steps, self.seconds = 0, 0.0
        return out


class RoundResult:
    __slots__ = ("seconds", "attempted", "failed", "failures", "work", "calibration")

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.work: Counter = Counter()
        self.calibration: tuple[int, float] | None = None


def run_round(workload: Workload, round_index: int, tr, counts: Counter | None = None,
              calibrator: Calibrator | None = None) -> RoundResult:
    """Run one round.  Every job's ``run`` goes first, timed.  Given
    ``counts``, it is call-counted.  Given ``calibrator``, the host's speed
    is sampled while it runs and the samples' time is left out.  The checks
    follow, so that no check can warm a cache that a later job of the round
    reads.  A job fails if it raises or if its check does; the round goes on
    either way."""
    gc.collect()
    result = RoundResult()
    outputs = []
    for job in workload.jobs(round_index, tr):
        result.attempted += 1
        paused = calibrator.paused if calibrator else 0.0
        start = time.perf_counter()
        try:
            with counting(counts) if counts is not None else contextlib.nullcontext(), \
                    calibrator.sampling() if calibrator else contextlib.nullcontext():
                outputs.append((job, job.run()))
        except Exception:  # a job boundary: record the failure, keep going
            result.failed += 1
            result.failures.append(f"{job.name}: raised\n{traceback.format_exc()}")
        result.seconds += time.perf_counter() - start
        if calibrator is not None:
            result.seconds -= calibrator.paused - paused
    if calibrator is not None:
        result.calibration = calibrator.take()
    for job, out in outputs:
        try:
            result.work.update(job.check(out))
        except Exception as exc:  # Mismatch, or a check that could not run
            result.failed += 1
            result.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return result
