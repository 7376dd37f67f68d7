"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints as a single pass/fail line under ``pytest -v``.  Wall-clock
budgets are enforced with monotonic timers around freshly built objects, so
session fixtures never hide a cold-start cost that a criterion constrains.
"""

import time

import pytest

from heckepieces.b4_example import (
    check_chi,
    check_conjectures,
    check_group_facts,
    check_restrictions,
)
from heckepieces.charsheaf_b4 import (
    boundary_dims,
    conjecture_report,
    normalized_restriction,
)
from heckepieces.cli import load_kl_cache, main, save_kl_cache
from heckepieces.coxeter import coxeter_group
from heckepieces.hecke import (
    HeckeAlgebra,
    canonical_basis,
    inverse_kl,
    kl_table,
    split_weight,
)
from heckepieces.laurent import ONE
from heckepieces.pieces import E_operator, bedard_inverse, bedard_sequence, piece_indices, twisted_normalizer

from expected_b4 import DOUBLE_COSET_REP_WORDS, NORMALIZER_WORDS

J = frozenset({1, 2})


def _fail_on(failures):
    assert not failures, failures[:5]


def test_1_group_facts():
    started = time.monotonic()
    group = coxeter_group("B4")
    assert len(group.elements()) == 384
    delta = group.automorphism()
    reps = group.double_coset_reps(delta.on_set(J), J)
    assert tuple(
        group.word_str(w) if group.length(w) else "" for w in reps
    ) == DOUBLE_COSET_REP_WORDS
    normalizer = twisted_normalizer(group, J, delta)
    assert [group.word_str(z) for z in normalizer] == [
        word if word else "∅" for word in NORMALIZER_WORDS.values()
    ]
    assert time.monotonic() - started < 5.0


def test_2_kl_suite(tmp_path):
    started = time.monotonic()
    group = coxeter_group("B4")
    table = kl_table(group)
    for y, w in table.pairs():
        p = table.get(y, w)
        if y == w:
            assert p == ONE
        else:
            gap = group.length(w) - group.length(y)
            assert gap > 0
            assert p.coeff(0) == 1
            assert 0 <= p.min_exp() and p.max_exp() <= gap - 1
        assert table.get(group.inverse(y), group.inverse(w)) == p
    WJ = group.parabolic_elements(J)
    inverse = inverse_kl(table, WJ)
    for (x, z), q in inverse.items():
        sign = (-1) ** (group.length(x) + group.length(z))
        assert q == (ONE if sign == 1 else -ONE)
    b2 = coxeter_group("B2")
    b2_table = kl_table(b2)
    assert len(b2_table.pairs()) == 33
    assert all(b2_table.get(y, w) == ONE for y, w in b2_table.pairs())
    assert time.monotonic() - started < 120.0

    cache = tmp_path / "b4.klcache"
    save_kl_cache(table, str(cache))
    started = time.monotonic()
    loaded = load_kl_cache(str(cache), group)
    assert time.monotonic() - started < 1.0
    assert loaded.pairs() == table.pairs()
    assert all(loaded.get(y, w) == table.get(y, w) for y, w in table.pairs())


def test_3_stabilization_and_operators(b4):
    started = time.monotonic()
    delta = b4.automorphism()
    indices = piece_indices(b4, J, delta)
    assert len(indices) == 48
    algebra = HeckeAlgebra(b4)
    elements = b4.elements()
    for w in indices:
        data = bedard_sequence(b4, J, delta, w)
        assert bedard_inverse(b4, J, delta, data.steps) == w
        for y in elements:
            basis = algebra.basis(y)
            assert E_operator(basis, data, data.n0 + 1) == \
                data.tau_element(E_operator(basis, data, data.n0))
    assert time.monotonic() - started < 120.0


def test_4_restriction_tables(ctx):
    started = time.monotonic()
    result = check_restrictions(ctx)
    _fail_on(result.failures)
    assert result.passed
    assert time.monotonic() - started < 60.0


def test_5_transition_solutions(ctx):
    result = check_chi(ctx)
    _fail_on(result.failures)
    assert result.passed


def test_6_scalars_conjectures_and_cli_gate(ctx, capsys):
    report = conjecture_report(ctx)
    result = check_conjectures(ctx, report)
    _fail_on(result.failures)
    assert result.passed
    assert report.all_pass
    assert main(["example-b4"]) == 0
    out = capsys.readouterr().out
    assert "all checks pass" in out


def test_7_property_suites(ctx):
    # every canonical basis element of the weighted normalizer algebra is
    # fixed by the bar involution
    algebra = ctx.pbasis.algebra
    for z, vec in ctx.pbasis.vectors.items():
        assert algebra.bar(vec) == vec
        assert vec.coeff(z) == ONE

    # boundary restrictions are palindromic dimension polynomials
    for z in ctx.N:
        for u in ctx.WJ:
            for c in boundary_dims(ctx, z, u).values():
                assert c.is_bar_symmetric() and c.has_nonneg_coeffs()

    # away from the boundary every non-unit coefficient lies in N[v^-1]
    for z in ctx.N:
        for t in ctx.N:
            if t == z or not ctx.n_leq(t, z):
                continue
            for u in ctx.WJ:
                for sym, c in normalized_restriction(ctx, t, z, u).items():
                    if sym != "1":
                        assert c.has_nonneg_coeffs() and c.max_exp() <= 0

    # with the constant weight the canonical basis recovers the classical
    # Kazhdan-Lusztig polynomials
    b2 = coxeter_group("B2")
    basis = canonical_basis(HeckeAlgebra(b2, "weighted", split_weight(b2)))
    table = kl_table(b2)
    for z in b2.elements():
        for t in b2.elements():
            assert basis.p(t, z) == \
                table.get(t, z).shift(b2.length(t) - b2.length(z))
