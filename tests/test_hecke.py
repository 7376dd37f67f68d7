"""Hecke algebras: relations, bar involution, KL tables, canonical bases."""

import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from heckepieces import hecke
from heckepieces.coxeter import CoxeterGroup, coxeter_group, mask_bits
from heckepieces.hecke import (
    HeckeAlgebra,
    WeightFunction,
    _certify,
    _decode,
    _frozen,
    canonical_basis,
    inverse_kl,
    kl_table,
    split_weight,
)
from heckepieces.laurent import Laurent, ONE, ZERO, add_into, bar_symmetric_head, v_power

from expected_b4 import SPOT_P

Q = v_power(2)


def poly(*pairs):
    out = ZERO
    for c, e in pairs:
        out = out + Laurent({e: c})
    return out


def algebras_of(group):
    geometric = HeckeAlgebra(group)
    weighted = HeckeAlgebra(group, "weighted", split_weight(group))
    return geometric, weighted


def quad(algebra, s):
    """(a_s, b_s) with T_s^2 = a_s T_s + b_s, from the definitions rather than
    the algebra: (v^2 - 1, v^2) geometric, (v^L - v^-L, 1) weighted."""
    if algebra.normalization == "geometric":
        return v_power(2) - 1, v_power(2)
    L = algebra.weight(s)
    return v_power(L) - v_power(-L), ONE


# -- relations ---------------------------------------------------------------

def test_quadratic_relations(b3):
    for algebra in algebras_of(b3):
        for s in b3.generators():
            a, b = quad(algebra, s)
            ts = algebra.basis(b3.generator(s))
            assert algebra.multiply(ts, ts) == ts.scale(a) + algebra.unit().scale(b)


def test_braid_relation_b2(b2):
    algebra = HeckeAlgebra(b2)
    t1 = algebra.basis(b2.generator(1))
    t2 = algebra.basis(b2.generator(2))
    lhs = algebra.multiply(algebra.multiply(algebra.multiply(t1, t2), t1), t2)
    rhs = algebra.multiply(algebra.multiply(algebra.multiply(t2, t1), t2), t1)
    assert lhs == rhs
    assert lhs == algebra.basis(b2.elements()[-1])


def test_basis_multiplication_lengths_add(b3):
    algebra = HeckeAlgebra(b3)
    for w in b3.elements():
        for s in b3.generators():
            ws = b3.right_mult_gen(w, s)
            product = algebra.multiply(algebra.basis(w),
                                       algebra.basis(b3.generator(s)))
            if b3.length(ws) > b3.length(w):
                assert product == algebra.basis(ws)


def test_associativity_sampled(b3):
    algebra = HeckeAlgebra(b3)
    rng = random.Random(23)
    elements = b3.elements()
    for _ in range(40):
        x, y, z = (algebra.basis(rng.choice(elements)) for _ in range(3))
        assert algebra.multiply(algebra.multiply(x, y), z) == \
            algebra.multiply(x, algebra.multiply(y, z))


def reference_multiply(algebra, x, y):
    """x · y as first written: fold each term of y through one new element
    per generator step, then ``out = out + h.scale(c)``."""
    group = algebra.group

    def right_mult_gen(h, s):
        a, b = quad(algebra, s)
        out = {}

        def add(w, c):
            t = out.get(w, ZERO) + c
            if t:
                out[w] = t
            else:
                out.pop(w, None)

        for w, c in h.terms.items():
            ws = group.right_mult_gen(w, s)
            if group.length(ws) > group.length(w):
                add(ws, c)
            else:
                add(w, c * a)
                add(ws, c * b)
        return algebra.element(out)

    out = algebra.zero()
    for w, c in y.terms.items():
        h = x
        for s in group.reduced_word(w):
            h = right_mult_gen(h, s)
        out = out + h.scale(c)
    return out


B3 = coxeter_group("B3")
B3_ALGEBRAS = algebras_of(B3)
# monomials ±v^e on few exponents, so that terms meeting on one T_w cancel
MONOMIALS = st.builds(lambda e, c: Laurent({e: c}), st.integers(-2, 2), st.sampled_from([-1, 1]))
B3_TERMS = st.dictionaries(st.sampled_from(B3.elements()), MONOMIALS, max_size=5)


@given(x=B3_TERMS, y=B3_TERMS, which=st.sampled_from([0, 1]))
# T_1 · (T_1 - a_1) = 1 in the split normalization: every other term cancels
@example(x={B3.generator(1): ONE},
         y={B3.generator(1): ONE, B3.identity(): -quad(B3_ALGEBRAS[1], 1)[0]},
         which=1)
def test_multiply_matches_reference(x, y, which):
    algebra = B3_ALGEBRAS[which]
    hx, hy = algebra.element(x), algebra.element(y)
    assert algebra.multiply(hx, hy) == reference_multiply(algebra, hx, hy)
    assert (hx - hx).terms == {}
    assert (hx + -hx).terms == {}


def iota(h):
    """The anti-automorphism sum c_w T_w -> sum c_w T_{w^-1}."""
    group = h.algebra.group
    return h.algebra.element({group.inverse(w): c for w, c in h.terms.items()})


@given(x=B3_TERMS, y=B3_TERMS, which=st.sampled_from([0, 1]))
def test_iota_reverses_products(x, y, which):
    """ι(x·y) = ι(y)·ι(x) in both normalizations: ι respects every
    quadratic relation, so ``multiply`` is consistent with reversing the
    order of the operands."""
    algebra = B3_ALGEBRAS[which]
    hx, hy = algebra.element(x), algebra.element(y)
    assert iota(algebra.multiply(hx, hy)) == algebra.multiply(iota(hy), iota(hx))
    assert iota(reference_multiply(algebra, hx, hy)) == \
        reference_multiply(algebra, iota(hy), iota(hx))


def test_negation_makes_no_laurent_product(monkeypatch):
    """-h and h - g negate each coefficient by ``Laurent.__neg__``, with no
    product by -1, and agree with scaling by -1."""
    algebra = B3_ALGEBRAS[0]
    h = algebra.element({w: Laurent({w % 3 - 1: w % 2 * 2 - 1}) for w in B3.elements()[:12]})
    g = algebra.element({w: v_power(1) + 2 for w in B3.elements()[6:20]})
    expected_neg, expected_diff = h.scale(-ONE), h + g.scale(-ONE)
    products = 0
    mul = Laurent.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Laurent, "__mul__", counted)
    monkeypatch.setattr(Laurent, "__rmul__", counted)
    assert -h == expected_neg
    assert h - g == expected_diff
    assert (h - h).terms == {}
    assert products == 0


def test_weight_function_validation(b3):
    # m(2,3) = 3 is odd, so generators 2 and 3 must share a weight
    with pytest.raises(ValueError):
        WeightFunction(b3, {1: 1, 2: 1, 3: 2})
    with pytest.raises(ValueError):
        WeightFunction(b3, {1: 1, 2: 1})
    with pytest.raises(ValueError):
        WeightFunction(b3, {1: -1, 2: 1, 3: 1})
    # weights must be ints: none is rounded or coerced, and bools are refused
    for bad in (1.5, 2.0, True, "1", None):
        with pytest.raises(ValueError):
            WeightFunction(b3, {1: bad, 2: 1, 3: 1})
    with pytest.raises(ValueError):
        WeightFunction(b3, {1: 1, 2: False, 3: False})
    L = WeightFunction(b3, {1: 5, 2: 2, 3: 2})
    assert L.of(b3.from_word((1, 2, 1))) == 12


def test_weight_refuses_what_is_not_a_generator(b2):
    """L(i) reads only a generator: an int outside the range, a bool and a
    float are refused with one error, not read as a generator."""
    L = WeightFunction(b2, {1: 1, 2: 3})
    assert (L(1), L(2)) == (1, 3)
    for i in (0, 3, -1, True, 1.0, "1", None):
        with pytest.raises(ValueError, match="no generator"):
            L(i)


def test_normalization_validation(b2):
    with pytest.raises(ValueError):
        HeckeAlgebra(b2, "weighted")
    with pytest.raises(ValueError):
        HeckeAlgebra(b2, weight=split_weight(b2))
    with pytest.raises(ValueError):
        HeckeAlgebra(b2, "quantum")


def test_element_refuses_malformed_terms(b2):
    """A coefficient that is not a Laurent polynomial, or a key that is not
    an element, is refused when the element is built, not later in
    ``text`` or ``bar``."""
    algebra = HeckeAlgebra(b2, "weighted", WeightFunction(b2, {1: 3, 2: 1}))
    for coeff in (2, 0, True, 1.5, None, "1"):
        with pytest.raises(TypeError):
            algebra.element({1: coeff})
    top = len(b2.elements()) - 1
    for w in (99, top + 1, -1, 0.0, None, "1", True):
        with pytest.raises(ValueError):
            algebra.element({w: ONE})
    h = algebra.element({1: v_power(2), top: ONE})
    assert algebra.bar(algebra.bar(h)) == h
    assert algebra.element({}) == algebra.zero()


def test_basis_refuses_what_is_not_an_element(b2):
    """``basis`` checks its element as ``element`` does: -1 would read as
    the longest element and True as 1."""
    algebra = HeckeAlgebra(b2)
    for w in (-1, len(b2.elements()), True, 0.0, None):
        with pytest.raises(ValueError, match="no element"):
            algebra.basis(w)
    assert algebra.basis(0) == algebra.unit()


def test_sums_refuse_operands_of_another_algebra(b2):
    """``+`` and ``-`` take only an element of the same algebra, as
    ``multiply`` does: T_1 of two algebras are unequal, so their difference
    is not 0, and a number is no operand at all."""
    split, weighted = HeckeAlgebra(b2), HeckeAlgebra(b2, "weighted", split_weight(b2))
    h = split.basis(1)
    assert h != weighted.basis(1)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="operands belong to a different algebra"):
            op(h, weighted.basis(1))
        for other in (1, 0, ONE, None):
            with pytest.raises(TypeError):
                op(h, other)
    assert h + h - h == h


def test_equality_hash_and_product_contracts(b2):
    """Equal weights and equal elements hash alike; ``*`` is ``multiply``,
    which refuses an operand of another algebra even when the weights
    agree; and 0 prints as 0."""
    L = WeightFunction(b2, {1: 1, 2: 3})
    same = WeightFunction(b2, {1: 1, 2: 3})
    assert L == same and hash(L) == hash(same) and len({L, same}) == 1
    assert L != WeightFunction(b2, {1: 1, 2: 1})
    assert L != WeightFunction(coxeter_group("B2"), {1: 1, 2: 3})  # another group
    assert L != {1: 1, 2: 3}

    algebra, other = HeckeAlgebra(b2, "weighted", L), HeckeAlgebra(b2, "weighted", same)
    x, y = algebra.basis(b2.generator(1)), algebra.basis(b2.generator(2))
    xy = algebra.basis(b2.product(b2.generator(1), b2.generator(2)))
    assert x * y == algebra.multiply(x, y) == xy  # length-additive
    assert hash(x * y) == hash(xy) and len({x * y, xy}) == 1
    assert x * x == algebra.element({b2.generator(1): v_power(1) - v_power(-1),
                                     b2.identity(): ONE})
    for a, b in ((x, other.basis(b2.generator(2))), (other.basis(b2.generator(1)), y)):
        with pytest.raises(ValueError, match="operands belong to a different algebra"):
            algebra.multiply(a, b)
    with pytest.raises(ValueError, match="operands belong to a different algebra"):
        x * other.basis(b2.generator(2))
    with pytest.raises(TypeError):
        x * 2
    assert algebra.zero().text() == "0" and not algebra.zero()


# -- bar involution ----------------------------------------------------------

def test_bar_is_involution_exhaustive_b2(b2):
    for algebra in algebras_of(b2):
        for w in b2.elements():
            h = algebra.basis(w)
            assert algebra.bar(algebra.bar(h)) == h


def test_bar_is_semilinear_ring_map(b3):
    rng = random.Random(5)
    elements = b3.elements()
    for algebra in algebras_of(b3):
        assert algebra.bar(algebra.unit()) == algebra.unit()
        for _ in range(25):
            x, y = rng.choice(elements), rng.choice(elements)
            hx, hy = algebra.basis(x), algebra.basis(y)
            assert algebra.bar(algebra.multiply(hx, hy)) == \
                algebra.multiply(algebra.bar(hx), algebra.bar(hy))
            scaled = hx.scale(poly((2, -1), (1, 3)))
            assert algebra.bar(scaled) == \
                algebra.bar(hx).scale(poly((2, 1), (1, -3)))
        for _ in range(10):
            w = rng.choice(elements)
            assert algebra.bar(algebra.bar(algebra.basis(w))) == algebra.basis(w)


def test_bar_fixes_generator_combination(b2):
    # T_s + 1 is bar-invariant in the geometric normalization because
    # bar(T_s) = v^-2 T_s + (v^-2 - 1)
    algebra = HeckeAlgebra(b2)
    s = b2.generator(1)
    h = algebra.basis(s)
    assert algebra.bar(h) == algebra.element(
        {s: v_power(-2), b2.identity(): poly((1, -2), (-1, 0))})


# -- KL tables -----------------------------------------------------------------

def test_kl_b2_all_ones(b2):
    table = kl_table(b2)
    pairs = table.pairs()
    assert len(pairs) == 33
    assert all(table.get(y, w) == ONE for y, w in pairs)


def test_kl_invariants(b3):
    table = kl_table(b3)
    for y, w in table.pairs():
        p = table.get(y, w)
        assert b3.bruhat_leq(y, w)
        if y == w:
            assert p == ONE
        else:
            assert p.coeff(0) == 1
            gap = b3.length(w) - b3.length(y)
            assert p.max_exp() <= gap - 1
            assert p.min_exp() >= 0
        assert table.get(b3.inverse(y), b3.inverse(w)) == p  # inverse symmetry


def test_kl_column_bar_invariance(b3):
    """Oracle: the element v^{-l(w)} sum_y P_{y,w}(v^2) T_y must be fixed
    by the bar involution of the geometric algebra, for every w."""
    table = kl_table(b3)
    algebra = HeckeAlgebra(b3)
    for w in b3.elements():
        c = algebra.element({
            y: table.get(y, w).shift(-b3.length(w))
            for y in b3.elements() if b3.bruhat_leq(y, w)
        })
        assert algebra.bar(c) == c


def test_kl_b4_spot_values(b4, b4_kl):
    longest = b4.elements()[-1]
    for y in b4.elements():
        assert b4_kl.get(y, longest) == ONE  # the top column is trivial
    assert b4_kl.get(b4.identity(), b4.identity()) == ONE
    # incomparable pair gives zero
    assert b4_kl.get(b4.from_word((4,)), b4.from_word((1,))) == ZERO
    nontrivial = {b4_kl.get(y, w) for y, w in b4_kl.pairs()} - {ONE}
    assert poly((1, 0), (1, 2)) in nontrivial
    assert max(p.max_exp() for p in nontrivial) == 8


def test_kl_table_interns_its_polynomials(b4_kl):
    """Equal polynomials are one object: 40,249 pairs, 41 polynomials."""
    values = [b4_kl.get(y, w) for y, w in b4_kl.pairs()]
    assert len(values) == 40_249
    assert len({id(p) for p in values}) == len(set(values)) == 41


def reference_kl_table(group):
    """kl_table as a plain dict {(y, w): P_{y,w}} over the comparable pairs,
    with a single copy rule: P_{y,w} = P_{sy,w} along the left descent
    s = min DL(w) when sy > y; every other pair runs the recursion, and a
    second pass over the column reads the mu list."""
    e = group.identity()
    length, ldesc = group._length, group._ldesc
    P = {}
    pool = {ONE: ONE}
    mu_lists = {}
    for w in group.elements():
        if w == e:
            P[(e, e)] = ONE
            mu_lists[w] = ()
            continue
        s = min(ldesc[w])
        s_times = group._lmul[s]
        sw = s_times[w]
        lw = length[w]
        column = mask_bits(group.bruhat_mask(w))[::-1]
        mu_terms = [(z, m, group.bruhat_mask(z)) for z, m in mu_lists[sw]
                    if s in ldesc[z]]
        for y in column:
            if y == w:
                P[(y, w)] = ONE
                continue
            sy = s_times[y]
            if length[sy] > length[y]:
                P[(y, w)] = P[(sy, w)]
                continue
            val = P.get((sy, sw), ZERO) + Q * P.get((y, sw), ZERO)
            for z, m, below_z in mu_terms:
                if below_z >> y & 1:
                    val = val - P[(y, z)].shift(lw - length[z]) * m
            P[(y, w)] = pool.setdefault(val, val)
        mus = []
        for y in column:
            c = reference_mu(group, P, y, w)
            if c:
                mus.append((y, c))
        mu_lists[w] = tuple(mus)
    return P


def reference_mu(group, P, y, w):
    """mu(y, w) read from the reference dict: the coefficient of v^(d-1)
    in P_{y,w} when d = l(w) - l(y) is odd, and 0 otherwise."""
    d = group.length(w) - group.length(y)
    return P.get((y, w), ZERO).coeff(d - 1) if d % 2 == 1 else 0


KL_GROUPS = {
    "B2": "B2",
    "B3": "B3",
    "B4": "B4",
    "matrix:A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "matrix:D4": ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),
    "matrix:H3": ((1, 5, 2), (5, 1, 3), (2, 3, 1)),
    "matrix:I2(8)": ((1, 8), (8, 1)),
}


@pytest.mark.parametrize("name", sorted(KL_GROUPS))
def test_kl_table_matches_reference(name):
    """Copying along every left and right descent of w, with the recursion
    only on extremal pairs, gives the one-descent recursion's pairs, by w
    and then y, and its P and mu on every pair of elements, 0 off the
    comparable ones.  The reference side is the plain dict alone."""
    group = coxeter_group(KL_GROUPS[name])
    table, reference = kl_table(group), reference_kl_table(group)
    assert table.pairs() == sorted(reference, key=lambda pair: pair[::-1])
    for w in group.elements():
        for y in group.elements():
            assert table.get(y, w) == reference.get((y, w), ZERO)
            assert table.mu(y, w) == reference_mu(group, reference, y, w)


def test_kl_table_recurses_only_on_extremal_pairs():
    """On B4 exactly the 2,076 pairs y < w with DL(y) ⊇ DL(w) and
    DR(y) ⊇ DR(w) run the recursion, where copying along one left descent
    alone left 19,741 pairs to it."""
    group = coxeter_group("B4")
    ldesc, rdesc = group._ldesc, group._rdesc
    extremal = sum(ldesc[y] >= ldesc[w] and rdesc[y] >= rdesc[w]
                   for y, w in reference_kl_table(group) if y != w)
    assert kl_table(group).extremal == extremal == 2_076


def test_decode_reads_balanced_digits():
    """Codes decode digit by digit, lowest first, each digit in
    [-2^(k-1), 2^(k-1)): a negative digit borrows from the next one."""
    assert _decode(0, 64) == ZERO
    assert _decode(1, 64) == ONE
    assert _decode(-3, 64) == poly((-3, 0))
    assert _decode((1 << 64) - 1, 64) == poly((-1, 0), (1, 2))  # -1 + q
    assert _decode(-(1 << 128) + (2 << 64), 64) == poly((2, 2), (-1, 4))  # 2q - q^2
    assert _decode(-(1 << 63), 64) == poly((-(1 << 63), 0))
    assert _decode(1 << 63, 64) == poly((-(1 << 63), 0), (1, 2))
    assert _decode(7 + (8 << 4), 4) == poly((7, 0), (-8, 2), (1, 4))


@given(k=st.integers(2, 70), data=st.data())
def test_decode_inverts_evaluation_at_a_power_of_two(k, data):
    """Every polynomial with coefficients in [-2^(k-1), 2^(k-1)) comes back
    from its value at q = 2^k."""
    coeffs = data.draw(st.lists(st.integers(-(1 << (k - 1)), (1 << (k - 1)) - 1), max_size=8))
    code = sum(c << (k * j) for j, c in enumerate(coeffs))
    assert _decode(code, k) == Laurent({2 * j: c for j, c in enumerate(coeffs)})


@pytest.mark.parametrize("k", [4, 5, 6])
def test_kl_table_refuses_codes_too_small_for_its_coefficients(monkeypatch, k):
    """A digit of base 2^k holds less than 2^(k-1) in absolute value.  On
    B4, whose coefficients reach 5, the bound M (2 + sum |mu|), with M the
    pool's largest coefficient so far, reaches 2^3, 2^4 and 2^5 on the
    way: the build raises rather than return a table."""
    monkeypatch.setattr(hecke, "_K", k)
    with pytest.raises(OverflowError):
        kl_table(coxeter_group("B4"))


def test_kl_table_codes_in_base_2_to_the_7_suffice_for_b4(monkeypatch, b4_kl):
    """The bound stays below 2^6 on B4, so base 2^7 gives the same pool."""
    monkeypatch.setattr(hecke, "_K", 7)
    assert kl_table(coxeter_group("B4")).pool == b4_kl.pool
    assert max(abs(c) for p in b4_kl.pool for _, c in p.items()) == 5


def test_kl_mu(b2):
    table = kl_table(b2)
    e = b2.identity()
    s = b2.generator(1)
    assert table.mu(e, s) == 1
    assert table.mu(e, b2.from_word((1, 2))) == 0  # even length gap
    assert table.mu(b2.from_word((1, 2)), b2.from_word((1, 2, 1))) == 1


def test_kl_mu_reads_lengths_from_the_table(b4, b4_kl, monkeypatch):
    """1,000 B4 mu queries make no checked ``length`` call (two per query
    before); what is not an element is still refused."""
    calls = 0
    length = CoxeterGroup.length

    def counted(self, w):
        nonlocal calls
        calls += 1
        return length(self, w)

    monkeypatch.setattr(CoxeterGroup, "length", counted)
    rng = random.Random(11)
    order = len(b4.elements())
    answers = [b4_kl.mu(rng.randrange(order), rng.randrange(order)) for _ in range(1000)]
    assert calls == 0
    assert any(answers)
    for y, w in ((-1, 5), (0, order), (0, -1), (0.0, 5), (None, 5)):
        with pytest.raises(ValueError):
            b4_kl.mu(y, w)


def test_kl_get_refuses_elements_outside_the_group(b3):
    """What ``group.length`` refuses, ``get`` refuses: a negative w would
    otherwise read a column from the end, and a bool is no element."""
    table = kl_table(b3)
    top = len(b3.elements()) - 1
    for y, w in ((-1, top), (0, top + 1), (top + 1, top), (0, -1),
                 (0.0, 5), (0, 5.0), (None, 5), (0, None)):
        with pytest.raises(ValueError):
            table.get(y, w)
    with pytest.raises(ValueError):
        b3.length(True)
    for y, w in ((True, top), (0, True), (False, top)):
        for read in (table.get, table.mu):
            with pytest.raises(ValueError):
                read(y, w)


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "matrix:D4", "matrix:H3"])
def test_kl_columns_match_reference(name):
    """Each column, walked with w's ideal in bit order, is the reference's
    (y, P) list at w, and its pool holds every distinct P once."""
    group = coxeter_group(KL_GROUPS[name])
    table, reference = kl_table(group), reference_kl_table(group)
    by_column = {}
    for (y, w), p in reference.items():
        by_column.setdefault(w, []).append((y, p))
    for w in group.elements():
        ideal = mask_bits(group.bruhat_mask(w))
        walked = [(y, table.pool[i]) for y, i in zip(ideal, table.columns[w], strict=True)]
        assert walked == sorted(by_column[w]), group.word_str(w)
    assert len(set(table.pool)) == len(table.pool) == len(set(reference.values()))


def test_kl_table_retains_little_memory():
    """B4's table keeps 40,249 pool indices and 41 polynomials: under 1 MB
    once the masks and word strings it shares with the group exist (a
    dict keyed by (y, w) tuples kept 3.8 MB)."""
    group = coxeter_group("B4")
    for w in group.elements():
        group.bruhat_mask(w)
    group._word_strs()
    tracemalloc.start()
    try:
        table = kl_table(group)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table.pairs()) == 40_249
    assert retained < 1_000_000


def test_kl_columns_widen_past_65536_polynomials():
    """A finished column is kept in 16 bits while the pool holds at most
    65,536 polynomials and in 32 bits once it holds more."""
    assert _frozen([0, 65_535], [ONE] * 65_536).typecode == "H"
    column = _frozen([0, 65_536], [ONE] * 65_537)
    assert column.typecode == "I" and list(column) == [0, 65_536]


def test_kl_tables_compare_by_identity(b2):
    table = kl_table(b2)
    assert table == table and table != kl_table(b2) and hash(table) == hash(table)


# -- inverse KL ----------------------------------------------------------------

def test_inverse_kl_b2_signs(b2):
    table = kl_table(b2)
    inv = inverse_kl(table, b2.elements())
    for (x, z), q in inv.items():
        sign = (-1) ** (b2.length(x) + b2.length(z))
        assert q == (ONE if sign == 1 else -ONE)
    # composing the two triangular matrices gives the identity
    for x in b2.elements():
        for z in b2.elements():
            total = ZERO
            for y in b2.elements():
                total = total + inv.get((x, y), ZERO) * table.get(y, z)
            assert total == (ONE if x == z else ZERO)


def reference_inverse_kl(table, support):
    """inverse_kl as first implemented: forward substitution over the
    support, sum_y P'_{x,y} P_{y,z} = delta_{x,z}, pair by pair."""
    group = table.group
    supp = sorted(set(support))
    Pp = {}
    for i, z in enumerate(supp):
        for x in supp[: i + 1]:
            if x == z:
                Pp[(x, z)] = ONE
                continue
            if not group.bruhat_leq(x, z):
                continue
            acc = ZERO
            for y in supp:
                if (x, y) in Pp and y != z and group.bruhat_leq(y, z):
                    acc = acc + Pp[(x, y)] * table.get(y, z)
            Pp[(x, z)] = -acc
    return Pp


def _inverse_kl_cases(b4, b4_kl):
    for k in (2, 3):
        for Jsub in itertools.combinations(b4.generators(), k):
            yield f"B4 J={Jsub}", b4_kl, b4.parabolic_elements(Jsub)
    for spec in ("B3", ((1, 5), (5, 1))):
        group = coxeter_group(spec)
        yield f"all of {spec}", kl_table(group), group.elements()


def test_inverse_kl_matches_reference(b4, b4_kl):
    """The inversion formula against the forward substitution it replaced,
    on the ten B4 parabolics of rank 2 or 3, all of B3 and all of I2(5)."""
    cases = list(_inverse_kl_cases(b4, b4_kl))
    assert len(cases) == 12
    for name, table, support in cases:
        assert inverse_kl(table, support) == reference_inverse_kl(table, support), name


def test_inverse_kl_requires_closed_support(b4, b4_kl):
    WJ = b4.parabolic_elements({1, 2})
    inv = inverse_kl(b4_kl, WJ)
    for (x, z), q in inv.items():
        sign = (-1) ** (b4.length(x) + b4.length(z))
        assert q == (ONE if sign == 1 else -ONE)
    with pytest.raises(ValueError):
        inverse_kl(b4_kl, [w for w in WJ if b4.length(w) != 1])


@pytest.mark.parametrize("entry", [-1, 0.5, None, "order", True])
def test_inverse_kl_refuses_what_is_not_an_element(b2, entry):
    """-1 would fail in ``1 << w`` with "negative shift count", 0.5 and None
    with a TypeError, |W| past the end of the length table, and True would
    read as element 1."""
    table = kl_table(b2)
    if entry == "order":
        entry = len(b2.elements())
    with pytest.raises(ValueError, match="no element"):
        inverse_kl(table, [b2.identity(), entry])


def test_inverse_kl_inverts_b5_ideals():
    """sum_y P'_{x,y} P_{y,z} = delta_{x,z} on B5, with P' from ``inverse_kl``
    on the Bruhat ideal of 20 seeded z with l(z) <= 12, at 10 seeded x <= z
    each; the other tests check it on B4 parabolics, B3 and I2(5) only."""
    group = coxeter_group("B5")
    table = kl_table(group)
    rng = random.Random(5)
    short = [z for z in group.elements() if 2 <= group.length(z) <= 12]
    for z in rng.sample(short, 20):
        ideal = mask_bits(group.bruhat_mask(z))
        inverse = inverse_kl(table, ideal)
        for x in rng.sample(ideal, min(10, len(ideal))):
            total = ZERO
            for y in ideal:
                if (x, y) in inverse:
                    total = total + inverse[(x, y)] * table.get(y, z)
            assert total == (ONE if x == z else ZERO), (group.word_str(x), group.word_str(z))


# -- canonical bases -------------------------------------------------------------

def test_canonical_basis_unequal_dihedral(b2, ctx):
    """The weighted dihedral canonical basis against independent records."""
    for (t_name, z_name), pairs in SPOT_P.items():
        t = ctx.to_mirror[ctx.by_name[t_name]]
        z = ctx.to_mirror[ctx.by_name[z_name]]
        assert ctx.pbasis.p(t, z) == poly(*pairs)


def test_canonical_basis_bar_invariance(ctx):
    algebra = ctx.pbasis.algebra
    for z, vec in ctx.pbasis.vectors.items():
        assert algebra.bar(vec) == vec
        assert vec.coeff(z) == ONE
        for t in vec.support():
            if t != z:
                assert vec.coeff(t).in_v_minus_strict()


@pytest.mark.parametrize("rank", [2, 3])
def test_split_case_matches_kl(rank):
    """With the constant weight, p(t,z) = v^{l(t)-l(z)} P_{t,z}(v^2)."""
    group = coxeter_group(f"B{rank}")
    algebra = HeckeAlgebra(group, "weighted", split_weight(group))
    basis = canonical_basis(algebra)
    table = kl_table(group)
    for z in group.elements():
        for t in group.elements():
            expected = table.get(t, z).shift(group.length(t) - group.length(z))
            assert basis.p(t, z) == expected


def walk_step(algebra, vectors, z, sign=1):
    """c_z on Laurent values, from c_{zs} in ``vectors``: the c_s step read
    off the closed form term by term, then one downward correction walk
    over the ideal of z, with no pool and no memo.  Returns the terms of
    c_z and the corrections (t, gamma_t) it subtracted; ``sign=-1`` flips
    the sign of the ±L exponent, for the mutation tests."""
    group = algebra.group
    length = group._length
    s = min(group._rdesc[z])
    times_s, L = group._rmul[s], sign * algebra.weight(s)
    pairs = []
    for y, c in vectors[times_s[z]].terms.items():
        ys = times_s[y]
        pairs += ((ys, c), (y, c.shift(L if length[ys] < length[y] else -L)))
    terms = add_into({}, pairs)
    below = mask_bits(group.bruhat_mask(z))
    below.pop()  # z, the top bit
    corrections = []
    for t in reversed(below):
        coeff = terms.get(t)
        if coeff is not None and not coeff.in_v_minus_strict():
            corrections.append((t, bar_symmetric_head(coeff)))
            add_into(terms, vectors[t].terms.items(), -corrections[-1][1])
    return terms, corrections


def walk_canonical_basis(algebra):
    """canonical_basis on Laurent values, one ``walk_step`` per element."""
    group = algebra.group
    vectors = {group.identity(): algebra.unit()}
    for z in group.elements()[1:]:
        vectors[z] = algebra.element(walk_step(algebra, vectors, z)[0])
    return vectors


def reference_canonical_basis(algebra):
    """canonical_basis as first written, on ``reference_multiply``: after
    c_s · c_{sz}, rescan every term and correct the largest violating t
    until none is left."""
    group = algebra.group
    weight = algebra.weight
    vectors = {}
    for z in group.elements():
        if z == group.identity():
            vectors[z] = algebra.unit()
            continue
        s = min(group.left_descents(z))
        c_s = algebra.element({group.generator(s): ONE,
                               group.identity(): v_power(-weight(s))})
        x = reference_multiply(algebra, c_s, vectors[group.left_mult_gen(s, z)])
        while True:
            worst = max((t for t, coeff in x.terms.items()
                         if t != z and not coeff.in_v_minus_strict()), default=None)
            if worst is None:
                break
            x = x - vectors[worst].scale(bar_symmetric_head(x.coeff(worst)))
        vectors[z] = x
    return vectors


WEIGHTED_CASES = [("B3", (a, b)) for a in (1, 2, 3) for b in (1, 2, 3)] + [
    ("B4", (2, 1)), ("B2", (0, 0)), ("B3", (0, 1)), ("B3", (2, 0))]


@pytest.mark.parametrize("label,ab", WEIGHTED_CASES)
def test_canonical_basis_matches_reference(label, ab):
    """Starting from c_{zs} · c_s and correcting in one walk gives the
    basis of c_s · c_{sz} with the rescanning loop, on B3 for all weights
    (a, b, ..., b) with a, b in {1, 2, 3}, on B4 with (2, 1, 1, 1), and
    with a zero weight on B2 and B3, where the factor T_s + 1 is corrected
    to c_s = T_s; each basis passes its own validation."""
    group = coxeter_group(label)
    weight = WeightFunction(group, {i: ab[0] if i == 1 else ab[1]
                                    for i in group.generators()})
    algebra = HeckeAlgebra(group, "weighted", weight)
    basis = canonical_basis(algebra)
    assert basis.vectors == reference_canonical_basis(algebra)


@pytest.mark.parametrize("ab", [(3, 1), (3, 2), (1, 3), (2, 0), (0, 1), (3, 3)])
def test_canonical_basis_matches_the_walk_on_values(ab):
    """The walk on pool indices, restricted and filled by copies, gives the
    vectors of the unrestricted walk on Laurent values, on B4 for the three
    weights with the largest pools, for a zero weight on either class of
    generators, and for equal weights above 1."""
    group = coxeter_group("B4")
    weight = WeightFunction(group, {i: ab[0] if i == 1 else ab[1]
                                    for i in group.generators()})
    algebra = HeckeAlgebra(group, "weighted", weight)
    basis = canonical_basis(algebra, validate=False)
    assert basis.vectors == walk_canonical_basis(algebra)


def test_canonical_basis_p_refuses_elements_outside_the_group(b2):
    """What ``KLTable.get`` refuses, ``p`` refuses, for t and for z."""
    algebra = HeckeAlgebra(b2, "weighted", WeightFunction(b2, {1: 3, 2: 1}))
    basis = canonical_basis(algebra)
    top = len(b2.elements()) - 1
    for t, z in ((99, 3), (-1, 3), (0, 99), (0, -1), (top + 1, top),
                 (0.0, 3), (0, 3.0), (None, 3), (0, None)):
        with pytest.raises(ValueError):
            basis.p(t, z)
    assert basis.p(top, 0) == ZERO
    assert basis.p(0, 0) == ONE


def test_canonical_basis_takes_one_step_per_element(monkeypatch):
    """Each c_z starts from c_{zs} · c_s in one step, read off the closed
    form of T_y · c_s term by term: on B4 (2, 1, 1, 1) the unvalidated
    basis calls neither ``multiply`` nor ``_times_gen``, where folding
    along c_s took one ``_times_gen`` step per element and c_s · c_{sz}
    took 163,128.  The walk runs only where a correction can land, 5,092
    of the 40,249 positions, and each distinct correction (current,
    gamma_t, p(u, t)) forms its product once: 1,778 Laurent products, and
    the algebra's four generator inverses four more, where the walk over
    every position formed 4,917 and the walk on values 34,102."""
    calls = []
    products = 0
    mul = Laurent.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Laurent, "__mul__", counted)

    def refused(name):
        def record(*args):
            calls.append(name)
            raise AssertionError(f"canonical_basis called {name}")
        return record

    monkeypatch.setattr(HeckeAlgebra, "multiply", refused("multiply"))
    monkeypatch.setattr(HeckeAlgebra, "_times_gen", refused("_times_gen"))
    group = coxeter_group("B4")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1}))
    basis = canonical_basis(algebra, validate=False)
    assert calls == []
    assert 0 < products <= 2_000
    assert len(basis.vectors) == len(group.elements())


def bar_oracle(algebra, vectors):
    """The full bar check, the certificate's oracle: every c_z is
    bar-invariant, has top term 1 and is supported on the ideal of z.  It
    does not check that p(t, z) lies in v^-1 Z[v^-1]."""
    group = algebra.group
    return all(algebra.bar(x) == x and x.coeff(z) == ONE
               and all(group.bruhat_leq(t, z) for t in x.terms)
               for z, x in vectors.items())


def reference_certify(algebra, vectors):
    """The certificate on Laurent values, the oracle of ``_certify``:
    the same checks in the same order with the same messages, with
    c_{zs} · c_s formed by the general ``multiply`` and the peeling done
    in Laurent arithmetic."""
    group = algebra.group
    length = group._length
    # c_s as the walk made it: T_s + v^-L(s), or T_s when L(s) = 0
    gens = {s: vectors[group.generator(s)] for s in group.generators()}
    for c_s in gens.values():
        if algebra.bar(c_s) != c_s:
            raise AssertionError("canonical basis element is not bar-invariant")
    for z in group.elements():
        x = vectors[z]
        if x.coeff(z) != ONE:
            raise AssertionError("canonical basis element lost its top term")
        ideal = group.bruhat_mask(z)
        for t, p in x.terms.items():
            if not ideal >> t & 1:
                raise AssertionError("canonical basis support leaked above z")
            if t != z and not p.in_v_minus_strict():
                raise AssertionError("canonical basis coefficient is not in v^-1 Z[v^-1]")
        if length[z] < 2:
            continue
        s = min(group._rdesc[z])
        d = (algebra.multiply(vectors[group._rmul[s][z]], gens[s]) - x).terms
        while d:
            t = max(d)  # elements are numbered by length: t is Bruhat-maximal in d
            gamma = d[t]
            if t == z or not ideal >> t & 1 or not gamma.is_bar_symmetric():
                raise AssertionError("canonical basis element is not bar-invariant")
            add_into(d, vectors[t].terms.items(), -gamma)


def verdict(certify, algebra, vectors):
    """None if ``certify`` accepts, else the message of its AssertionError."""
    try:
        certify(algebra, vectors)
    except AssertionError as error:
        return str(error)
    return None


def valid_weights(group):
    """Every weight function with values in {0, 1, 2, 3}."""
    out = []
    for values in itertools.product(range(4), repeat=len(group.generators())):
        try:
            out.append(WeightFunction(group, dict(zip(group.generators(), values))))
        except ValueError:  # conjugate generators weighted differently
            pass
    return out


CERTIFY_GROUPS = {  # spec, number of valid weights in {0, ..., 3}
    "B2": ("B2", 16),
    "B3": ("B3", 16),
    "matrix:A3": (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 4),
    "matrix:H3": (KL_GROUPS["matrix:H3"], 4),
    "matrix:I2(5)": (((1, 5), (5, 1)), 4),
    "matrix:I2(6)": (((1, 6), (6, 1)), 16),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_GROUPS))
def test_certificate_agrees_with_the_bar_check(name):
    """The certificate accepts every basis that the bar check accepts, on
    all 60 valid weights in {0, ..., 3} of these six groups, zero weights
    included."""
    spec, count = CERTIFY_GROUPS[name]
    group = coxeter_group(spec)
    weights = valid_weights(group)
    assert len(weights) == count
    for weight in weights:
        algebra = HeckeAlgebra(group, "weighted", weight)
        basis = canonical_basis(algebra)
        assert bar_oracle(algebra, basis.vectors), weight.values


def test_certificate_agrees_with_the_bar_check_on_b4():
    group = coxeter_group("B4")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1}))
    basis = canonical_basis(algebra)
    assert bar_oracle(algebra, basis.vectors)


@pytest.mark.parametrize("name", sorted(CERTIFY_GROUPS))
def test_canonical_basis_matches_the_walk_on_every_small_weight(name):
    """The restricted walk and its copies give the vectors of the
    unrestricted walk on Laurent values, on all 60 valid weights in
    {0, ..., 3} of the six groups, zero weights included."""
    group = coxeter_group(CERTIFY_GROUPS[name][0])
    for weight in valid_weights(group):
        algebra = HeckeAlgebra(group, "weighted", weight)
        basis = canonical_basis(algebra, validate=False)
        assert basis.vectors == walk_canonical_basis(algebra), weight.values


COPY_CASES = [("B3", tuple(w.values.values())) for w in valid_weights(coxeter_group("B3"))] + [
    ("B4", (2, 1, 1, 1))]


@pytest.mark.parametrize("label,values", COPY_CASES,
                         ids=[f"{label}-{''.join(map(str, values))}" for label, values in COPY_CASES])
def test_copy_identity_holds_on_finished_bases(label, values):
    """The premise of the fill, on bases from the unrestricted walk on
    values: for every comparable pair y <= z and every generator t with
    L(t) > 0, p(y, z) = v^-L(t) p(ty, z) if t is a left descent of z with
    ty > y, and p(y, z) = v^-L(t) p(yt, z) if t is a right descent of z
    with yt > y (Lusztig, CRM Monograph 18, 2003, Thm 6.6).  On B3 with a
    zero weight the same identity at L(t) = 0 fails somewhere, which is
    why the fill leaves such t out."""
    group = coxeter_group(label)
    weight = WeightFunction(group, dict(zip(group.generators(), values)))
    vectors = walk_canonical_basis(HeckeAlgebra(group, "weighted", weight))
    checked = failed_at_zero = 0
    for z in group.elements():
        c = vectors[z]
        for y in mask_bits(group.bruhat_mask(z)):
            for t in group.generators():
                for descents, times_t in ((group.left_descents, group._lmul[t]),
                                          (group.right_descents, group._rmul[t])):
                    u = times_t[y]
                    if t not in descents(z) or u < y:
                        continue
                    copied = c.coeff(u).shift(-weight(t)) == c.coeff(y)
                    if weight(t):
                        assert copied, (group.word_str(y), group.word_str(z), t)
                        checked += 1
                    else:
                        failed_at_zero += not copied
    assert (checked > 0) == any(values)
    assert (failed_at_zero > 0) == (0 in values)


def mutate(algebra, vectors, kind):
    """A copy of a B3 basis with one c_z broken in the way ``kind`` names."""
    group = algebra.group
    vectors = dict(vectors)
    w0 = group.longest_element()
    s1 = group.generator(1)
    if kind in ("sign flipped at s1", "sign flipped at w0"):
        z = s1 if kind.endswith("s1") else w0
        vectors[z] = algebra.element(walk_step(algebra, vectors, z, sign=-1)[0])
    elif kind == "correction dropped":
        t, gamma = walk_step(algebra, vectors, w0)[1][0]
        vectors[w0] = vectors[w0] + vectors[t].scale(gamma)
    elif kind == "gamma not bar-symmetric":
        t = group.right_mult_gen(w0, 1)
        vectors[w0] = vectors[w0] + vectors[t].scale(v_power(-1))
    elif kind == "coefficient at v^0":
        p = vectors[w0].coeff(group.identity())
        e = p.min_exp()
        moved = p - Laurent({e: p.coeff(e)}) + Laurent({0: p.coeff(e)})
        vectors[w0] = vectors[w0] + algebra.element({group.identity(): moved - p})
    elif kind == "term above z":
        z = group.from_word([1, 2])
        vectors[z] = vectors[z] + algebra.element({group.generator(3): v_power(-1)})
    return vectors


MUTATIONS = {  # kind: (the certificate's message, whether bar-invariance broke)
    "sign flipped at s1": ("not bar-invariant", True),
    "sign flipped at w0": ("not bar-invariant", True),
    "correction dropped": (r"not in v\^-1", False),
    "gamma not bar-symmetric": ("not bar-invariant", True),
    "coefficient at v^0": (r"not in v\^-1", True),
    "term above z": ("leaked above z", True),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_certificate_refuses_a_mutated_basis(kind):
    """Each mutation of a B3 (2, 1, 1) basis is refused, with the message
    of the property it breaks.  The bar check refuses it too wherever
    bar-invariance broke; a dropped correction keeps c_z bar-invariant and
    breaks only p(t, z) in v^-1 Z[v^-1], which the bar check does not test."""
    group = coxeter_group("B3")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1}))
    vectors = canonical_basis(algebra).vectors
    mutated = mutate(algebra, vectors, kind)
    assert mutated != vectors
    message, bar_broke = MUTATIONS[kind]
    with pytest.raises(AssertionError, match=message):
        _certify(algebra, mutated)
    assert bar_oracle(algebra, mutated) is not bar_broke


def perturbed_bases():
    """B3 (2, 1, 1) bases, each with one coefficient p(t, z) changed by
    v^-1, 2v^-3 or -v^-2, at one seeded t <= z for every z, t = z
    included; and, where t < z, set to the ``ONE`` object that the top
    terms share, which the certificate must not take for a top term."""
    group = coxeter_group("B3")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1}))
    vectors = canonical_basis(algebra).vectors
    rng = random.Random(30)
    for z in group.elements():
        t = rng.choice(mask_bits(group.bruhat_mask(z)))
        changed = [vectors[z] + algebra.element({t: change})
                   for change in (v_power(-1), Laurent({-3: 2}), -v_power(-2))]
        if t != z:
            assert vectors[z].coeff(z) is ONE
            changed.append(algebra.element({**vectors[z].terms, t: ONE}))
        for c_z in changed:
            yield algebra, {**vectors, z: c_z}


def test_certificate_on_codes_agrees_with_the_certificate_on_values():
    """``_certify`` and ``reference_certify`` accept the same bases and
    refuse the others with the same message: every valid weight in
    {0, ..., 3} of the six groups, B4 (2, 1, 1, 1), every mutation, and
    187 single-coefficient perturbations of B3 (2, 1, 1)."""
    cases = []
    for spec, _ in CERTIFY_GROUPS.values():
        group = coxeter_group(spec)
        for weight in valid_weights(group):
            algebra = HeckeAlgebra(group, "weighted", weight)
            cases.append((algebra, canonical_basis(algebra, validate=False).vectors))
    group = coxeter_group("B4")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1}))
    cases.append((algebra, canonical_basis(algebra, validate=False).vectors))
    accepted = len(cases)
    group = coxeter_group("B3")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1}))
    vectors = canonical_basis(algebra).vectors
    cases += [(algebra, mutate(algebra, vectors, kind)) for kind in sorted(MUTATIONS)]
    cases += list(perturbed_bases())
    verdicts = [verdict(_certify, *case) for case in cases]
    assert verdicts == [verdict(reference_certify, *case) for case in cases]
    assert verdicts[:accepted] == [None] * accepted
    assert set(verdicts[accepted:]) == {
        "canonical basis element is not bar-invariant",
        "canonical basis element lost its top term",
        "canonical basis support leaked above z",
        "canonical basis coefficient is not in v^-1 Z[v^-1]"}


@pytest.mark.parametrize("spec, values, k", [("B3", (2, 1, 1), k) for k in (2, 3, 4, 5)] + [
    (((1, 2), (2, 1)), (1, 2), 2)])
def test_certificate_refuses_codes_too_small_for_its_coefficients(monkeypatch, spec, values, k):
    """On a correct B3 (2, 1, 1) basis the running bound of the
    certificate reaches 2^(k-1) for these k, so it raises OverflowError
    before it decodes or drops a code that base 2^k may not hold: it
    neither accepts nor refuses the basis.  On A1 x A1 no peel step runs,
    and the bound is checked before d is first formed."""
    group = coxeter_group(spec)
    weight = WeightFunction(group, dict(zip(group.generators(), values)))
    algebra = HeckeAlgebra(group, "weighted", weight)
    vectors = canonical_basis(algebra).vectors
    monkeypatch.setattr(hecke, "_K", k)
    with pytest.raises(OverflowError):
        _certify(algebra, vectors)


def test_certificate_codes_in_base_2_to_the_6_suffice_for_b3(monkeypatch):
    """The bound stays below 2^5 on B3 (2, 1, 1), so base 2^6 certifies it."""
    group = coxeter_group("B3")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1}))
    vectors = canonical_basis(algebra).vectors
    monkeypatch.setattr(hecke, "_K", 6)
    _certify(algebra, vectors)


def test_validation_bars_only_the_generators(monkeypatch):
    """Validated B4 (2, 1, 1, 1) expands bar once per generator, where a
    bar check of every c_z would make 383 expansions.  It calls
    ``multiply`` only inside bar: c_{zs} · c_s is formed on integer codes,
    where the certificate on values formed it with ``multiply`` for each
    of the 379 elements of length at least 2.  It decodes once per peel
    step, 503 times, the number of gamma_t that ``reference_certify``
    subtracts."""
    counts = {"bar": 0, "multiply": 0, "decode": 0}
    in_bar = False
    bar, multiply, decode = HeckeAlgebra.bar, HeckeAlgebra.multiply, hecke._decode

    def counted_bar(self, h):
        nonlocal in_bar
        counts["bar"] += 1
        in_bar = True
        try:
            return bar(self, h)
        finally:
            in_bar = False

    def counted_multiply(self, x, y):
        counts["multiply"] += not in_bar
        return multiply(self, x, y)

    def counted_decode(*args):
        counts["decode"] += 1
        return decode(*args)

    monkeypatch.setattr(HeckeAlgebra, "bar", counted_bar)
    monkeypatch.setattr(HeckeAlgebra, "multiply", counted_multiply)
    monkeypatch.setattr(hecke, "_decode", counted_decode)
    group = coxeter_group("B4")
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1}))
    canonical_basis(algebra)
    assert counts == {"bar": 4, "multiply": 0, "decode": 503}


def test_canonical_basis_keeps_each_term_once():
    """Each c_z is built from its column of pool indices after the walk,
    popping the column, so the two copies never coexist in full: on B4
    (2, 1, 1, 1) the unvalidated call peaks at 1.9 times what it retains,
    and at 2.7 times if each c_z is built beside its column in the walk."""
    group = coxeter_group("B4")
    for w in group.elements():
        group.bruhat_mask(w)
    algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1}))
    tracemalloc.start()
    try:
        basis = canonical_basis(algebra, validate=False)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis.vectors) == 384
    assert peak < 2.2 * retained


def test_canonical_basis_rejects_geometric(b2):
    with pytest.raises(ValueError):
        canonical_basis(HeckeAlgebra(b2))
