"""Exact Laurent-polynomial ring: frozen cases and algebraic properties."""

import pytest
from hypothesis import given, strategies as st

from heckepieces.laurent import (
    Laurent,
    ONE,
    ZERO,
    bar_symmetric_head,
    v_power,
)


def poly(*pairs):
    out = ZERO
    for c, e in pairs:
        out = out + Laurent({e: c})
    return out


laurents = st.builds(
    Laurent,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
nonzero_laurents = laurents.filter(lambda p: p != ZERO)


# -- frozen cases -----------------------------------------------------------

def test_construction_drops_zero_coefficients():
    assert Laurent({3: 0, 1: 2}) == poly((2, 1))
    assert Laurent({}) == ZERO


def test_construction_refuses_non_int_terms():
    """A float or bool exponent or coefficient is refused, not truncated:
    {0: 0.5} would otherwise store a zero coefficient and break the
    invariant that equal polynomials have equal dicts."""
    for terms in ({0: 0.5}, {0: 2.0}, {1.5: 2}, {1.0: 1}, {0: True}, {True: 1},
                  {0: False}, {"1": 1}, {0: None}):
        with pytest.raises((TypeError, ValueError)):
            Laurent(terms)
    for exp in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            ONE.shift(exp)


def test_int_operands_behave_as_ints():
    """An int operand, bools included, is the constant it stands for."""
    p = poly((1, 0), (1, 2))
    assert ONE == True and ZERO == False and ONE != 2
    assert p + 1 == p + True == poly((2, 0), (1, 2))
    assert p - True == poly((1, 2))
    assert p * 0 == p * False == ZERO
    assert p * True == True * p == p


def test_arithmetic_frozen():
    p = poly((1, 0), (1, 2))          # 1 + v^2
    q = poly((1, 0), (1, 4))          # 1 + v^4
    assert p * q == poly((1, 0), (1, 2), (1, 4), (1, 6))
    assert p * p == poly((1, 0), (2, 2), (1, 4))
    assert p - p == ZERO
    assert -p == poly((-1, 0), (-1, 2))
    assert p + 1 == poly((2, 0), (1, 2))
    assert 2 * p == poly((2, 0), (2, 2))
    assert p ** 3 == poly((1, 0), (3, 2), (3, 4), (1, 6))
    assert p.shift(-3) == poly((1, -3), (1, -1))


def test_text_rendering():
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert poly((1, -3), (2, 0), (1, 5)).text() == "v^-3 + 2 + v^5"
    assert poly((-1, 1)).text() == "-v"
    assert poly((1, 1), (-3, 2)).text() == "v - 3v^2"
    assert v_power(-1).text() == "v^-1"


def test_exact_div_frozen():
    p = poly((1, 0), (1, 2))
    product = p * poly((1, -2), (-1, 0), (2, 4))
    assert product.exact_div(p) == poly((1, -2), (-1, 0), (2, 4))
    with pytest.raises(ValueError):
        poly((1, 0), (1, 1)).exact_div(poly((1, 0), (1, 2)))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_exact_div_takes_an_int_divisor():
    """An int divisor is the constant it stands for, as in ``+`` and ``*``;
    any other divisor that is not a Laurent polynomial is refused."""
    p = poly((2, 0), (4, 2))
    assert p.exact_div(2) == poly((1, 0), (2, 2))
    assert p.exact_div(-2) == poly((-1, 0), (-2, 2))
    assert p.exact_div(True) == p
    with pytest.raises(ValueError):
        p.exact_div(3)
    with pytest.raises(ZeroDivisionError):
        p.exact_div(0)
    for divisor in ("2", 2.0, None):
        with pytest.raises(TypeError):
            p.exact_div(divisor)


def test_predicates_frozen():
    assert poly((1, -2), (3, 0)).in_v_minus()
    assert not poly((1, -2), (3, 0)).in_v_minus_strict()
    assert poly((1, -2), (3, -1)).in_v_minus_strict()
    assert not poly((1, 1)).in_v_minus()
    assert poly((1, -2), (5, 0), (1, 2)).is_bar_symmetric()
    assert not poly((1, -2), (2, 2)).is_bar_symmetric()
    assert poly((1, 0), (2, 3)).has_nonneg_coeffs()
    assert not poly((1, 0), (-2, 3)).has_nonneg_coeffs()
    assert ZERO.in_v_minus() and ZERO.is_bar_symmetric()


def test_bar_frozen():
    assert poly((1, -3), (2, 0), (1, 5)).bar() == poly((1, 3), (2, 0), (1, -5))


def test_min_max_exp():
    p = poly((1, -3), (1, 5))
    assert p.min_exp() == -3 and p.max_exp() == 5


def test_bar_symmetric_head_frozen():
    p = poly((2, -1), (3, 0), (1, 1), (5, 4))
    assert bar_symmetric_head(p) == poly((5, -4), (1, -1), (3, 0), (1, 1), (5, 4))
    assert bar_symmetric_head(ZERO) == ZERO


def test_from_int():
    """A constant built from an int: 0 stores no term."""
    assert Laurent({0: 0}) == ZERO
    assert Laurent({0: -2}) == poly((-2, 0))


def test_constants_hash_like_ints():
    assert hash(Laurent({0: 3})) == hash(3)
    assert hash(ZERO) == hash(0)
    assert hash(Laurent({0: -2})) == hash(-2)
    assert {3: "three"}[Laurent({0: 3})] == "three"
    assert Laurent({0: 3}) in {3}


# -- properties -------------------------------------------------------------

@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents, laurents)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@given(laurents, nonzero_laurents)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


@given(laurents)
def test_bar_symmetric_head_properties(p):
    head = bar_symmetric_head(p)
    assert head.is_bar_symmetric()
    # the head matches p on all nonnegative exponents
    tail = p - head
    assert tail == ZERO or tail.max_exp() < 0
    if p.is_bar_symmetric():
        assert head == p


@given(laurents, st.integers(-5, 5))
def test_shift_is_monomial_multiplication(p, k):
    assert p.shift(k) == p * v_power(k)


@given(laurents, st.integers(-5, 5))
def test_unchecked_maps_keep_the_invariant(p, k):
    """shift, bar and negation build their dicts without the constructor's
    checks; each result equals the checked construction from its terms."""
    for q in (p.shift(k), p.bar(), -p):
        terms = dict(q.items())
        assert all(type(e) is int and type(c) is int and c for e, c in terms.items())
        assert q == Laurent(terms)


@given(laurents, laurents, st.integers(-5, 5), st.integers(-9, 9))
def test_equal_polynomials_hash_equal(p, q, k, n):
    """Pools intern by hash and equality, so every path to the same
    polynomial must give an equal value with an equal hash: the
    constructor, shift, sums, products, bar, negation and int constants."""
    terms = dict(p.items())
    by_monomials = sum((Laurent({e: c}) for e, c in terms.items()), ZERO)
    paths = [
        (p, Laurent(terms)),
        (p, by_monomials),
        (p.shift(k), Laurent({e + k: c for e, c in terms.items()})),
        (p.shift(k).shift(-k), p),
        (p.shift(k), p * v_power(k)),
        (p, (p + q) - q),
        (p + q, q + p),
        (p * q, q * p),
        (p * ONE, p),
        (p * 1, p),
        (p.bar().bar(), p),
        ((p * q).bar(), p.bar() * q.bar()),
        (-p, Laurent({e: -c for e, c in terms.items()})),
        (-p, p * -1),
        (-(-p), p),
        (p - p, ZERO),
        (p - p + n, Laurent({0: n})),
        (Laurent({0: n}).bar(), Laurent({0: n}).shift(0)),
    ]
    for a, b in paths:
        assert a == b
        assert hash(a) == hash(b)
        assert {a: None}.keys() == {b: None}.keys()
    constant = p - p + n
    assert constant == n and hash(constant) == hash(n)


@given(laurents)
def test_zero_product(p):
    assert p * ZERO == ZERO
