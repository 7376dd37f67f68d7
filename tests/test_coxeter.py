"""Coxeter groups: the table core, words, Bruhat order, parabolic machinery."""

import functools
import itertools
import math
import random
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from heckepieces.coxeter import (
    CoxeterGroup,
    DiagramAutomorphism,
    coxeter_group,
    coxeter_order,
    mask_bits,
    type_b_matrix,
)
from heckepieces.hecke import kl_table

A3_MATRIX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))


# -- basic structure ---------------------------------------------------------

@pytest.mark.parametrize("rank,order,longest", [(2, 8, 4), (3, 48, 9), (4, 384, 16)])
def test_order_and_longest_length(rank, order, longest):
    group = coxeter_group(f"B{rank}")
    elements = group.elements()
    assert len(elements) == order
    assert max(group.length(w) for w in elements) == longest


def test_factory_validation():
    with pytest.raises(ValueError):
        coxeter_group("Q9")
    with pytest.raises(ValueError):
        coxeter_group("B1x")
    for tag in ("B٤", "B４", "B²"):  # digits outside ASCII
        with pytest.raises(ValueError, match="unknown group type"):
            coxeter_group(tag)
    with pytest.raises(ValueError):
        coxeter_group([[1, 2], [3, 1]])  # asymmetric
    with pytest.raises(ValueError):
        coxeter_group([[2, 3], [3, 1]])  # bad diagonal


def test_type_tag_must_name_the_matrix():
    """A tag is ``matrix``, or ``B<n>`` on the matrix of type B_n.  A B4 tag
    on A3 would gate type-B piece dimensions and write a ``B4`` cache
    header, and a newline in a tag would split that header line."""
    b4 = type_b_matrix(4)
    for matrix, tag in ((A3_MATRIX, "B3"), (A3_MATRIX, "B4"), (b4, "B3"), (b4, "B4\nx"),
                        (b4, " B4"), (b4, "B04"), (b4, "A4"), (b4, None)):
        with pytest.raises(ValueError, match="does not name this matrix"):
            CoxeterGroup(matrix, tag)
    assert CoxeterGroup(type_b_matrix(3), "B3").type_tag == "B3"
    assert CoxeterGroup(type_b_matrix(3)).type_tag == CoxeterGroup(A3_MATRIX).type_tag == "matrix"


@pytest.mark.parametrize("entry", [3.5, "3", True, None])
def test_matrix_entries_must_be_integers(entry):
    """No entry is coerced: 3.5 used to build A2, "3" read as 3 and True as
    1, and None raised TypeError."""
    for matrix in ([[1, entry], [entry, 1]], [[entry, 3], [3, 1]]):
        with pytest.raises(ValueError, match="entries must be integers"):
            coxeter_group(matrix)
        with pytest.raises(ValueError, match="entries must be integers"):
            coxeter_order(matrix)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_defining_relations(rank):
    group = coxeter_group(f"B{rank}")
    e = group.identity()
    for i in group.generators():
        for j in group.generators():
            m = group.m(i, j)
            w = e
            for _ in range(m):
                w = group.right_mult_gen(group.right_mult_gen(w, i), j)
            assert w == e


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_typed_b_and_its_matrix_agree_on_canonical_words(rank):
    """``B<rank>`` and its Coxeter matrix given as a matrix build the same
    group: the same elements, with the same words, descents, inverses and
    products; only the type tag differs."""
    typed = coxeter_group(f"B{rank}")
    plain = coxeter_group(type_b_matrix(rank))
    assert (typed.type_tag, plain.type_tag) == (f"B{rank}", "matrix")
    assert typed.elements() == plain.elements()
    for w in typed.elements():
        assert plain.reduced_word(w) == typed.reduced_word(w)
        assert plain.right_descents(w) == typed.right_descents(w)
        assert plain.left_descents(w) == typed.left_descents(w)
        assert plain.inverse(w) == typed.inverse(w)
        for s in typed.generators():
            assert plain.right_mult_gen(w, s) == typed.right_mult_gen(w, s)
            assert plain.left_mult_gen(s, w) == typed.left_mult_gen(s, w)


def test_typed_b4_and_its_matrix_have_one_kl_table(b4, b4_kl):
    """``B4`` and its Coxeter matrix given as a matrix have the same P_{y,w}
    at every comparable pair of words."""
    plain = coxeter_group(type_b_matrix(4))

    def by_words(group, table):
        return {(group.word_str(y), group.word_str(w)): table.get(y, w)
                for y, w in table.pairs()}

    assert by_words(plain, kl_table(plain)) == by_words(b4, b4_kl)


def _coxeter_matrix(rank, edges):
    """The Coxeter matrix with m = 2 off the listed (i, j, m) edges."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, label in edges:
        m[i - 1][j - 1] = m[j - 1][i - 1] = label
    return m


CENSUS_CASES = {
    "A5": (_coxeter_matrix(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)]),
           (2, 3, 4, 5, 6)),
    "D4": (_coxeter_matrix(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)]), (2, 4, 4, 6)),
    "F4": (_coxeter_matrix(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]), (2, 6, 8, 12)),
    "H3": (_coxeter_matrix(3, [(1, 2, 5), (2, 3, 3)]), (2, 6, 10)),
    "H4": (_coxeter_matrix(4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)]), (2, 12, 20, 30)),
    "I2(8)": (_coxeter_matrix(2, [(1, 2, 8)]), (2, 8)),
    "I2(7)xA1": (_coxeter_matrix(3, [(1, 2, 7)]), (2, 7, 2)),
    "E6": (_coxeter_matrix(6, [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (2, 4, 3)]),
           (2, 5, 6, 8, 9, 12)),
}


@pytest.mark.parametrize("name", sorted(CENSUS_CASES))
def test_length_census_is_poincare_polynomial(name):
    """The length generating function of a finite Coxeter group is
    prod_i (1 + q + ... + q^(d_i - 1)) over its degrees d_i."""
    matrix, degrees = CENSUS_CASES[name]
    expected = [1]
    for d in degrees:
        expected = [sum(expected[k - j] for j in range(d) if 0 <= k - j < len(expected))
                    for k in range(len(expected) + d - 1)]
    group = coxeter_group(matrix)
    census = Counter(group.length(w) for w in group.elements())
    assert [census[k] for k in range(len(expected))] == expected
    assert sum(census.values()) == sum(expected)


@pytest.mark.parametrize("group", [
    coxeter_group("B3"),
    coxeter_group(CENSUS_CASES["D4"][0]),
], ids=["B3", "matrix:D4"])
def test_elements_come_in_sort_key_order(group):
    elements = group.elements()
    assert list(elements) == sorted(elements, key=group.sort_key)


@pytest.mark.parametrize("spec", [
    "B4", A3_MATRIX, CENSUS_CASES["D4"][0], CENSUS_CASES["H3"][0],
    _coxeter_matrix(2, [(1, 2, 5)]),
], ids=["B4", "matrix:A3", "matrix:D4", "matrix:H3", "matrix:I2(5)"])
def test_one_generator_steps_compare_like_lengths(spec):
    """A generator on either side changes the length by exactly one, and
    elements are numbered by length, so ``u > y`` says l(u) > l(y) for
    u = y·s and u = s·y: the one-generator steps of the Hecke layer
    compare element numbers instead of lengths."""
    group = coxeter_group(spec)
    for y in group.elements():
        for s in group.generators():
            for u in (group.right_mult_gen(y, s), group.left_mult_gen(s, y)):
                assert abs(group.length(u) - group.length(y)) == 1
                assert (u > y) == (group.length(u) > group.length(y))


@pytest.mark.parametrize("name", sorted(CENSUS_CASES))
def test_order_of_census_cases(name):
    matrix = CENSUS_CASES[name][0]
    assert coxeter_order(matrix) == _distinct_words(CoxeterGroup(matrix))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_order_of_type_b(rank):
    assert coxeter_order(type_b_matrix(rank)) == _distinct_words(coxeter_group(f"B{rank}"))


def _distinct_words(group):
    return len({group.reduced_word(w) for w in group.elements()})


AFFINE_CASES = {
    "A~2": _coxeter_matrix(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    "C~2": _coxeter_matrix(3, [(1, 2, 4), (2, 3, 4)]),
    "G~2": _coxeter_matrix(3, [(1, 2, 6), (2, 3, 3)]),
    "F~4": _coxeter_matrix(5, [(1, 2, 3), (2, 3, 3), (3, 4, 4), (4, 5, 3)]),
    "D~4": _coxeter_matrix(5, [(1, 5, 3), (2, 5, 3), (3, 5, 3), (4, 5, 3)]),
    "E~6": _coxeter_matrix(7, [(1, 2, 3), (2, 7, 3), (3, 4, 3), (4, 7, 3),
                               (5, 6, 3), (6, 7, 3)]),
}


@pytest.mark.parametrize("name", sorted(AFFINE_CASES))
def test_infinite_groups_are_refused_up_front(name):
    matrix = AFFINE_CASES[name]
    assert coxeter_order(matrix) is None
    with pytest.raises(ValueError, match="infinite"):
        coxeter_group(matrix)


def test_groups_above_the_cap_are_refused_up_front():
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        coxeter_group("B8")
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        coxeter_group("B12")


@pytest.mark.parametrize("group", [
    coxeter_group("B3"),
    coxeter_group(A3_MATRIX),
], ids=["B3", "matrix:A3"])
@pytest.mark.parametrize("bad", [0, -1, 4, True])
def test_generators_outside_the_range_raise(group, bad):
    """Neither a generator outside 1..rank nor an element outside range(|W|)
    is looked up; in particular element -1 must not wrap to the last one,
    and True must not read as generator or element 1."""
    w = group.elements()[5]
    with pytest.raises(ValueError):
        group.right_mult_gen(w, bad)
    with pytest.raises(ValueError):
        group.left_mult_gen(bad, w)
    with pytest.raises(ValueError):
        group.generator(bad)
    for x in (-1, len(group.elements()), (1, 2, 3), True):
        with pytest.raises(ValueError):
            group.right_mult_gen(x, 1)
        with pytest.raises(ValueError):
            group.left_mult_gen(1, x)


# -- the window formulas of type B, kept as an oracle for the table core -----

def window_length(w):
    """inv(w) + neg(w) + nsp(w): inversions, negative entries, and pairs
    summing negative."""
    pairs = list(itertools.combinations(w, 2))
    return (sum(a > b for a, b in pairs) + sum(x < 0 for x in w)
            + sum(a + b < 0 for a, b in pairs))


def window_right_descents(w):
    return frozenset(([1] if w[0] < 0 else [])
                     + [i for i in range(2, len(w) + 1) if w[i - 2] > w[i - 1]])


def window_right_mult(w, i):
    """w·s_i permutes positions: s_1 negates w(1), s_i swaps w(i-1), w(i)."""
    if i == 1:
        return (-w[0],) + w[1:]
    lst = list(w)
    lst[i - 2], lst[i - 1] = lst[i - 1], lst[i - 2]
    return tuple(lst)


def window_left_mult(i, w):
    """s_i·w permutes values: s_1 negates ±1, s_i swaps ±(i-1) and ±i."""
    swap = {1: -1} if i == 1 else {i - 1: i, i: i - 1}
    return tuple(swap.get(abs(x), abs(x)) * (1 if x > 0 else -1) for x in w)


def window_product(a, b):
    """Composition (a·b)(j) = a(b(j))."""
    return tuple(a[x - 1] if x > 0 else -a[-x - 1] for x in b)


def window_inverse(w):
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[abs(val) - 1] = pos if val > 0 else -pos
    return tuple(out)


def window_of_word(rank, word):
    """The window of s_{word[0]}···s_{word[-1]}, by right multiplications."""
    w = tuple(range(1, rank + 1))
    for s in word:
        w = window_right_mult(w, s)
    return w


def _window(group, x):
    return window_of_word(group.rank, group.reduced_word(x))


def _check_against_windows(group, w):
    gens = group.generators()
    window = functools.partial(_window, group)
    win = window(w)
    assert group.length(w) == window_length(win)
    assert group.right_descents(w) == window_right_descents(win)
    assert group.left_descents(w) == window_right_descents(window_inverse(win))
    assert window(group.inverse(w)) == window_inverse(win)
    assert ([window(group.right_mult_gen(w, s)) for s in gens]
            == [window_right_mult(win, s) for s in gens])
    assert ([window(group.left_mult_gen(s, w)) for s in gens]
            == [window_left_mult(s, win) for s in gens])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_table_core_matches_window_formulas(rank):
    group = coxeter_group(f"B{rank}")
    elements = group.elements()
    windows = [_window(group, w) for w in elements]
    assert len(set(windows)) == len(elements) == 2 ** rank * math.factorial(rank)
    for w in elements:
        _check_against_windows(group, w)
    for a, b in itertools.product(elements, repeat=2):
        assert windows[group.product(a, b)] == window_product(windows[a], windows[b])


@functools.cache
def _b5():
    return coxeter_group("B5")


b5_words = st.lists(st.integers(1, 5), max_size=30)


@given(b5_words, b5_words)
def test_b5_table_core_matches_window_formulas(word_a, word_b):
    group = _b5()
    window = functools.partial(_window, group)
    a, b = group.from_word(word_a), group.from_word(word_b)
    assert (window(a), window(b)) == (window_of_word(5, word_a), window_of_word(5, word_b))
    _check_against_windows(group, a)
    assert window(group.product(a, b)) == window_product(window(a), window(b))


# The reflection representation (Humphreys, Reflection Groups and Coxeter
# Groups, §5.3-5.4), an oracle outside the enumeration: s_i(α_j) = α_j -
# c_ij α_i on the root basis.  An element is the tuple of its images of the
# simple roots, taken along its reduced word.  Coordinates lie in a ring
# Z[x] of quadratic integers, so that no m needs floats: a + bx is the pair
# (a, b).  Z[φ], φ = (1 + √5)/2 with φ² = φ + 1, holds m = 5, and Z[√2]
# holds m = 8.

class QuadraticIntegers(NamedTuple):
    """Z[x] with x² = p·x + n, where x = (p + √D)/2 > 0 and D = p² + 4n."""

    p: int
    n: int

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return a * c + self.n * b * d, a * d + b * c + self.p * b * d

    def dot(self, xs, ys):
        """sum_i x_i y_i."""
        a = b = 0
        for x, y in zip(xs, ys):
            c, d = self.mul(x, y)
            a, b = a + c, b + d
        return a, b

    def sign(self, x):
        """-1, 0 or 1 for a + bx: twice it is (2a + pb) + b√D, and where the
        two parts differ in sign, the larger square wins."""
        r, b = 2 * x[0] + self.p * x[1], x[1]
        if r * b >= 0:
            return (r > 0 or b > 0) - (r < 0 or b < 0)
        if r * r > (self.p * self.p + 4 * self.n) * b * b:
            return (r > 0) - (r < 0)
        return (b > 0) - (b < 0)


GOLDEN = QuadraticIntegers(1, 1)  # Z[φ]
ROOT_2 = QuadraticIntegers(0, 2)  # Z[√2]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


# (c_ij, c_ji) by m: c_ij c_ji = 4cos²(π/m), which is φ + 1 = φ·φ for m = 5
# and 2 + √2 for m = 8; for odd m the two are equal, so that no simple
# root's orbit holds a rescaled copy of another simple root
CARTAN_PAIRS = {2: ((0, 0), (0, 0)), 3: ((-1, 0), (-1, 0)), 4: ((-1, 0), (-2, 0)),
                5: ((0, -1), (0, -1)), 6: ((-1, 0), (-3, 0)), 8: ((-1, 0), (-2, -1))}


def cartan_matrix(coxeter):
    """A Cartan matrix from ``CARTAN_PAIRS`` and the ring of its entries:
    Z[√2] where some m is 8, Z[φ] otherwise.  On a tree diagram every such
    choice is the geometric representation up to a positive rescaling of
    the roots, which keeps their signs."""
    n = len(coxeter)
    labels = {m for row in coxeter for m in row}
    assert not {5, 8} <= labels, "no one ring here holds both cos(π/5) and cos(π/8)"
    cartan = [[(2, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        cartan[i][j], cartan[j][i] = CARTAN_PAIRS[coxeter[i][j]]
    return (ROOT_2 if 8 in labels else GOLDEN), cartan


def _simple_roots(n):
    return tuple(tuple((int(i == j), 0) for i in range(n)) for j in range(n))


def _reflect(ring, cartan, s, v):
    """s(v) = v - (sum_j c_sj v_j) α_s."""
    k = s - 1
    coeff = ring.dot(cartan[k], v)
    return tuple(_sub(x, coeff) if i == k else x for i, x in enumerate(v))


def _times_reflection(ring, cartan, images, s):
    """The images under w·s from those under w: (ws)(α_j) = w(α_j) - c_sj w(α_s)."""
    k = s - 1
    return tuple(tuple(_sub(a, ring.mul(cartan[k][j], b)) for a, b in zip(image, images[k]))
                 for j, image in enumerate(images))


def _images_of_word(ring, cartan, word):
    images = _simple_roots(len(cartan))
    for s in word:
        images = _times_reflection(ring, cartan, images, s)
    return images


def _act(ring, images, v):
    """w(v) = sum_j v_j w(α_j)."""
    return tuple(ring.dot(v, [image[i] for image in images]) for i in range(len(v)))


def _positive_roots(ring, cartan):
    """The orbit of the simple roots under the reflections, positive half."""
    roots = set(_simple_roots(len(cartan)))
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for s in range(1, len(cartan) + 1):
            u = _reflect(ring, cartan, s, v)
            if u not in roots:
                roots.add(u)
                frontier.append(u)
    return [v for v in roots if min(map(ring.sign, v)) >= 0]


def _is_negative(ring, v):
    return max(map(ring.sign, v)) <= 0  # a root has all coordinates of one sign


# name: (Coxeter matrix, number of positive roots, elements checked or None for all)
REFLECTION_GROUPS = {
    "matrix:A4": (_coxeter_matrix(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)]), 10, None),
    "matrix:D4": (CENSUS_CASES["D4"][0], 12, None),
    "matrix:F4": (CENSUS_CASES["F4"][0], 24, None),
    "matrix:H3": (CENSUS_CASES["H3"][0], 15, None),
    "matrix:I2(5)": (_coxeter_matrix(2, [(1, 2, 5)]), 5, None),
    "matrix:I2(8)": (_coxeter_matrix(2, [(1, 2, 8)]), 8, None),
    "matrix:H4": (CENSUS_CASES["H4"][0], 60, 60),
    "matrix:E6": (CENSUS_CASES["E6"][0], 36, 60),
}


@pytest.mark.parametrize("name", sorted(REFLECTION_GROUPS))
def test_table_core_matches_reflection_representation(name):
    """On every element, or on a seeded sample of the larger groups: the
    length is the number of positive roots sent negative, the right descents
    are the s with w(α_s) < 0, the left descents are the right descents of
    w^-1 (the reversed word), and the inverse and one-generator products act
    as the representation says."""
    matrix, n_positive, sample = REFLECTION_GROUPS[name]
    ring, cartan = cartan_matrix(matrix)
    positive = _positive_roots(ring, cartan)
    assert len(positive) == n_positive
    group = coxeter_group(matrix)
    gens = group.generators()
    elements = group.elements()
    checked = elements if sample is None else random.Random(11).sample(elements, sample)
    images = {}

    def image_of(w):
        if w not in images:
            images[w] = _images_of_word(ring, cartan, group.reduced_word(w))
        return images[w]

    def negative(v):
        return _is_negative(ring, v)

    assert len({image_of(w) for w in checked}) == len(checked)
    for w in checked:
        image, word = image_of(w), group.reduced_word(w)
        sent_negative = sum(negative(_act(ring, image, root)) for root in positive)
        assert group.length(w) == len(word) == sent_negative
        inverse = _images_of_word(ring, cartan, word[::-1])
        assert group.right_descents(w) == {s for s in gens if negative(image[s - 1])}
        assert group.left_descents(w) == {s for s in gens if negative(inverse[s - 1])}
        assert image_of(group.inverse(w)) == inverse
        for s in gens:
            assert image_of(group.right_mult_gen(w, s)) == _times_reflection(ring, cartan, image, s)
            assert image_of(group.left_mult_gen(s, w)) == tuple(
                _reflect(ring, cartan, s, v) for v in image)


def test_signed_permutation_arithmetic(b3):
    rng = random.Random(7)
    elements = b3.elements()
    for _ in range(200):
        x, y = rng.choice(elements), rng.choice(elements)
        assert b3.product(x, y) == b3.from_word(
            b3.reduced_word(x) + b3.reduced_word(y))
        assert b3.product(x, b3.inverse(x)) == b3.identity()
        assert b3.length(b3.inverse(x)) == b3.length(x)


# -- words --------------------------------------------------------------------

def _all_reduced_words(group, w):
    """Every reduced word of w, by peeling arbitrary left descents."""
    if w == group.identity():
        return [()]
    out = []
    for s in sorted(group.left_descents(w)):
        for rest in _all_reduced_words(group, group.left_mult_gen(s, w)):
            out.append((s,) + rest)
    return out


@pytest.mark.parametrize("rank", [2, 3])
def test_reduced_word_is_lex_least(rank):
    group = coxeter_group(f"B{rank}")
    for w in group.elements():
        words = _all_reduced_words(group, w)
        assert group.reduced_word(w) == min(words)
        assert all(len(word) == group.length(w) for word in words)


def test_word_str_round_trip(b3):
    for w in b3.elements():
        assert b3.parse_word(b3.word_str(w)) == w
    assert b3.word_str(b3.identity()) == "∅"
    assert b3.parse_word("") == b3.identity()
    with pytest.raises(ValueError):
        b3.parse_word("14")
    with pytest.raises(ValueError):
        b3.parse_word("x")
    # digits outside ASCII are no letters: superscript two, Arabic-Indic one
    for text in ("²", "١", "1١2", "١٢١"):
        with pytest.raises(ValueError, match="bad generator"):
            b3.parse_word(text)


def test_descents_match_length_drop(b3):
    for w in b3.elements():
        rd = {s for s in b3.generators()
              if b3.length(b3.right_mult_gen(w, s)) < b3.length(w)}
        ld = {s for s in b3.generators()
              if b3.length(b3.left_mult_gen(s, w)) < b3.length(w)}
        assert b3.right_descents(w) == rd
        assert b3.left_descents(w) == ld


# -- Bruhat order --------------------------------------------------------------

def _bruhat_by_subwords(group, x, w):
    """Independent oracle: x <= w iff some subsequence of the canonical
    word of w multiplies out to x with the right length."""
    word = group.reduced_word(w)
    lx = group.length(x)
    for positions in itertools.combinations(range(len(word)), lx):
        candidate = group.from_word(word[i] for i in positions)
        if candidate == x:
            return True
    return False


I2_5_MATRIX = ((1, 5), (5, 1))


@pytest.mark.parametrize("spec", [
    pytest.param("B2", id="2"),
    pytest.param("B3", id="3"),
    pytest.param(A3_MATRIX, id="matrix:A3"),
    pytest.param(I2_5_MATRIX, id="matrix:I2(5)"),
])
def test_bruhat_exhaustive_against_subword_oracle(spec):
    group = coxeter_group(spec)
    for w in group.elements():
        expected = {x for x in group.elements()
                    if _bruhat_by_subwords(group, x, w)}
        got = {x for x in group.elements() if group.bruhat_leq(x, w)}
        assert got == expected
        assert group.bruhat_lower(w) == frozenset(expected)


def test_bruhat_sampled_b4(b4):
    rng = random.Random(11)
    elements = [w for w in b4.elements() if b4.length(w) <= 10]
    for _ in range(150):
        x, w = rng.choice(elements), rng.choice(elements)
        assert b4.bruhat_leq(x, w) == _bruhat_by_subwords(b4, x, w)


def test_bruhat_basics(b4):
    e = b4.identity()
    longest = b4.elements()[-1]
    for w in b4.elements()[:40]:
        assert b4.bruhat_leq(e, w)
        assert b4.bruhat_leq(w, w)
        assert b4.bruhat_leq(w, longest)


def reference_bruhat_leq(group, y, w):
    """y <= w by the one-pass descent scan, as first implemented: walking
    the letters s of a reduced word of w from the left, replace the running
    element u (initially y) by su whenever that shortens it; y <= w iff u
    ends at the identity."""
    if group.length(y) > group.length(w):
        return False
    u = y
    for s in group.reduced_word(w):
        if u == group.identity():
            return True
        if s in group.left_descents(u):
            u = group.left_mult_gen(s, u)
    return u == group.identity()


def reference_bruhat_ideals(group):
    """Every ideal {y : y <= w} as a frozenset, as first implemented: by
    lower(w) = lower(sw) ∪ s·lower(sw) for a left descent s of w, shorter
    elements first."""
    lower = {group.identity(): frozenset([group.identity()])}
    for w in group.elements()[1:]:
        s = min(group.left_descents(w))
        below = lower[group.left_mult_gen(s, w)]
        lower[w] = below.union(group.left_mult_gen(s, x) for x in below)
    return lower


BRUHAT_GROUPS = {
    "B4": "B4",
    "matrix:A4": _coxeter_matrix(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)]),
    "matrix:D4": CENSUS_CASES["D4"][0],
    "matrix:H3": CENSUS_CASES["H3"][0],
    "matrix:I2(5)": I2_5_MATRIX,
}


@pytest.mark.parametrize("name", sorted(BRUHAT_GROUPS))
def test_bruhat_masks_match_kept_oracles(name):
    """bruhat_mask, bruhat_leq and bruhat_lower against the descent scan and
    the frozenset recursion they replaced, on every pair."""
    group = coxeter_group(BRUHAT_GROUPS[name])
    lower = reference_bruhat_ideals(group)
    for w in group.elements():
        assert group.bruhat_lower(w) == lower[w]
        assert group.bruhat_mask(w) == sum(1 << y for y in lower[w])
        for y in group.elements():
            assert group.bruhat_leq(y, w) == reference_bruhat_leq(group, y, w) \
                == (y in lower[w])


def reference_lifting_masks(group, ws):
    """{w: the ideal of w as an int bitmask} for each w of ws, by the
    lifting property, as the library built them before its coatom table:
    {y <= z·s} = {y <= z} ∪ {y·s : y <= z} for z = w·s with s the last
    letter of w's canonical word, walking down the word's prefixes to the
    nearest built mask and filling upwards."""
    masks = [1] + [0] * (len(group.elements()) - 1)  # 0: not built
    out = {}
    for w in ws:
        top, pending = w, []
        while not masks[w]:
            ys = group._rmul[group.reduced_word(w)[-1]]
            pending.append((w, ys))
            w = ys[w]
        for y, ys in reversed(pending):
            digits = bytearray(b"0") * (y + 1)
            for x in mask_bits(masks[w]):
                digits[ys[x]] = 49  # ord("1"); bit b is digit b from the end
            masks[y] = masks[w] | int(digits[::-1], 2)
            w = y
        out[top] = masks[top]
    return out


LIFTING_GROUPS = {**BRUHAT_GROUPS, "matrix:F4": CENSUS_CASES["F4"][0]}


@pytest.mark.parametrize("name", sorted(LIFTING_GROUPS))
def test_bruhat_masks_match_lifting_property(name):
    """Masks from coatoms against the lifting-property build they
    replaced, on every element."""
    group = coxeter_group(LIFTING_GROUPS[name])
    expected = reference_lifting_masks(group, group.elements())
    assert [group.bruhat_mask(w) for w in group.elements()] == list(expected.values())


def test_bruhat_masks_match_lifting_property_sampled_h4():
    group = coxeter_group(CENSUS_CASES["H4"][0])
    sample = random.Random(21).sample(group.elements(), 40)
    for w, mask in reference_lifting_masks(group, sample).items():
        assert group.bruhat_mask(w) == mask, group.word_str(w)


@pytest.mark.parametrize("name", sorted(BRUHAT_GROUPS))
def test_coatoms_are_the_ideal_one_length_down(name):
    group = coxeter_group(BRUHAT_GROUPS[name])
    lower = reference_bruhat_ideals(group)
    coatoms = group._coatoms()
    assert len(coatoms) == len(group.elements())
    for x in group.elements():
        assert len(set(coatoms[x])) == len(coatoms[x])
        assert set(coatoms[x]) == {y for y in lower[x] if group.length(y) == group.length(x) - 1}


@pytest.mark.parametrize("spec,total", [("B4", 1_740), ("B5", 24_612)])
def test_bruhat_cover_totals(spec, total):
    assert sum(map(len, coxeter_group(spec)._coatoms())) == total


def test_bruhat_lookups_refuse_elements_outside_the_group(b3):
    """-1 must not read as the longest element, nor 48 as anything."""
    for bad in (-1, 48):
        with pytest.raises(ValueError):
            b3.bruhat_lower(bad)
        with pytest.raises(ValueError):
            b3.bruhat_leq(0, bad)
        with pytest.raises(ValueError):
            b3.bruhat_leq(bad, 47)
        with pytest.raises(ValueError):
            b3.bruhat_mask(bad)


def test_table_lookups_refuse_elements_outside_the_group(b3):
    """Each public lookup refuses -1 (once read as the longest element:
    ``length(-1)`` was 9), 48, a non-integer and a bool (``length(True)``
    was 1)."""
    lookups = [b3.length, b3.reduced_word, b3.word_str, b3.inverse,
               b3.left_descents, b3.right_descents,
               lambda w: b3.product(w, 1), lambda w: b3.product(1, w),
               lambda w: b3.in_parabolic(w, {1, 2})]
    for bad in (-1, 48, (1, 2), True, False):
        for lookup in lookups:
            with pytest.raises(ValueError):
                lookup(bad)
    assert b3.length(47) == 9 and b3.inverse(0) == 0


# -- parabolic machinery ---------------------------------------------------------

def test_parabolic_elements(b4):
    WJ = b4.parabolic_elements({1, 2})
    assert len(WJ) == 8
    words = sorted(b4.word_str(w) for w in WJ)
    assert words == sorted(["∅", "1", "2", "12", "21", "121", "212", "1212"])
    longest = b4.longest_in_parabolic({1, 2})
    assert b4.word_str(longest) == "1212"


def test_quotients_exhaustive(b3):
    subsets = [frozenset(J) for r in range(1, 4)
               for J in itertools.combinations((1, 2, 3), r)]
    for J in subsets:
        WJ = set(b3.parabolic_elements(J))
        for w in b3.elements():
            a, b = b3.right_quotient(w, J)
            assert b3.product(a, b) == w
            assert b in WJ
            assert b3.is_right_min(a, J)
            assert b3.length(a) + b3.length(b) == b3.length(w)


def test_min_double_coset_exhaustive(b3):
    subsets = [frozenset(J) for r in range(1, 3)
               for J in itertools.combinations((1, 2, 3), r)]
    for K in subsets:
        for J in subsets:
            WK = b3.parabolic_elements(K)
            WJ = b3.parabolic_elements(J)
            for w in b3.elements():
                m = b3.min_double_coset(K, J, w)
                assert b3.is_left_min(m, K) and b3.is_right_min(m, J)
                coset = {b3.product(x, w, y) for x in WK for y in WJ}
                assert m in coset
                assert b3.length(m) == min(b3.length(u) for u in coset)


def test_double_coset_reps_b4(b4):
    reps = b4.double_coset_reps({1, 2}, {1, 2})
    assert len(reps) == 17
    assert all(b4.is_left_min(w, {1, 2}) and b4.is_right_min(w, {1, 2})
               for w in reps)


# -- diagram automorphisms ----------------------------------------------------

def test_automorphism_identity(b4):
    delta = b4.automorphism()
    for w in b4.elements()[:50]:
        assert delta.apply(w) == w


def test_automorphism_a3_swap():
    group = coxeter_group(A3_MATRIX)
    delta = group.automorphism({1: 3, 2: 2, 3: 1})
    rng = random.Random(3)
    elements = group.elements()
    for _ in range(150):
        x, y = rng.choice(elements), rng.choice(elements)
        assert delta.apply(group.product(x, y)) == group.product(
            delta.apply(x), delta.apply(y))
        assert group.length(delta.apply(x)) == group.length(x)
        assert delta.apply_inv(delta.apply(x)) == x
    assert delta.on_set({1, 2}) == frozenset({2, 3})


def test_automorphism_inverse_undoes_a_three_cycle():
    """On D4 the leaf 3-cycle δ = (1 3 4) is not an involution, so apply_inv
    and apply differ and must undo each other."""
    group = coxeter_group(CENSUS_CASES["D4"][0])
    delta = group.automorphism({1: 3, 2: 2, 3: 4, 4: 1})
    for w in group.elements():
        assert delta.apply_inv(delta.apply(w)) == w == delta.apply(delta.apply_inv(w))
    assert delta.apply(group.generator(1)) == group.generator(3) \
        == delta.apply_inv(group.generator(4))


def test_automorphism_validation():
    group = coxeter_group(A3_MATRIX)
    with pytest.raises(ValueError):
        group.automorphism({1: 2, 2: 1, 3: 3})  # does not preserve m
    with pytest.raises(ValueError):
        group.automorphism({1: 1, 2: 1, 3: 3})  # not a permutation
    for mapping in ({1: True, 2: 2, 3: 3}, {True: 1, 2: 2, 3: 3}):
        with pytest.raises(ValueError, match="must be integers"):
            group.automorphism(mapping)  # True is not generator 1
    b4 = coxeter_group("B4")
    with pytest.raises(ValueError):
        b4.automorphism({1: 4, 2: 3, 3: 2, 4: 1})  # breaks the labels


def test_automorphism_equality_and_hash(b2):
    """Automorphisms compare by group identity and permutation."""
    swap = b2.automorphism({1: 2, 2: 1})
    again = b2.automorphism({1: 2, 2: 1})
    assert swap == again and hash(swap) == hash(again) and len({swap, again}) == 1
    assert swap != b2.automorphism()
    assert swap != coxeter_group("B2").automorphism({1: 2, 2: 1})  # another group
    assert swap != {1: 2, 2: 1}


def test_b2_swap_automorphism(b2):
    delta = b2.automorphism({1: 2, 2: 1})
    assert delta.apply(b2.generator(1)) == b2.generator(2)
    longest = b2.elements()[-1]
    assert delta.apply(longest) == longest


def test_parabolic_lookups_refuse_elements_outside_the_group(b3):
    """The coset and automorphism lookups check their arguments once, at
    entry, and then read the raw tables, where -1 would be the longest
    element."""
    delta = b3.automorphism()
    lookups = [delta.apply, delta.apply_inv, lambda w: b3.right_quotient(w, {1}),
               lambda w: b3.is_left_min(w, {1}), lambda w: b3.is_right_min(w, {1}),
               lambda w: b3.min_double_coset({1}, {2}, w)]
    for bad in (-1, 48):
        for lookup in lookups:
            with pytest.raises(ValueError):
                lookup(bad)
    with pytest.raises(ValueError):
        b3.right_quotient(0, {4})


# -- word strings ------------------------------------------------------------------

def reference_parse_word(group, text):
    """``parse_word`` before the word-string table: strip, then read the
    digits one letter at a time."""
    text = text.strip()
    if text in ("", "∅"):
        return group.identity()
    word = []
    for ch in text:
        if not ch.isdigit() or not 1 <= int(ch) <= group.rank:
            raise ValueError(f"bad generator {ch!r} in word {text!r}")
        word.append(int(ch))
    return group.from_word(word)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


WORD_TABLE_GROUPS = {
    "B2": "B2",
    "B3": "B3",
    "B4": "B4",
    "matrix:A4": _coxeter_matrix(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)]),
    "matrix:D4": CENSUS_CASES["D4"][0],
    "matrix:H3": CENSUS_CASES["H3"][0],
    "matrix:I2(8)": CENSUS_CASES["I2(8)"][0],
}


@pytest.mark.parametrize("name", sorted(WORD_TABLE_GROUPS))
def test_parse_word_matches_reference(name):
    """Every canonical string is a table hit; other spellings and bad words
    take the letter loop, with the same answers and the same errors."""
    group = coxeter_group(WORD_TABLE_GROUPS[name])
    for w in group.elements():
        text = group.word_str(w)
        assert group.parse_word(text) == reference_parse_word(group, text) == w
    for text in (" 12 ", "11", "2121", "", "∅", "14", "x"):
        assert _parse_outcome(group.parse_word, text) == \
            _parse_outcome(functools.partial(reference_parse_word, group), text)


def test_word_strings_above_rank_9_are_not_looked_up():
    """At rank 10 the string of s_1·s_10 is "110", which the letter loop
    refuses; the table must not turn it into an element."""
    group = coxeter_group(_coxeter_matrix(10, []))  # A1^10, 1,024 elements
    assert group.word_str(group.from_word((1, 10))) == "110"
    with pytest.raises(ValueError):
        group.parse_word("110")
    assert group.parse_word("12") == group.from_word((1, 2))
