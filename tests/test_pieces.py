"""Piece indexing: stabilization sequences, closure order, dimensions,
and the contraction/projection operators on the Hecke algebra."""

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from heckepieces import pieces
from heckepieces.coxeter import coxeter_group, mask_bits
from heckepieces.hecke import HeckeAlgebra, WeightFunction, canonical_basis
from heckepieces.laurent import Laurent, ONE
from heckepieces.pieces import (
    E_operator,
    bedard_inverse,
    bedard_sequence,
    closure_hasse,
    closure_leq,
    mu_J,
    piece_dimension,
    piece_indices,
    piece_projection,
    twisted_normalizer,
)

from test_coxeter import reference_bruhat_leq

J = frozenset({1, 2})

A3_MATRIX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
A4_MATRIX = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))
D4_MATRIX = ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1))


def ad_indices(group, w, K):
    """{k : s_k = w s_j w^{-1} for some j in K}, the conjugates of the
    K-generators by w that are generators, formed by multiplying along
    w^{-1}'s reduced word as ``pieces`` once did."""
    length, words, w_inv = group._length, group._words, group.inverse(w)
    out = set()
    for j in group._check_subset(K):
        g = group._product(group._rmul[j][w], w_inv)
        if length[g] == 1:
            out.add(words[g][0])
    return frozenset(out)


def _validate_index(group, dJ, w):
    if not group.is_left_min(w, dJ):
        raise ValueError(f"{group.word_str(w)} has a left descent in δ(J); not a piece index")


@pytest.fixture(scope="module")
def b4_data(b4):
    delta = b4.automorphism()
    idx = piece_indices(b4, J, delta)
    return delta, idx, {w: bedard_sequence(b4, J, delta, w) for w in idx}


# -- indices and stabilization sequences -------------------------------------

def test_index_census(b4, b4_data):
    delta, idx, datas = b4_data
    assert len(idx) == 48
    assert all(b4.is_left_min(w, delta.on_set(J)) for w in idx)
    assert Counter(d.n0 for d in datas.values()) == {0: 8, 1: 24, 2: 16}
    assert Counter(tuple(sorted(d.J_infinity)) for d in datas.values()) == \
        {(): 24, (1,): 16, (1, 2): 8}


def test_indices_partition_group(b4, b4_data):
    _, idx, _ = b4_data
    WJ = b4.parabolic_elements(J)
    seen = set()
    for w in idx:
        for u in WJ:
            seen.add(b4.product(u, w))
    assert len(seen) == 48 * 8 == len(b4.elements())


def test_sequence_positions_refuse_negative_and_non_int_n(b4, b4_data):
    """``J_at`` and ``w_at`` clamp n past n0 to the stable pair and refuse
    an n that would read the steps from the end."""
    data = b4_data[2][b4.parse_word("32")]
    assert [data.J_at(n) for n in range(4)] == [J, {1}, set(), set()]
    assert [data.w_at(n) for n in range(4)] == [step[1] for step in data.steps] + [data.w]
    for n in (-1, -2, True, 1.0, "1", None):
        for position in (data.J_at, data.w_at):
            with pytest.raises(ValueError, match="nonnegative int"):
                position(n)


def test_stable_pair_properties(b4, b4_data):
    _, _, datas = b4_data
    for w, data in datas.items():
        assert data.w_infinity == w
        assert data.J_at(data.n0 + 5) == data.J_infinity
        assert data.w_at(data.n0 + 5) == w
        # each step stays in the same right coset and shrinks the subset
        for n in range(1, data.n0 + 1):
            Jp, wp = data.steps[n - 1]
            Jn, wn = data.steps[n]
            assert Jn < Jp
            assert b4.in_parabolic(b4.product(b4.inverse(wp), wn), Jp)


def test_stable_pair_conjugates_onto_the_twisted_subset(b4, b4_data):
    """w_inf s_j w_inf^{-1} for j in J_inf, formed with ``group.product``
    and not read off the product tables, are exactly the generators of
    δ(J_inf): every piece index of B4 with J = {1, 2}, and of D4 under each
    of its six diagram automorphisms and every nonempty J (4,038 cases)."""
    cases = [(b4, J, b4_data[0], data) for data in b4_data[2].values()]
    d4 = coxeter_group(D4_MATRIX)
    for delta in _automorphisms(d4):
        for Jsub in _subsets(d4)[1:]:
            cases += [(d4, Jsub, delta, bedard_sequence(d4, Jsub, delta, w))
                      for w in piece_indices(d4, Jsub, delta)]
    for group, Jsub, delta, data in cases:
        w, Jinf = data.w_infinity, data.J_infinity
        images = {group.product(w, group.generator(j), group.inverse(w)) for j in Jinf}
        assert images == {group.generator(i) for i in delta.on_set(Jinf)}, \
            (group.type_tag, sorted(Jsub), delta.perm, group.word_str(w))
    assert len(cases) == 48 + 4_038


def test_sequence_trace_single_generator(b4, b4_data):
    _, _, datas = b4_data
    w = b4.parse_word("3")
    data = datas[w]
    assert [(sorted(Jn), wn) for Jn, wn in data.steps] == \
        [([1, 2], w), ([1], w)]
    assert data.tau(b4.generator(1)) == b4.generator(1)

    w32 = b4.parse_word("32")
    assert [(sorted(Jn), b4.word_str(wn)) for Jn, wn in datas[w32].steps] == \
        [([1, 2], "3"), ([1], "32"), ([], "32")]


def test_invalid_index_rejected(b4):
    delta = b4.automorphism()
    with pytest.raises(ValueError):
        bedard_sequence(b4, J, delta, b4.parse_word("12"))  # left descent in J


def test_twisted_normalizer_refuses_non_generators(b3):
    with pytest.raises(ValueError, match="not a subset of generators"):
        twisted_normalizer(b3, {99}, b3.automorphism())


@pytest.mark.parametrize("Jsub", [{1.0}, {True, 2}, {2.0, 1}])
def test_sequences_refuse_generator_indices_that_are_not_ints(b4, Jsub):
    """True and 1.0 equal 1, so they pass the subset check, but a sequence
    would keep them in its steps as they are."""
    delta, w = b4.automorphism(), b4.parse_word("3")
    with pytest.raises(ValueError, match="generator indices must be integers"):
        bedard_sequence(b4, Jsub, delta, w)


def test_sequence_round_trip(b4, b4_data):
    delta, _, datas = b4_data
    for w, data in datas.items():
        assert bedard_inverse(b4, J, delta, data.steps) == w


def test_tampered_sequences_rejected(b4, b4_data):
    delta, _, datas = b4_data
    data = datas[b4.parse_word("32")]  # steps: (J, 3), ({1}, 32), ({}, 32)
    steps = list(data.steps)
    with pytest.raises(ValueError):
        bedard_inverse(b4, J, delta, [])
    with pytest.raises(ValueError):  # wrong starting subset
        bedard_inverse(b4, J, delta, [(frozenset({1}), b4.parse_word("3"))])
    with pytest.raises(ValueError):  # truncated: tail not yet stable
        bedard_inverse(b4, J, delta, steps[:1])
    with pytest.raises(ValueError):  # subset recursion broken
        bad = [steps[0], (frozenset({2}), steps[1][1]), steps[2]]
        bedard_inverse(b4, J, delta, bad)
    with pytest.raises(ValueError):  # representative leaves the right coset
        bad = [steps[0], (steps[1][0], b4.parse_word("4")), steps[2]]
        bedard_inverse(b4, J, delta, bad)
    with pytest.raises(ValueError):  # not a minimal double coset representative
        bad = [(J, b4.parse_word("12"))]
        bedard_inverse(b4, J, delta, bad)
    w3 = b4.parse_word("3")  # steps: (J, 3), ({1}, 3)
    for one in (True, 1.0):  # equal to 1, but a sequence would keep them
        with pytest.raises(ValueError, match="generator indices must be integers"):
            bedard_inverse(b4, J, delta, [datas[w3].steps[0], ({one}, w3)])


def test_padded_sequences_rejected(b4, b4_data):
    """A copy of the stable last step appended is not a sequence that
    ``bedard_sequence`` computes (``reference_bedard_inverse`` accepts it)."""
    delta, idx, datas = b4_data
    for w in idx:
        padded = [*datas[w].steps, datas[w].steps[-1]]
        assert reference_bedard_inverse(b4, J, delta, padded) == w
        with pytest.raises(ValueError):
            bedard_inverse(b4, J, delta, padded)


def reference_bedard_inverse(group, J, delta, steps):
    """Validate a claimed stabilization sequence and return its piece index,
    by the rules ``bedard_inverse`` first checked; they also accept a
    sequence that goes on past its first stable step.

    The conditions certifying that (J_n, w_n) arises from an index are:

    * J_0 = J and J_n = J_{n-1} ∩ δ^{-1}(ad(w_{n-1}) J_{n-1}) for n >= 1;
    * every w_n has no left descent in δ(J_n) and no right descent in J_n;
    * w_n lies in w_{n-1} W_{J_{n-1}} for n >= 1;
    * the tail is stable: recomputing the subset step from the last pair
      reproduces its subset.

    For a valid sequence the index is the last w_n.
    """
    Jf = group._check_subset(J)
    norm = [(frozenset(group._check_subset(Jn)), wn) for Jn, wn in steps]
    if not norm:
        raise ValueError("empty sequence")
    if norm[0][0] != Jf:
        raise ValueError("sequence must start at the given subset J")
    for n, (Jn, wn) in enumerate(norm):
        # these lookups refuse a wn that is not an element
        if not group.is_left_min(wn, delta.on_set(Jn)) or not group.is_right_min(wn, Jn):
            raise ValueError(f"step {n}: not a minimal double coset representative")
        if n >= 1:
            Jprev, wprev = norm[n - 1]
            ad = ad_indices(group, wprev, Jprev)
            if Jn != frozenset(i for i in Jprev if delta(i) in ad):
                raise ValueError(f"step {n}: subset does not follow the recursion")
            if not group._in_parabolic(group._product(group._inv[wprev], wn), Jprev):
                raise ValueError(f"step {n}: leaves the previous right coset")
    J_last, w_last = norm[-1]
    ad = ad_indices(group, w_last, J_last)
    stable = frozenset(i for i in J_last if delta(i) in ad)
    if stable != J_last:
        raise ValueError("sequence has not stabilized; more steps are required")
    _validate_index(group, delta.on_set(Jf), w_last)
    return w_last


def _candidate_sequences(group, Jf, delta):
    """Depth-first, every sequence whose subsets follow the recursion and
    whose w_n are minimal double coset representatives, each in the right
    coset of the one before, ending at its first stable step.  These are
    the rules of ``reference_bedard_inverse`` but for the last w being a
    piece index; a sequence ending at a later stable step only repeats it."""
    def extend(steps):
        Jn, wn = steps[-1]
        ad = ad_indices(group, wn, Jn)
        Jnext = frozenset(i for i in Jn if delta(i) in ad)
        if Jnext == Jn:
            yield steps
            return
        for u in group.parabolic_elements(Jn):
            w = group.product(wn, u)
            if group.is_left_min(w, delta.on_set(Jnext)) and group.is_right_min(w, Jnext):
                yield from extend(steps + ((Jnext, w),))

    for w in group.double_coset_reps(delta.on_set(Jf), Jf):
        yield from extend(((Jf, w),))


def _accepts(inverse, group, Jf, delta, steps):
    try:
        return inverse(group, Jf, delta, steps)
    except ValueError:
        return None


def _sequence_cases():
    for rank in (2, 3, 4):
        group = coxeter_group(f"B{rank}")
        for Jf in _subsets(group)[1:]:
            yield group, Jf, group.automorphism()
    for matrix, flip, sizes in ((A3_MATRIX, {1: 3, 2: 2, 3: 1}, (1, 2)),
                                (A4_MATRIX, {1: 4, 2: 3, 3: 2, 4: 1}, (1, 2, 3))):
        group = coxeter_group(matrix)
        for delta in (group.automorphism(), group.automorphism(flip)):
            for Jf in _subsets(group):
                if len(Jf) in sizes:
                    yield group, Jf, delta
    d4 = coxeter_group(D4_MATRIX)
    for delta in (d4.automorphism(), *_d4_deltas(d4)):
        for Jf in _subsets(d4):
            if 1 <= len(Jf) <= 3:
                yield d4, Jf, delta


def test_bedard_inverse_accepts_exactly_the_computed_sequences():
    """Against the rules of ``reference_bedard_inverse``, exhaustively: the
    sequences they accept that end at their first stable step are exactly
    one per piece index, each the one ``bedard_sequence`` computes, and
    ``bedard_inverse`` accepts these and nothing else the search meets,
    nor any of them padded with its last step."""
    total = 0
    for group, Jf, delta in _sequence_cases():
        case = (group.type_tag, delta.perm, sorted(Jf))
        accepted = []
        for steps in _candidate_sequences(group, Jf, delta):
            w = _accepts(reference_bedard_inverse, group, Jf, delta, steps)
            assert _accepts(bedard_inverse, group, Jf, delta, steps) == w, case
            if w is not None:
                assert bedard_sequence(group, Jf, delta, w).steps == steps, case
                assert _accepts(bedard_inverse, group, Jf, delta, steps + steps[-1:]) is None
                accepted.append(w)
        assert sorted(accepted) == list(piece_indices(group, Jf, delta)), case
        total += len(accepted)
    assert total == 6_393


# -- twisted normalizer -------------------------------------------------------

def test_twisted_normalizer_b4(b4):
    N = twisted_normalizer(b4, J, b4.automorphism())
    assert [b4.word_str(z) for z in N] == [
        "∅", "4", "32123", "321234", "432123", "4321234",
        "32123432123", "321234321234",
    ]


def test_twisted_normalizer_matches_the_product_form(b4):
    """The table test {w s_j} = {s_k w} against w J w^{-1} = δ(J) formed by
    multiplying along w^{-1}'s word (``ad_indices``), over the double coset
    representatives: B4 with J = {1, 2}, D4 under each of its six diagram
    automorphisms and every nonempty J, and B5 with J = {1, 2}."""
    d4 = coxeter_group(D4_MATRIX)
    cases = [(b4, J, None), (coxeter_group("B5"), J, None)]
    cases += [(d4, Jsub, delta.perm) for delta in _automorphisms(d4)
              for Jsub in _subsets(d4)[1:]]
    sizes = []
    for group, Jsub, mapping in cases:
        delta = group.automorphism(mapping)
        dJ = delta.on_set(Jsub)
        expected = tuple(w for w in group.double_coset_reps(dJ, Jsub)
                         if ad_indices(group, w, Jsub) == dJ)
        assert twisted_normalizer(group, Jsub, delta) == expected, \
            (group.type_tag, sorted(Jsub), delta.perm)
        sizes.append(len(expected))
    assert sizes[:2] == [8, 48] and len(sizes) == 2 + 6 * 15


def test_twisted_normalizer_matches_brute_force():
    """Independent oracle on a twisted case: enumerate every w conjugating
    the J-generators onto the δ(J)-generators, minimize each double coset by
    exhaustive search, and compare."""
    g = coxeter_group(A3_MATRIX)
    delta = g.automorphism({1: 3, 2: 2, 3: 1})
    expected_words = {
        frozenset({1}): {"2132", "12132"},
        frozenset({2}): {"∅", "12321"},
        frozenset({1, 2}): {"123"},
    }
    for Jsub, words in expected_words.items():
        N = twisted_normalizer(g, Jsub, delta)
        assert {g.word_str(z) for z in N} == words
        dJ = delta.on_set(Jsub)
        gens = {g.generator(k): k for k in g.generators()}
        conjugators = []
        for w in g.elements():
            wi = g.inverse(w)
            image = {
                gens.get(g.product(w, g.generator(j), wi)) for j in Jsub
            }
            if None not in image and image == set(dJ):
                conjugators.append(w)
        mins = set()
        for w in conjugators:
            coset = {
                g.product(a, w, b)
                for a in g.parabolic_elements(dJ)
                for b in g.parabolic_elements(Jsub)
            }
            mins.add(min(coset, key=g.sort_key))
        assert set(N) == mins


# -- closure order -----------------------------------------------------------

def test_closure_order_basics(b4, b4_data):
    delta, idx, _ = b4_data
    e = b4.identity()
    w4 = b4.parse_word("4")
    top = b4.parse_word("321234321234")
    assert closure_leq(b4, J, delta, e, w4)
    assert not closure_leq(b4, J, delta, w4, e)
    for w in idx:
        assert closure_leq(b4, J, delta, w, w)
        assert closure_leq(b4, J, delta, e, w)
        assert closure_leq(b4, J, delta, w, top)
    # a relation that needs a nontrivial conjugator u in W_J: 432 is not
    # Bruhat-below 3243, but u·432·u^{-1} is for some u
    a, b = b4.parse_word("432"), b4.parse_word("3243")
    assert not b4.bruhat_leq(a, b)
    assert closure_leq(b4, J, delta, a, b)


def test_closure_hasse_b4(b4, b4_data):
    delta, idx, _ = b4_data
    covers = closure_hasse(b4, J, delta)
    assert len(covers) == 116
    pos = {w: i for i, w in enumerate(idx)}
    for a, b in covers:
        assert closure_leq(b4, J, delta, a, b)
        assert not closure_leq(b4, J, delta, b, a)
        assert pos[a] != pos[b]


def reference_closure_hasse(group, J, delta):
    """The covers as first computed: the closure relation on every ordered
    pair of indices, each pair trying every u in W_J with the kept descent
    scan for Bruhat order, then a scan over all middle elements k for each
    related pair."""
    idx = piece_indices(group, J, delta)
    n = len(idx)

    def leq(w1, w2):
        return any(
            reference_bruhat_leq(
                group, group.product(delta.apply(u), w1, group.inverse(u)), w2)
            for u in group.parabolic_elements(J))

    rel = [[leq(a, b) for b in idx] for a in idx]
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                raise AssertionError("closure relation is not antisymmetric")
    return tuple(
        (idx[i], idx[j]) for i in range(n) for j in range(n)
        if i != j and rel[i][j]
        and not any(rel[i][k] and rel[k][j] for k in range(n) if k != i and k != j))


def _closure_cases():
    b3 = coxeter_group("B3")
    for k in (1, 2, 3):
        for Jsub in itertools.combinations((1, 2, 3), k):
            yield b3, Jsub, None
    b4 = coxeter_group("B4")
    for Jsub in ((2,), (1, 3), (1, 2), (2, 3)):
        yield b4, Jsub, None
    d4 = coxeter_group(D4_MATRIX)
    for Jsub in ((2,), (1, 3)):
        yield d4, Jsub, {1: 3, 2: 2, 3: 4, 4: 1}
    yield coxeter_group(A4_MATRIX), (1, 2), {1: 4, 2: 3, 3: 2, 4: 1}


def test_closure_hasse_matches_reference():
    for group, Jsub, mapping in _closure_cases():
        delta = group.automorphism(mapping)
        assert closure_hasse(group, Jsub, delta) == \
            reference_closure_hasse(group, frozenset(Jsub), delta), (group.type_tag, Jsub)


def reference_transitive_reduction(group, J, delta):
    """The covers as ``closure_hasse`` found them before it peeled: the same
    reach masks, then a full transitive reduction, which for each j ORs the
    masks of every position below j, one OR per related pair.  The orbits
    are read through ``pieces._orbits`` at call time, so a test can patch
    them."""
    Jf = frozenset(J)
    idx = piece_indices(group, Jf, delta)
    reach = [0] * len(group.elements())
    for i, orbit in enumerate(pieces._orbits(group, Jf, delta, idx)):
        for x in orbit:
            reach[x] |= 1 << i
    for x, coatoms in enumerate(group._coatoms()[:idx[-1] + 1]):
        r = reach[x]
        for c in coatoms:
            r |= reach[c]
        reach[x] = r
    below = [reach[w] & ~(1 << j) for j, w in enumerate(idx)]
    covers = []
    for j, under in enumerate(below):
        between = 0  # the positions below some position below j
        for k in mask_bits(under):
            between |= below[k]
        if between >> j & 1:
            raise AssertionError("closure relation is not antisymmetric")
        covers += ((i, j) for i in mask_bits(under & ~between))
    return tuple((idx[i], idx[j]) for i, j in sorted(covers))


def _automorphisms(group):
    """Every diagram automorphism of the group: the permutations of the
    generators that the constructor accepts."""
    gens = list(group.generators())
    out = []
    for image in itertools.permutations(gens):
        try:
            out.append(group.automorphism(dict(zip(gens, image))))
        except ValueError:
            pass
    return out


def test_closure_hasse_matches_the_transitive_reduction():
    """The peel against the full reduction on B2, B3, B4, A4 and D4 under
    each of their diagram automorphisms (2, 1, 1, 2 and 6 of them) and
    every nonempty J: 148 cases."""
    cases = 0
    for spec in ("B2", "B3", "B4", A4_MATRIX, D4_MATRIX):
        group = coxeter_group(spec)
        for delta in _automorphisms(group):
            for Jsub in _subsets(group)[1:]:
                assert closure_hasse(group, Jsub, delta) == \
                    reference_transitive_reduction(group, Jsub, delta), \
                    (group.type_tag, sorted(Jsub), delta.perm)
                cases += 1
    assert cases == 148


def test_closure_hasse_refuses_an_order_that_is_not_antisymmetric(b4, monkeypatch):
    """With the orbits of the B4 J = {2} indices 1 and 3 each given the
    other, each lies below the other.  The pair is added to both orbits,
    as real orbits are symmetric, and both covers computations refuse."""
    delta = b4.automorphism()
    a, b = b4.parse_word("1"), b4.parse_word("3")
    other, real = {a: b, b: a}, pieces._orbits

    def orbits(group, Jf, delta, ws):
        for orbit in real(group, Jf, delta, ws):
            yield orbit + [other[orbit[0]]] if orbit[0] in other else orbit

    monkeypatch.setattr(pieces, "_orbits", orbits)
    assert closure_leq(b4, {2}, delta, a, b) and closure_leq(b4, {2}, delta, b, a)
    for covers in (closure_hasse, reference_transitive_reduction):
        with pytest.raises(AssertionError, match="closure relation is not antisymmetric"):
            covers(b4, {2}, delta)


def test_closure_hasse_builds_no_bruhat_ideal():
    group = coxeter_group("B4")
    assert closure_hasse(group, {2}, group.automorphism())
    assert group._masks == []


def test_closure_hasse_b5_cover_count():
    """The cover counts on B5, and the covers equal the full reduction's."""
    group = coxeter_group("B5")
    delta = group.automorphism()
    for Jsub, count in (({2}, 11_088), ({1, 2}, 2_068)):
        covers = closure_hasse(group, Jsub, delta)
        assert len(covers) == count
        assert covers == reference_transitive_reduction(group, Jsub, delta)


def test_closure_rejects_non_indices(b4):
    """Every index that ``closure_leq``, ``bedard_sequence`` and
    ``piece_dimension`` take is checked: 12 has the left descent 1 in
    δ(J), and -1, True and 1.0 are not elements."""
    delta, e = b4.automorphism(), b4.identity()
    calls = (lambda x: closure_leq(b4, J, delta, x, e),
             lambda x: closure_leq(b4, J, delta, e, x),
             lambda x: bedard_sequence(b4, J, delta, x),
             lambda x: piece_dimension(b4, J, x, delta))
    for call in calls:
        with pytest.raises(ValueError, match="not a piece index"):
            call(b4.parse_word("12"))
        for x in (-1, True, 1.0):
            with pytest.raises(ValueError, match="no element"):
                call(x)


# -- dimensions ----------------------------------------------------------------

def test_piece_dimensions_b4(b4):
    assert piece_dimension(b4, J, b4.identity()) == 24
    assert piece_dimension(b4, J, b4.parse_word("4")) == 25
    assert piece_dimension(b4, J, b4.parse_word("321234321234")) == 36


def test_piece_dimensions_b2(b2):
    delta = b2.automorphism()
    dims = {
        b2.word_str(w): piece_dimension(b2, {1}, w)
        for w in piece_indices(b2, {1}, delta)
    }
    assert dims == {"∅": 7, "2": 8, "21": 9, "212": 10}


def reference_positive_roots(rank: int, J: frozenset) -> int:
    """Positive roots of the parabolic root subsystem of type B_rank on J,
    counted run by run: the run of consecutive indices containing 1 is a
    type-B subsystem (k^2 roots for k nodes), every other run is type A
    (m(m+1)/2 roots)."""
    count = 0
    run = 0
    for i in range(1, rank + 2):
        if i <= rank and i in J:
            run += 1
            continue
        if run:
            if i - run == 1:  # the run started at node 1
                count += run * run
            else:
                count += run * (run + 1) // 2
            run = 0
    return count


@pytest.mark.parametrize("rank,subsets", [
    *((n, None) for n in (2, 3, 4)),  # None: every nonempty subset
    (5, [J]),
])
def test_piece_dimension_matches_root_count(rank, subsets):
    """l(w) + l(w_0) + n + l(w_0,J) against l(w) + n^2 + n + the root
    count of the J-subsystem, on every piece index."""
    group = coxeter_group(f"B{rank}")
    delta = group.automorphism()
    gens = list(group.generators())
    if subsets is None:
        subsets = [frozenset(c) for k in range(1, rank + 1)
                   for c in itertools.combinations(gens, k)]
    for Jsub in subsets:
        extra = rank * rank + rank + reference_positive_roots(rank, Jsub)
        for w in piece_indices(group, Jsub, delta):
            assert piece_dimension(group, Jsub, w, delta) == group.length(w) + extra, \
                (rank, sorted(Jsub), group.word_str(w))


def test_piece_dimension_rejects_non_type_b():
    g = coxeter_group(A3_MATRIX)
    with pytest.raises(ValueError):
        piece_dimension(g, {1}, g.identity())


# -- Hecke operators -----------------------------------------------------------

def test_mu_fixes_minimal_representatives(b4):
    algebra = HeckeAlgebra(b4)
    delta = b4.automorphism()
    for word in ("", "3", "34", "234", "343"):
        y = b4.parse_word(word)
        assert b4.is_right_min(y, J)
        assert mu_J(algebra.basis(y), J, delta) == algebra.basis(y)


def test_mu_swaps_coset_factors(b4):
    """mu sends T_{y_min·u} to T_{δ^{-1}(u)}·T_{y_min}; the product is taken
    in the swapped order, so it can spread over several basis elements."""
    algebra = HeckeAlgebra(b4)
    delta = b4.automorphism()
    assert mu_J(algebra.basis(b4.parse_word("31")), J, delta) == \
        algebra.basis(b4.parse_word("13"))
    y = b4.product(b4.parse_word("23"), b4.parse_word("212"))
    assert b4.word_str(y) == "23212"
    expected = algebra.element({
        b4.parse_word("213"): Laurent({2: 1}),
        b4.parse_word("2123"): Laurent({0: -1, 2: 1}),
    })
    assert mu_J(algebra.basis(y), J, delta) == expected


def test_mu_is_linear(b4):
    algebra = HeckeAlgebra(b4)
    delta = b4.automorphism()
    h1 = algebra.basis(b4.parse_word("23212")).scale(Laurent({-1: 3}))
    h2 = algebra.basis(b4.parse_word("431"))
    assert mu_J(h1 + h2, J, delta) == \
        mu_J(h1, J, delta) + mu_J(h2, J, delta)


def reference_mu_J(h, J, delta):
    """mu_J as first computed, with no memo: each T_y goes to
    T_{δ^{-1}(y_*)} · T_{y^*}, multiplied in that order by ``multiply``."""
    algebra, group = h.algebra, h.algebra.group
    out = algebra.zero()
    for y, c in h.terms.items():
        y_min, y_par = group.right_quotient(y, delta.on_set(J))
        image = algebra.multiply(algebra.basis(delta.apply_inv(y_par)), algebra.basis(y_min))
        out = out + image.scale(c)
    return out


def reference_E_operator(h, data, n):
    """n reference contractions along the sequence, then T_y ↦ T_{wy} on
    the terms with wy in the target parabolic."""
    group = data.group
    for k in range(n):
        h = reference_mu_J(h, data.J_at(k), data.delta)
    moved = {group.product(data.w, y): c for y, c in h.terms.items()}
    return h.algebra.element({x: c for x, c in moved.items()
                              if group.in_parabolic(x, data.target_parabolic)})


def _subsets(group):
    gens = list(group.generators())
    return [frozenset(c) for k in range(len(gens) + 1) for c in itertools.combinations(gens, k)]


def _d4_deltas(d4):
    """The five non-identity diagram automorphisms of D4 (they permute the
    leaves 1, 3, 4 around the node 2)."""
    return [d4.automorphism({1: a, 2: 2, 3: b, 4: c})
            for a, b, c in itertools.permutations((1, 3, 4)) if (a, b, c) != (1, 3, 4)]


def test_mu_J_matches_reference(b3, b4):
    """On every basis element and every J: B3 in both normalizations, B4,
    and D4 under each non-identity δ.  Each group shares one algebra across
    its subsets and automorphisms, so a memo that confused two (J, δ)
    would hand one the images of the other."""
    cases = [
        (HeckeAlgebra(b3), [b3.automorphism()]),
        (HeckeAlgebra(b3, "weighted", WeightFunction(b3, {1: 2, 2: 1, 3: 1})),
         [b3.automorphism()]),
        (HeckeAlgebra(b4), [b4.automorphism()]),
    ]
    d4 = coxeter_group(D4_MATRIX)
    cases.append((HeckeAlgebra(d4), _d4_deltas(d4)))
    for algebra, deltas in cases:
        group = algebra.group
        for delta in deltas:
            for Jsub in _subsets(group):
                for y in group.elements():
                    h = algebra.basis(y)
                    assert mu_J(h, Jsub, delta) == reference_mu_J(h, Jsub, delta), \
                        (group.type_tag, delta.perm, sorted(Jsub), group.word_str(y))


def _seeded_element(algebra, data, rng):
    """One term the projection keeps and two drawn from the whole group."""
    group = algebra.group
    coeff = lambda: Laurent({rng.randint(-3, 3): rng.choice((-2, -1, 1, 2, 3))})
    terms = {group.inverse(data.w): coeff()}
    for _ in range(2):
        terms[rng.choice(group.elements())] = coeff()
    return algebra.element(terms)


def test_E_operator_matches_reference(b4):
    rng = random.Random(20)
    d4 = coxeter_group(D4_MATRIX)
    cases = [(b4, frozenset({2}), [b4.automorphism()]),
             *((d4, frozenset(Jsub), _d4_deltas(d4)) for Jsub in ({2}, {1, 3}))]
    for group, Jsub, deltas in cases:
        algebra = HeckeAlgebra(group)
        for delta in deltas:
            for w in piece_indices(group, Jsub, delta):
                data = bedard_sequence(group, Jsub, delta, w)
                h = _seeded_element(algebra, data, rng)
                for n in (data.n0, data.n0 + 1):
                    assert E_operator(h, data, n) == reference_E_operator(h, data, n), \
                        (group.type_tag, delta.perm, sorted(Jsub), group.word_str(w), n)


def test_E_operator_step_budget(b4, monkeypatch):
    """mu_J forms T_a · T_b in l(a) generator steps, a = δ^{-1}(y_*) in
    W_J, once per distinct (J, y) with a ≠ e: neither T_y ↦ T_y (J = ∅ or
    y_* = e) nor the length of y^* costs a step."""
    Jsub, delta = frozenset({2}), b4.automorphism()
    datas = [bedard_sequence(b4, Jsub, delta, w) for w in piece_indices(b4, Jsub, delta)]
    rng, source = random.Random(5), HeckeAlgebra(b4)
    inputs = [(data, _seeded_element(source, data, rng)) for data in datas]
    budget, seen = 0, set()
    for data, h in inputs:  # replay the contractions to list the (J, y) met
        for k in range(data.n0):
            Jk = data.J_at(k)
            for y in h.terms:
                if (Jk, y) not in seen:
                    seen.add((Jk, y))
                    budget += b4.length(b4.right_quotient(y, delta.on_set(Jk))[1])
            h = reference_mu_J(h, Jk, delta)
    calls = 0
    times_gen = HeckeAlgebra._times_gen

    def counted(self, terms, s):
        nonlocal calls
        calls += 1
        return times_gen(self, terms, s)

    monkeypatch.setattr(HeckeAlgebra, "_times_gen", counted)
    algebra = HeckeAlgebra(b4)
    for data, h in inputs:
        E_operator(algebra.element(h.terms), data, data.n0)
    assert 0 < calls <= budget


def test_mu_empty_J_is_the_identity():
    d4 = coxeter_group(D4_MATRIX)
    algebra = HeckeAlgebra(d4)
    h = algebra.element({d4.parse_word("2134"): Laurent({-1: 3}),
                         d4.longest_element(): ONE})
    for delta in (d4.automorphism(), *_d4_deltas(d4)):
        assert mu_J(h, set(), delta) == h


def test_mu_cache_dies_with_its_algebra(b2):
    algebra = HeckeAlgebra(b2)
    mu_J(algebra.basis(b2.parse_word("21")), {1}, b2.automorphism())
    ref = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("operation", ["mu_J", "E_operator", "piece_projection",
                                       "tau_element"])
def test_operators_refuse_data_of_another_group(b3, b4, operation):
    """An element of a B3 algebra is refused by a δ or a sequence of B4,
    whose element numbers would be read as B3's."""
    h = HeckeAlgebra(b3).basis(21)
    delta = b4.automorphism()
    data = bedard_sequence(b4, J, delta, 4)
    assert data.n0 == 0
    call = {
        "mu_J": lambda: mu_J(h, J, delta),
        "E_operator": lambda: E_operator(h, data, 0),
        "piece_projection": lambda: piece_projection(h, data),
        "tau_element": lambda: data.tau_element(h),
    }[operation]
    with pytest.raises(ValueError, match="another group"):
        call()


@pytest.mark.parametrize("entry", ["piece_indices", "twisted_normalizer", "bedard_sequence",
                                   "bedard_inverse", "closure_leq", "closure_hasse",
                                   "piece_dimension"])
def test_entry_points_refuse_a_delta_of_another_group(b3, b4, entry):
    """B4 refuses the A4 flip, which is not even a diagram automorphism of
    B4 (m(1,2) = 4 but m(4,3) = 3), and the identity of B3: their generator
    indices would be read as B4's."""
    e, w = b4.identity(), b4.parse_word("4")
    steps = bedard_sequence(b4, {2}, b4.automorphism(), w).steps
    call = {
        "piece_indices": lambda d: piece_indices(b4, {2}, d),
        "twisted_normalizer": lambda d: twisted_normalizer(b4, {2}, d),
        "bedard_sequence": lambda d: bedard_sequence(b4, {2}, d, w),
        "bedard_inverse": lambda d: bedard_inverse(b4, {2}, d, steps),
        "closure_leq": lambda d: closure_leq(b4, {2}, d, e, w),
        "closure_hasse": lambda d: closure_hasse(b4, {2}, d),
        "piece_dimension": lambda d: piece_dimension(b4, {2}, w, d),
    }[entry]
    flip = coxeter_group(A4_MATRIX).automorphism({1: 4, 2: 3, 3: 2, 4: 1})
    for delta in (flip, b3.automorphism()):
        with pytest.raises(ValueError, match="another group"):
            call(delta)


def test_projection_selects_coset(b4, b4_data):
    _, _, datas = b4_data
    algebra = HeckeAlgebra(b4)
    N = twisted_normalizer(b4, J, b4.automorphism())
    WJ = b4.parabolic_elements(J)
    for z in N:
        data = datas[z]
        assert data.n0 == 0
        z_inv = b4.inverse(z)
        for u in WJ:
            assert E_operator(algebra.basis(b4.product(z_inv, u)), data, 0) \
                == algebra.basis(u)
        # anything outside z^{-1} W_J projects to zero at n = 0
        outside = b4.parse_word("34")
        assert not b4.in_parabolic(b4.product(z, outside), J)
        assert not E_operator(algebra.basis(outside), data, 0)


def test_e_operator_shift_identity(b4, b4_data):
    """E_{n+1}(T_y) = tau(E_n(T_y)): advancing the contraction count one
    step past stabilization only twists by the generator permutation."""
    _, idx, datas = b4_data
    algebra = HeckeAlgebra(b4)
    rng = random.Random(71)
    elements = b4.elements()
    for w in idx:
        data = datas[w]
        for y in rng.sample(elements, 24):
            h = algebra.basis(y)
            lhs = E_operator(h, data, data.n0 + 1)
            rhs = data.tau_element(E_operator(h, data, data.n0))
            assert lhs == rhs


def test_internal_results_hold_no_zero_coefficient(b3, b4):
    """``HeckeElement._raw`` skips the constructor's zero filter, so every
    operation that builds its result with it must leave no zero behind:
    on seeded B3 and B4 elements in both normalizations, with sums and
    differences that cancel terms, no result of +, -, ``multiply``,
    ``bar``, ``mu_J``, ``piece_projection``, ``tau_element`` or
    ``canonical_basis`` holds a zero coefficient."""
    rng = random.Random(30)
    coeffs = [ONE, -ONE, Laurent({-1: 1}), Laurent({-1: -1}), Laurent({-1: 1, 1: 1}),
              Laurent({0: 2, 2: -1})]
    results = []
    for group in (b3, b4):
        elements = group.elements()
        delta = group.automorphism()
        datas = [bedard_sequence(group, J, delta, w) for w in piece_indices(group, J, delta)]
        weight = WeightFunction(group, {i: 2 if i == 1 else 1 for i in group.generators()})
        weighted = HeckeAlgebra(group, "weighted", weight)
        results += canonical_basis(weighted, validate=False).vectors.values()
        for algebra in (HeckeAlgebra(group), weighted):
            for _ in range(12):
                support = rng.sample(elements, 8)
                x = algebra.element({w: rng.choice(coeffs) for w in support})
                y = algebra.element({w: rng.choice(coeffs) for w in rng.sample(elements, 6)})
                y = y + algebra.element({w: x.coeff(w) for w in support[:3]})
                short = algebra.element({w: rng.choice(coeffs)
                                         for w in rng.sample(elements[:8], 3)})
                data = rng.choice(datas)
                projected = piece_projection(x - y, data)
                results += [x + y, x - y, -x, x + -x, algebra.multiply(x, short),
                            algebra.multiply(x - y, x + y - short), algebra.bar(x - y),
                            mu_J(x - y, rng.sample(group.generators(), 2), delta), projected,
                            data.tau_element(projected)]
    for h in results:
        assert all(h.terms.values())


def test_e_operator_rejects_unstable_count(b4, b4_data):
    _, _, datas = b4_data
    algebra = HeckeAlgebra(b4)
    data = datas[b4.parse_word("32")]
    assert data.n0 == 2
    with pytest.raises(ValueError):
        E_operator(algebra.unit(), data, 1)


def test_e_operator_refuses_non_int_counts(b4, b4_data):
    """n is an int: True is not read as 1, and a float or a string raises
    the same ValueError as an n below n0."""
    data = b4_data[2][b4.parse_word("4")]
    assert data.n0 == 0
    h = HeckeAlgebra(b4).unit()
    E_operator(h, data, 1)
    for n in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="operator needs n >= 0"):
            E_operator(h, data, n)


def test_e_operator_lands_in_target(b4, b4_data):
    _, _, datas = b4_data
    algebra = HeckeAlgebra(b4)
    rng = random.Random(9)
    for w in rng.sample(list(datas), 12):
        data = datas[w]
        for y in rng.sample(b4.elements(), 10):
            out = E_operator(algebra.basis(y), data, data.n0)
            for x in out.support():
                assert b4.in_parabolic(x, data.target_parabolic)
