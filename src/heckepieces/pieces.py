"""Indexing data and Hecke operators for the pieces of a twisted parabolic
stratification.

Fix a Coxeter group W with generating set I, a subset J of I, and a diagram
automorphism δ.  The pieces are indexed by the set of elements with no left
descents in δ(J).  Each index w carries a stabilization sequence

    J_0 = J,   w_n = the minimal element of  W_{δ(J)} · w · W_{J_n},
    J_{n+1} = {i in J_n : δ(i) is the index of w_n s_j w_n^{-1} for some j in J_n},

which becomes constant after finitely many steps; the stable pair
(J_inf, w_inf) satisfies w_inf J_inf w_inf^{-1} = δ(J_inf) as generator sets,
and w_inf equals the original w.  ``bedard_sequence`` computes the sequence;
``bedard_inverse`` accepts exactly the sequences it computes and returns their
last w_n, so the two are mutually inverse bijections.

On the Hecke algebra side, ``mu_J`` is the parabolic contraction
T_y ↦ T_{δ^{-1}(y_*)} · T_{y^*} for the decomposition y = y^* y_* with
y_* in W_{δ(J)} and y^* shortest in its coset; ``E_operator`` composes n of
these contractions along the stabilization sequence and then projects onto
the coset w^{-1} W_{δ(J_inf)}.  The operator is independent of n up to the
generator twist tau: E_{n+1}(T_y) = tau(E_n(T_y)).  mu_∅ is the identity and
is not computed.  Otherwise the factor a = δ^{-1}(y_*) lies in W_J and is
short, while y^* can be nearly as long as w_0, so T_a · T_{y^*} is formed as
ι(T_{(y^*)^{-1}} · T_{a^{-1}}) with the anti-involution ι(T_w) = T_{w^{-1}}
(Lusztig, Hecke algebras with unequal parameters, CRM Monograph 18, 2003),
in l(a) generator steps.  Images of basis elements are memoized on the
algebra, in ``algebra.mu_cache[J, δ]``: one dict {y: terms of the image}
per pair (J, δ).

The closure order on piece indices is w' ≤ w iff δ(u) w' u^{-1} ≤ w in
Bruhat order for some u in W_J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .coxeter import CoxeterGroup, DiagramAutomorphism, Element, mask_bits
from .hecke import HeckeAlgebra, HeckeElement
from .laurent import ONE, Laurent, add_into


def ad_indices(group: CoxeterGroup, w: Element, K: Iterable[int]) -> frozenset:
    """{k : s_k = w s_j w^{-1} for some j in K} — conjugates of K-generators
    by w that remain generators (others are dropped)."""
    length, words, w_inv = group._length, group._words, group.inverse(w)
    out = set()
    for j in group._check_subset(K):
        g = group._product(group._rmul[j][w], w_inv)
        if length[g] == 1:
            out.add(words[g][0])
    return frozenset(out)


def conjugates_set_to(group: CoxeterGroup, w: Element, J: Iterable[int],
                      K: Iterable[int]) -> bool:
    """Whether w J w^{-1} = K as sets of generators (conjugation is
    injective, so no element of J is dropped when the sizes agree)."""
    Jf, Kf = frozenset(J), frozenset(K)
    return len(Jf) == len(Kf) and ad_indices(group, w, Jf) == Kf


@dataclass(frozen=True)
class BedardData:
    """The stabilization sequence attached to a piece index w.

    ``steps[n] = (J_n, w_n)`` for n = 0..n0, where n0 is the first index with
    J_{n0} = J_{n0+1}; the sequence is constant from n0 on, so ``J_at`` and
    ``w_at`` clamp to the tail.
    """

    group: CoxeterGroup
    J: frozenset
    delta: DiagramAutomorphism
    w: Element
    steps: tuple[tuple[frozenset, Element], ...]

    @property
    def n0(self) -> int:
        return len(self.steps) - 1

    @property
    def J_infinity(self) -> frozenset:
        return self.steps[-1][0]

    @property
    def w_infinity(self) -> Element:
        return self.steps[-1][1]

    @property
    def target_parabolic(self) -> frozenset:
        """δ(J_inf) — the parabolic that E-operators land in."""
        return self.delta.on_set(self.J_infinity)

    def J_at(self, n: int) -> frozenset:
        return self.steps[min(n, self.n0)][0]

    def w_at(self, n: int) -> Element:
        return self.steps[min(n, self.n0)][1]

    # -- the generator twist --------------------------------------------------

    def tau(self, x: Element) -> Element:
        """tau(x) = w_inf · δ^{-1}(x) · w_inf^{-1}, an automorphism of
        W_{δ(J_inf)} permuting its generators."""
        group = self.group
        if not group.in_parabolic(x, self.target_parabolic):
            raise ValueError("tau is only defined on the target parabolic")
        w = self.w_infinity
        out = group._product(w, self.delta.apply_inv(x), group._inv[w])
        if not group._in_parabolic(out, self.target_parabolic):
            raise ValueError("tau left the target parabolic; stabilization data is corrupt")
        return out

    def tau_element(self, h: HeckeElement) -> HeckeElement:
        """tau applied basiswise, T_x ↦ T_{tau(x)} — an algebra map because
        tau permutes the generators of the target parabolic."""
        return HeckeElement(h.algebra, {self.tau(x): c for x, c in h.terms.items()})


def _validate_index(group: CoxeterGroup, J: frozenset, delta: DiagramAutomorphism,
                    w: Element) -> None:
    if not group.is_left_min(w, delta.on_set(J)):
        raise ValueError(
            f"{group.word_str(w)} has a left descent in δ(J); not a piece index"
        )


def bedard_sequence(group: CoxeterGroup, J: Iterable[int],
                    delta: DiagramAutomorphism, w: Element) -> BedardData:
    """Compute the stabilization sequence of a piece index w.

    Raises ValueError if w has a left descent in δ(J).
    """
    Jf = group._check_subset(J)
    _validate_index(group, Jf, delta, w)
    dJ = delta.on_set(Jf)
    steps: list[tuple[frozenset, Element]] = []
    Jn = Jf
    while True:
        wn = group.min_double_coset(dJ, Jn, w)
        steps.append((Jn, wn))
        ad = ad_indices(group, wn, Jn)
        Jnext = frozenset(i for i in Jn if delta(i) in ad)
        if Jnext == Jn:
            break
        Jn = Jnext
    data = BedardData(group, Jf, delta, w, tuple(steps))
    # the stable pair conjugates J_inf onto δ(J_inf); cheap, so always check
    if not conjugates_set_to(group, data.w_infinity, data.J_infinity,
                             data.target_parabolic):
        raise AssertionError("stabilization reached a non-conjugating pair")
    return data


def bedard_inverse(group: CoxeterGroup, J: Iterable[int],
                   delta: DiagramAutomorphism,
                   steps: Sequence[tuple[Iterable[int], Element]]) -> Element:
    """The piece index whose stabilization sequence is ``steps``.

    The sequence is accepted exactly when it equals
    ``bedard_sequence(group, J, delta, w).steps`` for its last element w,
    which is returned; anything else raises ValueError.
    """
    norm = tuple((group._check_subset(Jn), wn) for Jn, wn in steps)
    for _, wn in norm:
        group._check_element(wn)
    if not norm:
        raise ValueError("empty sequence")
    w = norm[-1][1]
    if bedard_sequence(group, J, delta, w).steps != norm:
        raise ValueError("not the stabilization sequence of its last element")
    return w


def piece_indices(group: CoxeterGroup, J: Iterable[int],
                  delta: DiagramAutomorphism) -> tuple[Element, ...]:
    """All piece indices: elements with no left descent in δ(J), sorted."""
    dJ = delta.on_set(group._check_subset(J))
    ldesc = group._ldesc
    return tuple(w for w in group.elements() if not ldesc[w] & dJ)


def twisted_normalizer(group: CoxeterGroup, J: Iterable[int],
                       delta: DiagramAutomorphism) -> tuple[Element, ...]:
    """{w minimal in its double coset : w J w^{-1} = δ(J)} — the indices
    whose stabilization sequence is constant at (J, w), sorted."""
    Jf = group._check_subset(J)
    dJ = delta.on_set(Jf)
    return tuple(
        w for w in group.double_coset_reps(dJ, Jf)
        if conjugates_set_to(group, w, Jf, dJ)
    )


# -- closure order -----------------------------------------------------------


def _orbits(group: CoxeterGroup, Jf: frozenset, delta: DiagramAutomorphism,
            ws: Iterable[Element]) -> Iterator[list[Element]]:
    """For each w of ws, δ(u) w u^{-1} for every u in W_J, repeats
    included; each w comes from the group's own tables or was checked by
    the caller.

    For u != e with first letter s, u = s·u' and δ(u) w u^{-1} is
    δ(s)·(δ(u') w u'^{-1})·s, one left and one right step from the entry of
    the shorter u', which ``parabolic_elements`` lists earlier.  Those
    steps are found once per call, not once per w."""
    parabolic = group.parabolic_elements(Jf)
    position = {u: i for i, u in enumerate(parabolic)}
    lmul, rmul, words = group._lmul, group._rmul, group._words
    steps = []
    for u in parabolic[1:]:
        s = words[u][0]
        steps.append((position[lmul[s][u]], lmul[delta(s)], rmul[s]))
    for w in ws:
        orbit = [w]
        for i, left, right in steps:
            orbit.append(left[right[orbit[i]]])
        yield orbit


def closure_leq(group: CoxeterGroup, J: Iterable[int], delta: DiagramAutomorphism,
                w1: Element, w2: Element) -> bool:
    """w1 ≤ w2 in the closure order: δ(u) w1 u^{-1} ≤ w2 (Bruhat) for some
    u in W_J."""
    Jf = group._check_subset(J)
    _validate_index(group, Jf, delta, w1)
    _validate_index(group, Jf, delta, w2)
    ideal = group.bruhat_mask(w2)
    return any(ideal >> x & 1 for x in next(_orbits(group, Jf, delta, [w1])))


def closure_hasse(group: CoxeterGroup, J: Iterable[int],
                  delta: DiagramAutomorphism) -> tuple[tuple[Element, Element], ...]:
    """Covering pairs (a, b), a strictly below b with nothing between, of the
    closure order on all piece indices, sorted by the positions of a and b.
    Raises if the computed relation is not antisymmetric (it is a partial
    order for genuine stabilization data).

    Index i lies below index j iff the orbit of idx[i] meets the Bruhat
    ideal of idx[j].  That ideal is idx[j] together with the ideals of its
    coatoms (the subword property, Björner–Brenti, GTM 231, §2.2), so the
    positions whose orbit meets the ideal of x are found for every x in
    element order, one OR per Bruhat cover, and no ideal is built."""
    Jf = group._check_subset(J)
    idx = piece_indices(group, Jf, delta)
    # reach[x]: the positions whose orbit meets the ideal of x, as a bitmask;
    # first only those whose orbit holds x
    reach = [0] * len(group.elements())
    for i, orbit in enumerate(_orbits(group, Jf, delta, idx)):
        for x in orbit:
            reach[x] |= 1 << i
    for x, coatoms in enumerate(group._coatoms()[:idx[-1] + 1]):
        r = reach[x]
        for c in coatoms:
            r |= reach[c]
        reach[x] = r
    # below[j]: the positions i != j with idx[i] < idx[j]
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


# -- dimensions ----------------------------------------------------------------


def piece_dimension(group: CoxeterGroup, J: Iterable[int], w: Element,
                    delta: DiagramAutomorphism | None = None) -> int:
    """Dimension of the piece with index w for a type-B group of rank n:
    l(w) + l(w_0) + n + l(w_0,J), since B_n has l(w_0) = n^2 positive roots
    and the J-subsystem has l(w_0,J).

    >>> from heckepieces.coxeter import coxeter_group
    >>> W = coxeter_group("B4")
    >>> [piece_dimension(W, {1, 2}, W.parse_word(word)) for word in ("", "4")]
    [24, 25]
    """
    if not group.type_tag.startswith("B"):
        raise ValueError("piece dimensions are defined here for type B only")
    Jf = group._check_subset(J)
    if delta is None:
        delta = group.automorphism()
    _validate_index(group, Jf, delta, w)
    return (group.length(w) + group.length(group.longest_element()) + group.rank
            + group.length(group.longest_in_parabolic(Jf)))


# -- Hecke operators ---------------------------------------------------------


def _mu_on_basis(algebra: HeckeAlgebra, dJ: frozenset, delta: DiagramAutomorphism,
                 y: Element) -> dict[Element, Laurent]:
    """The terms of T_a · T_b, for y = b·y_* with y_* in W_{δ(J)} = W_{dJ},
    b = y^* shortest in y W_{δ(J)} and a = δ^{-1}(y_*) in W_J.

    a is short, while b can be nearly as long as w_0, and ``multiply`` takes
    one generator step per letter of its right operand.  So the product is
    formed as T_a · T_b = ι(T_{b^{-1}} · T_{a^{-1}}), with ι the
    anti-involution T_w ↦ T_{w^{-1}} (Lusztig, Hecke algebras with unequal
    parameters, CRM Monograph 18, 2003): l(a) steps, not l(b).  When a = e
    the image is T_b and no product is formed."""
    group = algebra.group
    b, y_par = group.right_quotient(y, dJ)
    a = delta.apply_inv(y_par)
    if a == group.identity():
        return {b: ONE}
    inv = group._inv
    swapped = algebra.multiply(algebra.basis(inv[b]), algebra.basis(inv[a]))
    return {inv[w]: c for w, c in swapped.terms.items()}


def mu_J(h: HeckeElement, J: Iterable[int], delta: DiagramAutomorphism) -> HeckeElement:
    """The parabolic contraction T_y ↦ T_{δ^{-1}(y_*)} · T_{y^*}, extended
    linearly; y = y^* y_* with y_* in W_{δ(J)} and y^* shortest in y W_{δ(J)}.

    mu_∅ is the identity (y_* = e for every y), so h itself is returned.
    Otherwise the image of each T_y is read from ``algebra.mu_cache[J, δ]``,
    one dict {y: terms of the image} per (J, δ), filled by ``_mu_on_basis``
    on first use; J is checked and the dict and δ(J) are found once per
    call, not once per term.  A coefficient ONE, of a term of h or of an
    image T_b, is not multiplied.
    """
    algebra = h.algebra
    Jf = algebra.group._check_subset(J)
    if not Jf:
        return h
    images = algebra.mu_cache.get((Jf, delta))
    if images is None:
        images = algebra.mu_cache[Jf, delta] = {}
    dJ = delta.on_set(Jf)
    out: dict = {}
    for y, c in h.terms.items():
        image = images.get(y)
        if image is None:
            image = images[y] = _mu_on_basis(algebra, dJ, delta, y)
        if c == ONE:
            add_into(out, image.items())
        else:
            # ``is`` finds the shared ONE of the T_b images without a
            # comparison; an equal copy is multiplied, which is only slower
            add_into(out, [(x, c if p is ONE else c * p) for x, p in image.items()])
    return HeckeElement(algebra, out)


def piece_projection(h: HeckeElement, data: BedardData) -> HeckeElement:
    """T_y ↦ T_{wy} when wy stays in W_{δ(J_inf)}, else 0, extended linearly
    (w the piece index)."""
    group = h.algebra.group
    K = data.target_parabolic
    # y ↦ wy is injective, so no two terms land on the same T and nothing sums
    moved = ((group._product(data.w, y), c) for y, c in h.terms.items())
    return HeckeElement(h.algebra, {y1: c for y1, c in moved if group._in_parabolic(y1, K)})


def E_operator(h: HeckeElement, data: BedardData, n: int) -> HeckeElement:
    """The composite  project ∘ mu_{J_{n-1}} ∘ ··· ∘ mu_{J_0}  for n >= n0.

    Raises ValueError when n < n0 (the sequence has not stabilized yet, so
    the projection target is not defined).
    """
    if n < data.n0:
        raise ValueError(f"operator needs n >= {data.n0}, got {n}")
    for k in range(n):
        h = mu_J(h, data.J_at(k), data.delta)
    return piece_projection(h, data)
