"""Indexing data and Hecke operators for the pieces of a twisted parabolic
stratification.

Fix a Coxeter group W with generating set I, a subset J of I, and a diagram
automorphism δ.  The pieces are indexed by the set of elements with no left
descents in δ(J).  Each index w carries a stabilization sequence

    J_0 = J,   w_n = the minimal element of  W_{δ(J)} · w · W_{J_n},
    J_{n+1} = {i in J_n : s_{δ(i)} · w_n = w_n · s_j for some j in J_n},

that is, s_{δ(i)} = w_n s_j w_n^{-1}, both products read off the group's
tables.  It becomes constant after finitely many steps; the stable pair
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

from .coxeter import CoxeterGroup, DiagramAutomorphism, Element
from .hecke import HeckeAlgebra, HeckeElement
from .laurent import ONE, Laurent, _is_int, add_into


@dataclass(frozen=True)
class BedardData:
    """The stabilization sequence attached to a piece index w.

    ``steps[n] = (J_n, w_n)`` for n = 0..n0, where n0 is the first index with
    J_{n0} = J_{n0+1}; the sequence is constant from n0 on, so ``J_at`` and
    ``w_at`` clamp to the tail.  They refuse an n that is negative or not an
    int, which would read the steps from the end.
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

    def _step(self, n: int) -> tuple[frozenset, Element]:
        if not _is_int(n) or n < 0:
            raise ValueError(f"sequence index must be a nonnegative int, got {n!r}")
        return self.steps[min(n, self.n0)]

    def J_at(self, n: int) -> frozenset:
        return self._step(n)[0]

    def w_at(self, n: int) -> Element:
        return self._step(n)[1]

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
        _check_group(h, self)
        return HeckeElement._raw(h.algebra, {self.tau(x): c for x, c in h.terms.items()})


def _check_group(h: HeckeElement, data: BedardData) -> None:
    """Refuse a sequence of another group than h's algebra: its elements
    would be read as elements of the wrong group."""
    if data.group is not h.algebra.group:
        raise ValueError("h belongs to an algebra of another group")


def _twisted(group: CoxeterGroup, J: Iterable[int], delta: DiagramAutomorphism,
             *indices: Element) -> tuple[frozenset, frozenset]:
    """J, checked as a set of generators, and δ(J), after checking each of
    ``indices`` as a piece index.  Refuses a δ of another group than
    ``group``, whose generators would be read as the group's, and an index
    that is not an element or has a left descent in δ(J)."""
    if delta.group is not group:
        raise ValueError("delta is a diagram automorphism of another group")
    Jf = group._check_subset(J)
    dJ = delta.on_set(Jf)
    for w in indices:
        group._check_element(w)
        if group._ldesc[w] & dJ:
            raise ValueError(
                f"{group.word_str(w)} has a left descent in δ(J); not a piece index")
    return Jf, dJ


def _int_subset(Jf: frozenset) -> frozenset:
    """Jf, refused if a member is not an int.  True and 1.0 equal 1, so they
    pass a subset check, but a sequence would keep them as they are."""
    for i in Jf:
        if not _is_int(i):
            raise ValueError(f"generator indices must be integers, not {i!r}")
    return Jf


def bedard_sequence(group: CoxeterGroup, J: Iterable[int],
                    delta: DiagramAutomorphism, w: Element) -> BedardData:
    """Compute the stabilization sequence of a piece index w.

    Raises ValueError if w has a left descent in δ(J), if J holds a
    generator index that is not an int, or if δ is of another group.
    """
    Jf, dJ = _twisted(group, J, delta, w)
    _int_subset(Jf)
    lmul, rmul = group._lmul, group._rmul
    steps: list[tuple[frozenset, Element]] = []
    Jn = Jf
    while True:
        wn = group.min_double_coset(dJ, Jn, w)
        steps.append((Jn, wn))
        right = {rmul[j][wn] for j in Jn}  # w_n s_j for j in J_n
        Jnext = frozenset(i for i in Jn if lmul[delta(i)][wn] in right)
        if Jnext == Jn:
            # every s_{δ(i)} w_n, i in J_n, is some w_n s_j, and both sides
            # have |J_n| members: w_n conjugates J_n onto δ(J_n) exactly
            break
        Jn = Jnext
    return BedardData(group, Jf, delta, w, tuple(steps))


def bedard_inverse(group: CoxeterGroup, J: Iterable[int],
                   delta: DiagramAutomorphism,
                   steps: Sequence[tuple[Iterable[int], Element]]) -> Element:
    """The piece index whose stabilization sequence is ``steps``.

    The sequence is accepted exactly when it equals
    ``bedard_sequence(group, J, delta, w).steps`` for its last element w,
    which is returned; anything else raises ValueError.
    """
    norm = tuple((_int_subset(group._check_subset(Jn)), wn) for Jn, wn in steps)
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
    _, dJ = _twisted(group, J, delta)
    ldesc = group._ldesc
    return tuple(w for w in group.elements() if not ldesc[w] & dJ)


def twisted_normalizer(group: CoxeterGroup, J: Iterable[int],
                       delta: DiagramAutomorphism) -> tuple[Element, ...]:
    """{w minimal in its double coset : w J w^{-1} = δ(J)} — the indices
    whose stabilization sequence is constant at (J, w), sorted."""
    Jf, dJ = _twisted(group, J, delta)
    lmul, rmul = group._lmul, group._rmul
    # w J w^{-1} = δ(J) exactly when {w s_j : j in J} = {s_k w : k in δ(J)}
    return tuple(
        w for w in group.double_coset_reps(dJ, Jf)
        if {rmul[j][w] for j in Jf} == {lmul[k][w] for k in dJ}
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
    Jf, _ = _twisted(group, J, delta, w1, w2)
    ideal = group.bruhat_mask(w2)
    return any(ideal >> x & 1 for x in next(_orbits(group, Jf, delta, [w1])))


def closure_hasse(group: CoxeterGroup, J: Iterable[int],
                  delta: DiagramAutomorphism) -> tuple[tuple[Element, Element], ...]:
    """Covering pairs (a, b), a strictly below b with nothing between, of the
    closure order on all piece indices, sorted by the positions of a and b;
    raises if the relation is not antisymmetric.  Index i lies below j iff the
    orbit of idx[i] meets the Bruhat ideal of idx[j]: idx[j] and the ideals of
    its coatoms (Björner–Brenti, GTM 231, §2.2), so reach is built in element
    order, one OR per Bruhat cover.  A piece index w has no left descent in
    δ(J), so l(δ(u)·w·u^{-1}) >= l(w), and i below j forces l(idx[i]) <=
    l(idx[j]), equal only when each lies in the other's orbit, the refused
    case.  Positions follow element numbers, and so length: the highest
    position left below j is a cover, and peeling it clears all below it, one
    OR per cover (Aho, Garey and Ullman, SIAM J. Comput. 1, 1972)."""
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
    length, covers = group._length, []
    for j, w in enumerate(idx):
        under = reach[w] ^ 1 << j  # the positions below j
        if under and length[idx[under.bit_length() - 1]] >= length[w]:
            raise AssertionError("closure relation is not antisymmetric")
        while under:
            i = under.bit_length() - 1
            covers.append((i, j))
            under &= ~reach[idx[i]]
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
    if delta is None:
        delta = group.automorphism()
    Jf, _ = _twisted(group, J, delta, w)
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
    image T_b, is not multiplied.  Raises ValueError if δ is of another
    group than h's algebra.
    """
    algebra = h.algebra
    Jf, dJ = _twisted(algebra.group, J, delta)
    if not Jf:
        return h
    images = algebra.mu_cache.get((Jf, delta))
    if images is None:
        images = algebra.mu_cache[Jf, delta] = {}
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
    return HeckeElement._raw(algebra, out)


def piece_projection(h: HeckeElement, data: BedardData) -> HeckeElement:
    """T_y ↦ T_{wy} when wy stays in W_{δ(J_inf)}, else 0, extended linearly
    (w the piece index).  Raises ValueError if ``data`` is of another group
    than h's algebra."""
    _check_group(h, data)
    group = h.algebra.group
    K = data.target_parabolic
    # y ↦ wy is injective, so no two terms land on the same T and nothing sums
    moved = ((group._product(data.w, y), c) for y, c in h.terms.items())
    return HeckeElement._raw(h.algebra, {y1: c for y1, c in moved if group._in_parabolic(y1, K)})


def E_operator(h: HeckeElement, data: BedardData, n: int) -> HeckeElement:
    """The composite  project ∘ mu_{J_{n-1}} ∘ ··· ∘ mu_{J_0}  for n >= n0.

    Raises ValueError unless n is an int, not a bool, with n >= n0 (below
    n0 the sequence has not stabilized, so the projection target is not
    defined).
    """
    if not (_is_int(n) and n >= data.n0):
        raise ValueError(f"operator needs n >= {data.n0}, got {n!r}")
    for k in range(n):
        h = mu_J(h, data.J_at(k), data.delta)
    return piece_projection(h, data)
