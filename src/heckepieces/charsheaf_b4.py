"""The character-sheaf verification pipeline: restricting piece basis
elements to the boundary and solving for the character-sheaf transition
data.

Setting: W = B_n (n >= 4; the paper's example and the default is B_4) with
J = {1, 2} and trivial diagram twist.  The twisted normalizer N of J is the
Coxeter group of its atoms, derived from the group's tables
(``_normalizer_mirror``), lettered e, f, g, ... in atom order.  One rule
gives N its weight and its sign character ε: an atom that is a simple
reflection of W weighs 1 with ε = +1, and the one atom that is not (32123)
weighs 3 with ε = -1.  On B_4, N is of type B_2 on e = 4 and f = 32123
(e ↦ 1, f ↦ 3), the paper's case; on B_n with n >= 5, N is of type B_{n-2}
and the rule is the hypothesis that the report tests.  The parabolic W_J is
of type B_2 and supports six character sheaves labelled

    1, rho, sigma, sigma', theta, S,

of which {rho, sigma, sigma', theta} form the block acted on by the
transition maps and S is cuspidal.  ``CS_TABLE_BY_WORD`` records, for each
u in W_J (by its reduced word), the class [u] of the corresponding piece
closure in the character-sheaf basis as a map symbol -> Laurent polynomial
in v; ``ctx.cs_table`` holds the same maps keyed by element.  This table is
input data for the pipeline.

For z in N, t in N and u in W_J, the class [z^{-1}u] restricted to the
boundary stratum at t expands as

    [z^{-1}u]_(t) = sum_{u''} ( sum_{u'} P'_{u'',u'}(v^2) P_{t^{-1}u', z^{-1}u}(v^2) ) [u'']_t

with P the Kazhdan-Lusztig polynomials of W and P' the inverse KL
polynomials of W_J (``restriction_coefficients``).  Normalizing by
v^(-l(z)+l(t)-l(u)) makes the result a nonnegative v^{-1}-expansion away
from the boundary point (``normalized_restriction``).  Every P, P' and
class-table value is a polynomial in q = v^2, so these sums run on the
integer codes at q = 2^64 that ``KLTable.codes`` keeps: one product of
ints per term, and one decode per returned coefficient, the v-shift of
the normalization being the decode's offset.  ``build_context`` refuses
by OverflowError a table whose coefficients could make a decode wrong.

``solve_chi`` inverts the resulting linear system to obtain the transition
images chi_t(C_z) of the four block sheaves: probing with
u in {121, 212, 2, 1} gives four equations whose left-hand coefficients
come from the boundary case t = z; the system has a one-dimensional kernel
in the direction (+1, -1, -1, +1) on (rho, sigma, sigma', theta), fixed
either by the exact boundary identity (t = z) or by coefficientwise
nonnegativity (t ≠ z), enumerated exactly and reported as ambiguous when
nonnegativity does not pin it down.

``cuspidal_scalar`` extracts the scalar X with

    chi(rho) - chi(sigma) - chi(sigma') + chi(theta) = X · (rho - sigma - sigma' + theta),

and ``conjecture_report`` checks, over all pairs (t, z) of N (64 on B4):

  1. the alternating combination has the displayed shape with zero S-part
     and X in Z[v^-1];
  2. the 4x4 block transition matrix is nondegenerate whenever t <= z;
  3. X = ε(z) ε(t) p(t, z), where p is the unequal-parameter canonical
     basis coefficient of the weighted Hecke algebra of N.

The context does each piece of work once.  It keeps every restriction
expansion as codes (the report and the checks ask for 384 triples
(t, z, u) on B4), the probe divisors of each z (8 maps of 4 entries on B4,
from 32 ``boundary_dims`` calls) and every ``solve_chi`` solution (64 on
B4), so the report and the frozen checks of ``b4_example`` share them.  All three grow
with the normalizer; on B6 (|N| = 384) they must be dropped z by z, which
is safe because ``pairs()`` walks z in the outer loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coxeter import CoxeterGroup, Element, coxeter_group
from .hecke import (
    _K,
    CanonicalBasis,
    HeckeAlgebra,
    KLTable,
    WeightFunction,
    _decode,
    canonical_basis,
    inverse_kl,
    kl_table,
)
from .laurent import Laurent, ONE, ZERO, _is_int, add_into
from .pieces import twisted_normalizer

NONUNIT = ("rho", "sigma", "sigma'", "theta", "S")
BLOCK = ("rho", "sigma", "sigma'", "theta")
IOTA = {"rho": 1, "sigma": -1, "sigma'": -1, "theta": 1}
GLYPH = {"1": "1", "rho": "ρ", "sigma": "σ", "sigma'": "σ'", "theta": "θ", "S": "S"}

# the weight of an atom of the twisted normalizer that is a simple
# reflection of W, and of the one atom that is not
ATOM_WEIGHTS = (1, 3)

# probing elements of W_J used by the solver, and the two block sheaves
# supporting the boundary restriction of each
PROBE_WORDS = ("121", "212", "2", "1")
PROBE_SUPPORT = {
    "121": ("theta", "sigma'"),
    "212": ("theta", "sigma"),
    "2": ("rho", "sigma'"),
    "1": ("rho", "sigma"),
}


# the class [u] of each W_J piece closure in the character-sheaf basis
# (keyed by the reduced word of u); input data for the whole pipeline
CS_TABLE_BY_WORD: dict[str, dict[str, Laurent]] = {
    "": {"1": ONE, "rho": Laurent({0: 2}), "sigma": ONE, "sigma'": ONE, "S": ONE},
    "1": {"1": Laurent({0: 1, 2: 1}), "rho": Laurent({0: 1, 2: 1}),
          "sigma": Laurent({0: 1, 2: 1})},
    "2": {"1": Laurent({0: 1, 2: 1}), "rho": Laurent({0: 1, 2: 1}),
          "sigma'": Laurent({0: 1, 2: 1})},
    "12": {"1": Laurent({0: 1, 2: 2, 4: 1}), "rho": Laurent({2: 1}),
           "sigma": Laurent({2: 1}), "sigma'": Laurent({2: 1}),
           "theta": Laurent({2: 1})},
    "21": {"1": Laurent({0: 1, 2: 2, 4: 1}), "rho": Laurent({2: 1}),
           "sigma": Laurent({2: 1}), "sigma'": Laurent({2: 1}),
           "theta": Laurent({2: 1})},
    "121": {"1": Laurent({0: 1, 2: 1, 4: 1, 6: 1}),
            "sigma'": Laurent({2: 1, 4: 1}), "theta": Laurent({2: 1, 4: 1})},
    "212": {"1": Laurent({0: 1, 2: 1, 4: 1, 6: 1}),
            "sigma": Laurent({2: 1, 4: 1}), "theta": Laurent({2: 1, 4: 1})},
    "1212": {"1": Laurent({0: 1, 2: 2, 4: 2, 6: 2, 8: 1})},
}


@dataclass
class B4Context:
    """Everything the pipeline needs, built once: the group, its KL data,
    the inverse KL data of W_J, the twisted normalizer with its Coxeter
    mirror, weights, signs, and canonical basis coefficients."""

    group: CoxeterGroup
    J: frozenset
    WJ: tuple[Element, ...]
    kl: KLTable
    N: tuple[Element, ...]                 # normalizer, display order
    name_of: dict[Element, str]
    by_name: dict[str, Element]
    mirror: CoxeterGroup                   # N as an abstract Coxeter group
    to_mirror: dict[Element, Element]
    pbasis: CanonicalBasis
    weight_L: dict[Element, int]
    eps: dict[Element, int]
    cs_table: dict[Element, dict[str, Laurent]]
    probes: dict[str, Element]
    # u' -> ((u'', P'_{u'',u'}) for every u'' <= u'): the inverse KL data of
    # W_J grouped by its second index, so a restriction sum reads one
    # column; each P' as its code at q = 2^_K, as ``KLTable.codes`` keeps P
    ikl_columns: dict[Element, tuple[tuple[Element, int], ...]]
    # u'' -> ((symbol, code of cs_table[u''][symbol]), ...)
    cs_codes: dict[Element, tuple[tuple[str, int], ...]]
    # (t, z, u) -> the codes of the restriction_coefficients expansion, kept
    # once computed
    _expansions: dict[tuple[Element, Element, Element], dict[Element, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # z -> {probe word: the boundary coefficient every probe equation at z
    # is divided by}, kept once computed: 8 maps of 4 entries on B4
    _divisors: dict[Element, dict[str, Laurent]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # (t, z) -> the solve_chi solution, kept once computed: 64 on B4.  Like
    # _expansions, these grow with |N|^2; a B6 run (|N| = 384, 147,456
    # pairs) must drop them z by z.
    _solutions: dict[tuple[Element, Element], "ChiSolution"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def n_leq(self, t: Element, z: Element) -> bool:
        """t <= z inside the normalizer (its own Bruhat order, not the
        closure order of the ambient group)."""
        return self.mirror.bruhat_leq(self._in_mirror(t), self._in_mirror(z))

    def p(self, t: Element, z: Element) -> Laurent:
        """Canonical basis coefficient of the weighted Hecke algebra of N."""
        return self.pbasis.p(self._in_mirror(t), self._in_mirror(z))

    def _in_mirror(self, z: Element) -> Element:
        """z as an element of the mirror.  Refuses what is not an element
        of N, as ``CanonicalBasis.p`` refuses what is not an element: a
        bool would otherwise read as 0 or 1."""
        x = self.to_mirror.get(z) if _is_int(z) else None
        if x is None:
            raise ValueError(f"no element {z!r} of the normalizer")
        return x

    def pairs(self) -> list[tuple[Element, Element]]:
        return [(t, z) for z in self.N for t in self.N]


def _normalizer_mirror(group: CoxeterGroup, J: frozenset) -> tuple:
    """``(N, atoms, mirror, to_mirror)``: the twisted normalizer N of J as a
    Coxeter group.  Its atoms are the elements of N that are no
    length-additive product of two non-identity elements of N; the mirror's
    matrix holds the orders of the atom products; ``to_mirror`` sends z to
    the mirror element whose word, letter i read as the i-th atom,
    multiplies to z, and must be a bijection.

    >>> W = coxeter_group("B4")
    >>> N, atoms, mirror, to_mirror = _normalizer_mirror(W, frozenset({1, 2}))
    >>> [W.word_str(a) for a in atoms], mirror.matrix
    (['4', '32123'], ((1, 4), (4, 1)))
    """
    N = twisted_normalizer(group, J, group.automorphism())
    length, product = group._length, group._product
    composite = {ab for a in N[1:] for b in N[1:]
                 if length[ab := product(a, b)] == length[a] + length[b]}
    atoms = tuple(z for z in N[1:] if z not in composite)

    def order(x: Element) -> int:  # the least k >= 1 with x^k = 1
        k, y = 1, x
        while y:
            k, y = k + 1, product(y, x)
        return k

    mirror = CoxeterGroup([[order(product(a, b)) for b in atoms] for a in atoms])
    to_mirror = {product(0, *(atoms[i - 1] for i in mirror.reduced_word(x))): x
                 for x in mirror.elements()}
    if len(to_mirror) != len(mirror.elements()) or to_mirror.keys() != set(N):
        raise AssertionError("the normalizer is not the Coxeter group of its atoms")
    return N, atoms, mirror, to_mirror


def build_context(kl: KLTable | None = None) -> B4Context:
    """The context of a KL table of B_n, n >= 4 (by default a fresh B4
    table), with J = {1, 2}."""
    if kl is None:
        kl = kl_table(coxeter_group("B4"))
    group = kl.group
    if group.type_tag != f"B{group.rank}" or group.rank < 4:
        raise ValueError("context needs a KL table of a type-B group of rank 4 or more")
    J = frozenset({1, 2})
    WJ = group.parabolic_elements(J)

    N, atoms, mirror, to_mirror = _normalizer_mirror(group, J)
    # the rule of the module docstring: the one atom c that is not a simple
    # reflection of W weighs ATOM_WEIGHTS[1] with sign -1, the others
    # ATOM_WEIGHTS[0] with sign +1
    cuspidal = [i for i in mirror.generators() if group.length(atoms[i - 1]) != 1]
    if len(cuspidal) != 1:
        raise AssertionError(f"{len(cuspidal)} atoms of N are not simple reflections, not 1")
    (c,) = cuspidal
    weight = WeightFunction(mirror, {i: ATOM_WEIGHTS[1] if i == c else ATOM_WEIGHTS[0]
                                     for i in mirror.generators()})
    words = {z: mirror.reduced_word(to_mirror[z]) for z in N}
    name_of = {z: "".join(chr(ord("e") + i - 1) for i in word) or "1" for z, word in words.items()}
    by_name = {nm: z for z, nm in name_of.items()}
    pbasis = canonical_basis(HeckeAlgebra(mirror, "weighted", weight))
    weight_L = {z: weight.of(to_mirror[z]) for z in N}
    eps = {z: (-1) ** word.count(c) for z, word in words.items()}

    cs_table = {group.parse_word(wd): vec for wd, vec in CS_TABLE_BY_WORD.items()}
    if set(cs_table) != set(WJ):
        raise AssertionError("character sheaf table does not cover W_J")
    probes = {wd: group.parse_word(wd) for wd in PROBE_WORDS}
    ikl = inverse_kl(kl, WJ)
    # with M the largest coefficient of the pool, N' the largest
    # sum_{u'} |P'_{u'',u'}|_1 and C the largest sum_{u''} |[u'']_sym|_1,
    # every coefficient that a code of the restriction sums stands for lies
    # below M N' C in absolute value
    largest = max(abs(c) for p in kl.pool for _, c in p.items())
    spread = add_into({}, ((u2, _norm(pp)) for (u2, _), pp in ikl.items()))
    reach = add_into({}, ((sym, _norm(c)) for vec in cs_table.values() for sym, c in vec.items()))
    if largest * max(spread.values()) * max(reach.values()) >= 1 << (_K - 1):
        raise OverflowError(f"the restriction sums of {group.type_tag} may reach coefficients "
                            f"of 2^{_K - 1} or more, which base-2^{_K} codes cannot decode")
    ikl_columns: dict[Element, list[tuple[Element, int]]] = {u1: [] for u1 in WJ}
    for (u2, u1), pp in ikl.items():
        ikl_columns[u1].append((u2, _q_code(pp)))

    return B4Context(
        group=group, J=J, WJ=WJ, kl=kl, N=N,
        name_of=name_of, by_name=by_name,
        mirror=mirror, to_mirror=to_mirror, pbasis=pbasis,
        weight_L=weight_L, eps=eps, cs_table=cs_table, probes=probes,
        ikl_columns={u1: tuple(col) for u1, col in ikl_columns.items()},
        cs_codes={u2: tuple((sym, _q_code(c)) for sym, c in vec.items())
                  for u2, vec in cs_table.items()},
    )


def _norm(p: Laurent) -> int:
    return sum(abs(c) for _, c in p.items())


def _q_code(p: Laurent) -> int:
    """p, a polynomial in q = v^2, at q = 2^_K, as ``KLTable.codes`` keeps
    the pool; refuses a p that the code does not stand for."""
    code = sum(c << _K * (e // 2) for e, c in p.items())
    if _decode(code, _K) != p:
        raise ValueError(f"{p.text()} is not a polynomial in v^2 with small coefficients")
    return code


# -- restriction ------------------------------------------------------------


def _expansion(ctx: B4Context, t: Element, z: Element, u: Element) -> dict[Element, int]:
    """The codes of the ``restriction_coefficients`` expansion of (t, z, u).

    The sum runs over the u' with P_{t^{-1}u', z^{-1}u} nonzero only, each
    adding the code of P times the column of P'_{u'',u'}; P is read from
    the column of z^{-1}u as ``KLTable.get`` reads it.  The context keeps
    each (t, z, u) expansion once it is computed, so the report and the
    checks expand each triple once; the dict is shared and read only."""
    kept = ctx._expansions.get((t, z, u))
    if kept is not None:
        return kept
    group = ctx.group
    zu = group.product(group.inverse(z), u)
    t_inv = group.inverse(t)
    below, column, codes = group.bruhat_mask(zu), ctx.kl.columns[zu], ctx.kl.codes
    out: dict[Element, int] = {}
    for u1, ikl_column in ctx.ikl_columns.items():
        above = below >> group._product(t_inv, u1)  # u1 in W_J, from the group
        if above & 1:
            add_into(out, ikl_column, codes[column[-above.bit_count()]])
    ctx._expansions[(t, z, u)] = out
    return out


def restriction_coefficients(ctx: B4Context, t: Element, z: Element,
                             u: Element) -> dict[Element, Laurent]:
    """Expansion coefficients of [z^{-1}u] restricted to the stratum at t,
    over the classes [u'']_t for u'' in W_J: a fresh map without zero
    values, each decoded from the kept codes of ``_expansion``."""
    return {u2: _decode(c, _K) for u2, c in _expansion(ctx, t, z, u).items()}


def _pushed(ctx: B4Context, t: Element, z: Element, u: Element,
            offset: int) -> dict[str, Laurent]:
    """v^offset [z^{-1}u]_(t): the codes of the expansion pushed through
    the codes of the character-sheaf table, each sum decoded once."""
    out: dict[str, int] = {}
    for u2, c in _expansion(ctx, t, z, u).items():
        add_into(out, ctx.cs_codes[u2], c)
    return {sym: _decode(c, _K, 2, offset) for sym, c in out.items()}


def piece_restriction(ctx: B4Context, t: Element, z: Element,
                      u: Element) -> dict[str, Laurent]:
    """[z^{-1}u]_(t) pushed through the character-sheaf table: a fresh map
    symbol -> coefficient without zero values."""
    return _pushed(ctx, t, z, u, 0)


def normalized_restriction(ctx: B4Context, t: Element, z: Element,
                           u: Element) -> dict[str, Laurent]:
    """v^(-l(z)+l(t)-l(u)) [z^{-1}u]_(t)."""
    group = ctx.group
    return _pushed(ctx, t, z, u, -group.length(z) + group.length(t) - group.length(u))


def boundary_dims(ctx: B4Context, z: Element, u: Element) -> dict[str, Laurent]:
    """The non-unit coefficients of the boundary restriction (t = z),
    each required to be bar-symmetric with nonnegative coefficients."""
    out = {}
    for sym, c in normalized_restriction(ctx, z, z, u).items():
        if sym == "1":
            continue
        if not c.is_bar_symmetric() or not c.has_nonneg_coeffs():
            raise AssertionError(
                f"boundary coefficient of {GLYPH[sym]} is not a symmetric dimension: {c.text()}"
            )
        out[sym] = c
    return out


# -- the transition solver ----------------------------------------------------


@dataclass
class ChiSolution:
    """Transition images chi_t(C_z) of the four block sheaves, as maps
    symbol -> coefficient over the five non-unit symbols at t.

    ``unique`` is False when coefficientwise nonnegativity admitted more
    than one kernel offset; the ``witnesses`` then list
    (coordinate, exponent, low, high) for every free choice, and the stored
    solution takes the low end of each range.
    """

    t: Element
    z: Element
    chi: dict[str, dict[str, Laurent]]
    unique: bool
    witnesses: tuple[tuple[str, int, int, int], ...]

    def chi_coeff(self, block_sym: str, coord: str) -> Laurent:
        return self.chi[block_sym].get(coord, ZERO)

    def block_matrix(self) -> list[list[Laurent]]:
        """M[i][j] = coefficient of BLOCK[i] in chi(BLOCK[j])."""
        return [
            [self.chi_coeff(col, row) for col in BLOCK]
            for row in BLOCK
        ]


# the 24 permutations of four columns, each with its sign (-1)^inversions
_SIGNED_PERMUTATIONS = tuple(
    (perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
    for perm in itertools.permutations(range(4)))


def _det4(m: list[list[Laurent]]) -> Laurent:
    """The Leibniz sum over the 24 permutations; a permutation is dropped
    at its first zero factor, which most are on the sparse block matrices."""
    acc = ZERO
    for perm, sign in _SIGNED_PERMUTATIONS:
        term = m[0][perm[0]]
        for i in range(1, 4):
            if not term:
                break
            term = term * m[i][perm[i]]
        if term:
            acc = acc + term if sign == 1 else acc - term
    return acc


def _probe_divisors(ctx: B4Context, z: Element) -> dict[str, Laurent]:
    """For each probe word u, the boundary coefficient c_u that the probe
    equations at z are divided by: the boundary restriction at (z, z, u)
    must be c_u on the two block sheaves of ``PROBE_SUPPORT[u]`` and zero on
    the other non-unit symbols.  Depends on z only, so the context keeps
    it per z; the map is shared, not copied, and read only."""
    kept = ctx._divisors.get(z)
    if kept is not None:
        return kept
    div: dict[str, Laurent] = {}
    for wd in PROBE_WORDS:
        nd = boundary_dims(ctx, z, ctx.probes[wd])  # no zero values, no unit symbol
        a, b = PROBE_SUPPORT[wd]
        if nd.keys() != {a, b} or nd[a] != nd[b]:
            raise AssertionError("boundary data lost its two-point support")
        div[wd] = nd[a]
    ctx._divisors[z] = div
    return div


def solve_chi(ctx: B4Context, t: Element, z: Element) -> ChiSolution:
    """Solve the four probe equations for chi_t(C_z), C in the block.

    Probing the normalized restriction identity with u in {121, 212, 2, 1}
    gives, coordinate by coordinate, the linear system

        chi[theta] + chi[sigma'] = r_121,   chi[theta] + chi[sigma] = r_212,
        chi[rho]   + chi[sigma'] = r_2,     chi[rho]   + chi[sigma] = r_1,

    after dividing by the common boundary coefficient (``_probe_divisors``);
    consistency requires r_1 + r_121 = r_2 + r_212.  The kernel of the
    system is spanned by ``IOTA``, whose entries are ±1, so off the
    boundary every solution is x0 + k·IOTA for the particular solution x0
    with chi[theta] = 0, and coefficientwise nonnegativity bounds each
    coefficient of k from below by the symbols with IOTA = +1 and from
    above by those with IOTA = -1; ChiSolution documents the choice when
    the bounds leave a range.

    The context keeps each (t, z) solution once it is solved, so the report
    and ``check_chi`` solve each pair once; every call returns a fresh
    ChiSolution with its own ``chi`` dicts."""
    kept = ctx._solutions.get((t, z))
    if kept is None:
        kept = ctx._solutions[(t, z)] = _solve(ctx, t, z)
    return ChiSolution(t, z, {C: dict(row) for C, row in kept.chi.items()},
                       kept.unique, kept.witnesses)


def _solve(ctx: B4Context, t: Element, z: Element) -> ChiSolution:
    """The solve of one pair (t, z), as ``solve_chi`` documents it."""
    div = _probe_divisors(ctx, z)
    rhs = {wd: normalized_restriction(ctx, t, z, ctx.probes[wd]) for wd in PROBE_WORDS}

    chi: dict[str, dict[str, Laurent]] = {C: {} for C in BLOCK}
    witnesses: list[tuple[str, int, int, int]] = []
    for coord in NONUNIT:
        r = {wd: rhs[wd].get(coord, ZERO).exact_div(div[wd]) for wd in PROBE_WORDS}
        if r["1"] + r["121"] != r["2"] + r["212"]:
            raise AssertionError("probe equations are inconsistent")
        x0 = {
            "rho": r["1"] - r["212"],
            "sigma": r["212"],
            "sigma'": r["121"],
            "theta": ZERO,
        }
        if t == z:
            k = ONE if coord == "theta" else ZERO
        else:
            exps = sorted(set().union(*(x.support() for x in x0.values())))
            kterms = {}
            for e in exps:
                lo = max([-x0[C].coeff(e) for C in BLOCK if IOTA[C] > 0])
                hi = min([x0[C].coeff(e) for C in BLOCK if IOTA[C] < 0])
                if lo > hi:
                    raise AssertionError(
                        f"no nonnegative solution at coordinate {coord}, exponent {e}"
                    )
                if lo < hi:
                    witnesses.append((coord, e, lo, hi))
                if lo:
                    kterms[e] = lo
            k = Laurent(kterms)
        sol = {C: x0[C] + k if IOTA[C] > 0 else x0[C] - k for C in BLOCK}
        if t == z:
            expected = {C: (ONE if C == coord else ZERO) for C in BLOCK}
            if sol != expected:
                raise AssertionError("boundary transition is not the identity")
        else:
            for C in BLOCK:
                if not sol[C].has_nonneg_coeffs():
                    raise AssertionError("solved transition has a negative coefficient")
        for C in BLOCK:
            if sol[C]:
                chi[C][coord] = sol[C]
    return ChiSolution(t, z, chi, not witnesses, tuple(witnesses))


def cuspidal_scalar(sol: ChiSolution) -> Laurent:
    """The scalar X with sum_C iota(C) chi(C) = X · sum_C iota(C) C away
    from the unit symbol; raises when the combination has a different shape.
    """
    comb: dict[str, Laurent] = {}
    for C in BLOCK:
        add_into(comb, sol.chi[C].items(), IOTA[C])
    if "S" in comb:
        raise AssertionError("alternating combination has a cuspidal component")
    X = comb.get("rho", ZERO)
    for C in BLOCK:
        if comb.get(C, ZERO) != X * IOTA[C]:
            raise AssertionError("alternating combination is not a scalar multiple")
    return X


# -- the full report -----------------------------------------------------------


@dataclass
class PairResult:
    t_name: str
    z_name: str
    comparable: bool
    unique: bool
    X: Laurent
    p: Laurent
    eps: int
    det: Laurent | None
    pattern_ok: bool
    X_in_v_minus: bool

    @property
    def canonical_match(self) -> bool:
        return self.X == (self.p if self.eps == 1 else -self.p)


# the report's checks as (property of ConjectureReport, label in the text)
REPORT_CHECKS = (("all_unique", "solutions unique"), ("cuspidal_pattern", "cuspidal pattern"),
                 ("block_nondegenerate", "block nondegenerate"),
                 ("canonical_basis_match", "canonical basis match"))


@dataclass
class ConjectureReport:
    pairs: list[PairResult]

    @property
    def cuspidal_pattern(self) -> bool:
        """Every alternating combination is X·(rho-sigma-sigma'+theta) with
        no cuspidal part and X in Z[v^-1]."""
        return all(r.pattern_ok and r.X_in_v_minus for r in self.pairs)

    @property
    def block_nondegenerate(self) -> bool:
        """det of the 4x4 block transition matrix is nonzero for t <= z."""
        return all(bool(r.det) for r in self.pairs if r.comparable)

    @property
    def canonical_basis_match(self) -> bool:
        """X = ε(z)ε(t) p(t,z) over all pairs (64 on B4)."""
        return all(r.canonical_match for r in self.pairs)

    @property
    def all_unique(self) -> bool:
        return all(r.unique for r in self.pairs)

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name) for name, _ in REPORT_CHECKS)


def conjecture_report(ctx: B4Context) -> ConjectureReport:
    results = []
    for t, z in ctx.pairs():
        sol = solve_chi(ctx, t, z)
        try:
            X = cuspidal_scalar(sol)
            pattern_ok = True
        except AssertionError:
            X = ZERO
            pattern_ok = False
        comparable = ctx.n_leq(t, z)
        det = _det4(sol.block_matrix()) if comparable else None
        results.append(PairResult(
            t_name=ctx.name_of[t], z_name=ctx.name_of[z],
            comparable=comparable, unique=sol.unique,
            X=X, p=ctx.p(t, z), eps=ctx.eps[z] * ctx.eps[t],
            det=det, pattern_ok=pattern_ok,
            X_in_v_minus=X.in_v_minus(),
        ))
    return ConjectureReport(results)


# -- serialization -------------------------------------------------------------


def laurent_json(p: Laurent) -> dict:
    return {"coeffs": [[e, c] for e, c in p.items()], "text": p.text()}


def report_as_dict(ctx: B4Context, report: ConjectureReport) -> dict:
    pairs = []
    for r in report.pairs:
        pairs.append({
            "t": r.t_name, "z": r.z_name,
            "comparable": r.comparable,
            "unique": r.unique,
            "X": laurent_json(r.X),
            "p": laurent_json(r.p),
            "eps": r.eps,
            "det": laurent_json(r.det) if r.det is not None else None,
            "pattern_ok": r.pattern_ok,
            "canonical_match": r.canonical_match,
        })
    return {
        "type": ctx.group.type_tag,
        "J": sorted(ctx.J),
        "atom_weights": {ctx.name_of[z]: ctx.weight_L[z] for z in ctx.N
                         if ctx.mirror.length(ctx.to_mirror[z]) == 1},
        "weights": {ctx.name_of[z]: ctx.weight_L[z] for z in ctx.N},
        "signs": {ctx.name_of[z]: ctx.eps[z] for z in ctx.N},
        "pairs": pairs,
        "checks": {name: getattr(report, name) for name, _ in REPORT_CHECKS},
        "all_pass": report.all_pass,
    }


def report_text(ctx: B4Context, report: ConjectureReport) -> str:
    lines = [
        "pair results (t, z): scalar X, canonical p(t,z), sign, verdict",
        "-" * 72,
    ]
    width = max(5, *map(len, ctx.name_of.values()))  # so every eps= lines up
    for r in report.pairs:
        verdict = "ok" if (r.pattern_ok and r.canonical_match and r.unique) else "FAIL"
        lines.append(
            f"t={r.t_name:<{width}} z={r.z_name:<{width}} eps={r.eps:+d}  "
            f"X = {r.X.text():<24} p = {r.p.text():<24} {verdict}"
        )
    lines.append("-" * 72)
    for name, label in (*REPORT_CHECKS, ("all_pass", "all checks pass")):
        lines.append(f"{label + ':':<27}{getattr(report, name)}")
    return "\n".join(lines) + "\n"
