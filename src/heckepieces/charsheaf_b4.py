"""The rank-4 verification pipeline: restricting piece basis elements to the
boundary and solving for the character-sheaf transition data.

Setting: W = B_4 with J = {1, 2} and trivial diagram twist.  The twisted
normalizer N of J is an order-8 dihedral group generated by its two atoms
e (length 1) and f (length 5), carrying a weight (e ↦ 1, f ↦ 3) and a sign
character ε (ε(e) = +1, ε(f) = -1).  The parabolic W_J is of type B_2 and
supports six character sheaves labelled

    1, rho, sigma, sigma', theta, S,

of which {rho, sigma, sigma', theta} form the block acted on by the
transition maps and S is cuspidal.  ``CS_TABLE`` records, for each u in W_J,
the class [u] of the corresponding piece closure in the character-sheaf
basis (graded by powers of v); this table is input data for the pipeline.

For z in N, t in N and u in W_J, the class [z^{-1}u] restricted to the
boundary stratum at t expands as

    [z^{-1}u]_(t) = sum_{u''} ( sum_{u'} P'_{u'',u'}(v^2) P_{t^{-1}u', z^{-1}u}(v^2) ) [u'']_t

with P the Kazhdan-Lusztig polynomials of W and P' the inverse KL
polynomials of W_J (``restriction_coefficients``).  Normalizing by
v^(-l(z)+l(t)-l(u)) makes the result a nonnegative v^{-1}-expansion away
from the boundary point (``normalized_restriction``).

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

and ``conjecture_report`` checks, over all 64 pairs (t, z):

  1. the alternating combination has the displayed shape with zero S-part
     and X in Z[v^-1];
  2. the 4x4 block transition matrix is nondegenerate whenever t <= z;
  3. X = ε(z) ε(t) p(t, z), where p is the unequal-parameter canonical
     basis coefficient of the weighted dihedral Hecke algebra of N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .coxeter import CoxeterGroup, Element, coxeter_group
from .hecke import (
    CanonicalBasis,
    HeckeAlgebra,
    KLTable,
    WeightFunction,
    canonical_basis,
    inverse_kl,
    kl_table,
)
from .laurent import Laurent, ONE, ZERO, add_into, v_power

SYMBOLS = ("1", "rho", "sigma", "sigma'", "theta", "S")
NONUNIT = ("rho", "sigma", "sigma'", "theta", "S")
BLOCK = ("rho", "sigma", "sigma'", "theta")
IOTA = {"rho": 1, "sigma": -1, "sigma'": -1, "theta": 1}
GLYPH = {"1": "1", "rho": "ρ", "sigma": "σ", "sigma'": "σ'", "theta": "θ", "S": "S"}

# weights of the two dihedral atoms of the twisted normalizer
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


class CSVector:
    """A Z[v,v^-1]-combination of the six character-sheaf symbols."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, Laurent] | None = None):
        cleaned = {}
        if coeffs:
            for sym, c in coeffs.items():
                if sym not in SYMBOLS:
                    raise ValueError(f"unknown symbol {sym!r}")
                if c:
                    cleaned[sym] = c
        self.coeffs = cleaned

    def coeff(self, sym: str) -> Laurent:
        return self.coeffs.get(sym, ZERO)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSVector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "CSVector") -> "CSVector":
        return CSVector(add_into(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other: "CSVector") -> "CSVector":
        return CSVector(add_into(dict(self.coeffs), other.coeffs.items(), -1))

    def scale(self, c: Laurent | int) -> "CSVector":
        return CSVector({sym: c * x for sym, x in self.coeffs.items()})

    def nonunit(self) -> dict[str, Laurent]:
        """The coefficients away from the unit symbol."""
        return {sym: c for sym, c in self.coeffs.items() if sym != "1"}

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for sym in SYMBOLS:
            c = self.coeffs.get(sym)
            if c is None:
                continue
            if c == ONE and sym != "1":
                chunks.append(GLYPH[sym])
            elif sym == "1":
                chunks.append(f"({c.text()})")
            else:
                chunks.append(f"({c.text()}){GLYPH[sym]}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"CSVector({self.text()})"


def _pol(pairs: Mapping[int, int]) -> Laurent:
    return Laurent(pairs)


# the class [u] of each W_J piece closure in the character-sheaf basis
# (keyed by the reduced word of u); input data for the whole pipeline
CS_TABLE_BY_WORD: dict[str, CSVector] = {
    "": CSVector({"1": ONE, "rho": _pol({0: 2}), "sigma": ONE, "sigma'": ONE,
                  "S": ONE}),
    "1": CSVector({"1": _pol({0: 1, 2: 1}), "rho": _pol({0: 1, 2: 1}),
                   "sigma": _pol({0: 1, 2: 1})}),
    "2": CSVector({"1": _pol({0: 1, 2: 1}), "rho": _pol({0: 1, 2: 1}),
                   "sigma'": _pol({0: 1, 2: 1})}),
    "12": CSVector({"1": _pol({0: 1, 2: 2, 4: 1}), "rho": _pol({2: 1}),
                    "sigma": _pol({2: 1}), "sigma'": _pol({2: 1}),
                    "theta": _pol({2: 1})}),
    "21": CSVector({"1": _pol({0: 1, 2: 2, 4: 1}), "rho": _pol({2: 1}),
                    "sigma": _pol({2: 1}), "sigma'": _pol({2: 1}),
                    "theta": _pol({2: 1})}),
    "121": CSVector({"1": _pol({0: 1, 2: 1, 4: 1, 6: 1}),
                     "sigma'": _pol({2: 1, 4: 1}), "theta": _pol({2: 1, 4: 1})}),
    "212": CSVector({"1": _pol({0: 1, 2: 1, 4: 1, 6: 1}),
                     "sigma": _pol({2: 1, 4: 1}), "theta": _pol({2: 1, 4: 1})}),
    "1212": CSVector({"1": _pol({0: 1, 2: 2, 4: 2, 6: 2, 8: 1})}),
}


@dataclass
class B4Context:
    """Everything the pipeline needs, built once: the group, its KL data,
    the inverse KL data of W_J, the twisted normalizer with its dihedral
    mirror, weights, signs, and canonical basis coefficients."""

    group: CoxeterGroup
    J: frozenset
    WJ: tuple[Element, ...]
    kl: KLTable
    ikl: dict[tuple[Element, Element], Laurent]
    N: tuple[Element, ...]                 # normalizer, display order
    name_of: dict[Element, str]
    by_name: dict[str, Element]
    dihedral_word: dict[Element, str]      # words in the atoms e, f
    mirror: CoxeterGroup                   # abstract dihedral copy
    to_mirror: dict[Element, Element]
    pbasis: CanonicalBasis
    weight_L: dict[Element, int]
    eps: dict[Element, int]
    cs_table: dict[Element, CSVector]
    probes: dict[str, Element]
    # (t, z, u) -> the restriction_coefficients expansion, kept once computed
    _expansions: dict[tuple[Element, Element, Element], dict[Element, Laurent]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def n_leq(self, t: Element, z: Element) -> bool:
        """t <= z inside the dihedral normalizer (its own Bruhat order,
        not the closure order of the ambient group)."""
        return self.mirror.bruhat_leq(self.to_mirror[t], self.to_mirror[z])

    def p(self, t: Element, z: Element) -> Laurent:
        """Canonical basis coefficient of the weighted dihedral algebra."""
        return self.pbasis.p(self.to_mirror[t], self.to_mirror[z])

    def pairs(self) -> list[tuple[Element, Element]]:
        return [(t, z) for z in self.N for t in self.N]


def build_context(kl: KLTable | None = None) -> B4Context:
    from .pieces import twisted_normalizer

    if kl is None:
        group = coxeter_group("B4")
        kl = kl_table(group)
    else:
        if kl.group.type_tag != "B4":
            raise ValueError("context needs a KL table of the rank-4 group")
        group = kl.group
    J = frozenset({1, 2})
    WJ = group.parabolic_elements(J)
    ikl = inverse_kl(kl, WJ)

    delta = group.automorphism()
    N_raw = twisted_normalizer(group, J, delta)
    if len(N_raw) != 8:
        raise AssertionError("twisted normalizer is not of order 8")
    by_len = {group.length(z): z for z in N_raw}
    e, f = by_len[1], by_len[5]
    words = ("", "e", "f", "fe", "ef", "efe", "fef", "efef")
    atoms = {"e": e, "f": f}
    name_of: dict[Element, str] = {}
    by_name: dict[str, Element] = {}
    dihedral_word: dict[Element, str] = {}
    order: list[Element] = []
    for wd in words:
        z = group.product(*(atoms[ch] for ch in wd)) if wd else group.identity()
        nm = wd if wd else "1"
        name_of[z] = nm
        by_name[nm] = z
        dihedral_word[z] = wd
        order.append(z)
    if set(order) != set(N_raw) or len(set(order)) != 8:
        raise AssertionError("normalizer is not dihedral on the two atoms")

    mirror = coxeter_group("B2")
    letter = {"e": 1, "f": 2}
    to_mirror = {
        z: mirror.from_word(letter[ch] for ch in dihedral_word[z]) for z in order
    }
    weight = WeightFunction(mirror, {1: ATOM_WEIGHTS[0], 2: ATOM_WEIGHTS[1]})
    pbasis = canonical_basis(HeckeAlgebra(mirror, "weighted", weight))
    weight_L = {z: weight.of(to_mirror[z]) for z in order}
    eps = {z: (-1) ** dihedral_word[z].count("f") for z in order}

    cs_table = {group.parse_word(wd): vec for wd, vec in CS_TABLE_BY_WORD.items()}
    if set(cs_table) != set(WJ):
        raise AssertionError("character sheaf table does not cover W_J")
    probes = {wd: group.parse_word(wd) for wd in PROBE_WORDS}

    return B4Context(
        group=group, J=J, WJ=WJ, kl=kl, ikl=ikl, N=tuple(order),
        name_of=name_of, by_name=by_name, dihedral_word=dihedral_word,
        mirror=mirror, to_mirror=to_mirror, pbasis=pbasis,
        weight_L=weight_L, eps=eps, cs_table=cs_table, probes=probes,
    )


# -- restriction ------------------------------------------------------------


def restriction_coefficients(ctx: B4Context, t: Element, z: Element,
                             u: Element) -> dict[Element, Laurent]:
    """Expansion coefficients of [z^{-1}u] restricted to the stratum at t,
    over the classes [u'']_t for u'' in W_J.

    The context keeps each (t, z, u) expansion once it is computed, so the
    report and the checks expand each triple once; every call returns a
    fresh dict."""
    kept = ctx._expansions.get((t, z, u))
    if kept is not None:
        return dict(kept)
    group = ctx.group
    zu = group.product(group.inverse(z), u)
    t_inv = group.inverse(t)
    p_of = {u1: ctx.kl.get(group._product(t_inv, u1), zu) for u1 in ctx.WJ}  # W_J from the group
    out: dict[Element, Laurent] = {}
    for u2 in ctx.WJ:
        acc = ZERO
        for u1 in ctx.WJ:
            pp = ctx.ikl.get((u2, u1))
            if pp is None or not p_of[u1]:
                continue
            acc = acc + pp * p_of[u1]
        if acc:
            out[u2] = acc
    ctx._expansions[(t, z, u)] = out
    return dict(out)


def piece_restriction(ctx: B4Context, t: Element, z: Element, u: Element) -> CSVector:
    """[z^{-1}u]_(t) pushed through the character-sheaf table."""
    out: dict[str, Laurent] = {}
    for u2, c in restriction_coefficients(ctx, t, z, u).items():
        add_into(out, ctx.cs_table[u2].coeffs.items(), c)
    return CSVector(out)


def normalized_restriction(ctx: B4Context, t: Element, z: Element,
                           u: Element) -> CSVector:
    """v^(-l(z)+l(t)-l(u)) [z^{-1}u]_(t)."""
    group = ctx.group
    shift = -group.length(z) + group.length(t) - group.length(u)
    return piece_restriction(ctx, t, z, u).scale(v_power(shift))


def boundary_dims(ctx: B4Context, z: Element, u: Element) -> dict[str, Laurent]:
    """The non-unit coefficients of the boundary restriction (t = z),
    each required to be bar-symmetric with nonnegative coefficients."""
    vec = normalized_restriction(ctx, z, z, u)
    out = {}
    for sym, c in vec.nonunit().items():
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


def _det4(m: list[list[Laurent]]) -> Laurent:
    acc = ZERO
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ONE
        for i in range(4):
            term = term * m[i][perm[i]]
        acc = acc + (term if sign == 1 else -term)
    return acc


def solve_chi(ctx: B4Context, t: Element, z: Element) -> ChiSolution:
    """Solve the four probe equations for chi_t(C_z), C in the block.

    Probing the normalized restriction identity with u in {121, 212, 2, 1}
    gives, coordinate by coordinate, the linear system

        chi[theta] + chi[sigma'] = r_121,   chi[theta] + chi[sigma] = r_212,
        chi[rho]   + chi[sigma'] = r_2,     chi[rho]   + chi[sigma] = r_1,

    after dividing by the common boundary coefficient; consistency requires
    r_1 + r_121 = r_2 + r_212, and the kernel direction (+1,-1,-1,+1) is
    fixed as documented on ChiSolution."""
    rhs: dict[str, CSVector] = {}
    div: dict[str, Laurent] = {}
    for wd in PROBE_WORDS:
        u = ctx.probes[wd]
        rhs[wd] = normalized_restriction(ctx, t, z, u)
        nd = boundary_dims(ctx, z, u)
        pair = PROBE_SUPPORT[wd]
        c0 = nd.get(pair[0], ZERO)
        if not c0 or nd.get(pair[1], ZERO) != c0:
            raise AssertionError("boundary data lost its two-point support")
        for sym in NONUNIT:
            if sym not in pair and nd.get(sym):
                raise AssertionError("boundary data lost its two-point support")
        div[wd] = c0

    chi: dict[str, dict[str, Laurent]] = {C: {} for C in BLOCK}
    witnesses: list[tuple[str, int, int, int]] = []
    unique = True
    for coord in NONUNIT:
        r = {wd: rhs[wd].coeff(coord).exact_div(div[wd]) for wd in PROBE_WORDS}
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
                lo = max(-x0["rho"].coeff(e), -x0["theta"].coeff(e))
                hi = min(x0["sigma"].coeff(e), x0["sigma'"].coeff(e))
                if lo > hi:
                    raise AssertionError(
                        f"no nonnegative solution at coordinate {coord}, exponent {e}"
                    )
                if lo < hi:
                    unique = False
                    witnesses.append((coord, e, lo, hi))
                if lo:
                    kterms[e] = lo
            k = Laurent(kterms)
        sol = {
            "rho": x0["rho"] + k,
            "sigma": x0["sigma"] - k,
            "sigma'": x0["sigma'"] - k,
            "theta": x0["theta"] + k,
        }
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
    return ChiSolution(t, z, chi, unique, tuple(witnesses))


def cuspidal_scalar(sol: ChiSolution) -> Laurent:
    """The scalar X with sum_C iota(C) chi(C) = X · sum_C iota(C) C away
    from the unit symbol; raises when the combination has a different shape.
    """
    comb: dict[str, Laurent] = {}
    for coord in NONUNIT:
        acc = ZERO
        for C in BLOCK:
            term = sol.chi_coeff(C, coord)
            acc = acc + (term if IOTA[C] == 1 else -term)
        comb[coord] = acc
    if comb["S"]:
        raise AssertionError("alternating combination has a cuspidal component")
    X = comb["rho"]
    for C in BLOCK:
        if comb[C] != (X if IOTA[C] == 1 else -X):
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
        """X = ε(z)ε(t) p(t,z) over all 64 pairs."""
        return all(r.canonical_match for r in self.pairs)

    @property
    def all_unique(self) -> bool:
        return all(r.unique for r in self.pairs)

    @property
    def all_pass(self) -> bool:
        return (self.all_unique and self.cuspidal_pattern
                and self.block_nondegenerate and self.canonical_basis_match)


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
        "type": "B4",
        "J": sorted(ctx.J),
        "atom_weights": {"e": ATOM_WEIGHTS[0], "f": ATOM_WEIGHTS[1]},
        "weights": {ctx.name_of[z]: ctx.weight_L[z] for z in ctx.N},
        "signs": {ctx.name_of[z]: ctx.eps[z] for z in ctx.N},
        "pairs": pairs,
        "checks": {
            "all_unique": report.all_unique,
            "cuspidal_pattern": report.cuspidal_pattern,
            "block_nondegenerate": report.block_nondegenerate,
            "canonical_basis_match": report.canonical_basis_match,
        },
        "all_pass": report.all_pass,
    }


def report_text(ctx: B4Context, report: ConjectureReport) -> str:
    lines = [
        "pair results (t, z): scalar X, canonical p(t,z), sign, verdict",
        "-" * 72,
    ]
    for r in report.pairs:
        verdict = "ok" if (r.pattern_ok and r.canonical_match and r.unique) else "FAIL"
        lines.append(
            f"t={r.t_name:<5} z={r.z_name:<5} eps={r.eps:+d}  "
            f"X = {r.X.text():<24} p = {r.p.text():<24} {verdict}"
        )
    lines.append("-" * 72)
    lines.append(f"solutions unique:          {report.all_unique}")
    lines.append(f"cuspidal pattern:          {report.cuspidal_pattern}")
    lines.append(f"block nondegenerate:       {report.block_nondegenerate}")
    lines.append(f"canonical basis match:     {report.canonical_basis_match}")
    lines.append(f"all checks pass:           {report.all_pass}")
    return "\n".join(lines) + "\n"
