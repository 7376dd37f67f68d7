"""End-to-end checks for the worked rank-4 example, with frozen reference data.

This module packages the expected outputs of the whole pipeline on the
Coxeter group B4 with parabolic set J = {1,2}: the double-coset
representatives, the twisted normalizer N with its weight function and
sign character, the restriction expansions of the induced basis elements
through every pair (t, z) in N x N, the transition patterns chi, the
cuspidal scalars X, and the unequal-parameter canonical-basis values p.
Everything is recorded as explicit integer data, so the checks compare
exact Laurent polynomials with zero tolerance.

The 64 pairs (t, z) fall into seven behaviour classes, named here by
what the restriction does to the four non-unit character classes
(rho, sigma, sigma', theta):

==============  ====================================================
family          behaviour (zeta = v^{-l(z)+l(t)})
==============  ====================================================
flat            each class survives at level zeta, identity pattern
step            classes drop one step (zeta v^2), rho<->sigma and
                sigma'<->theta swapped
step-wide       as ``step`` but widened by (1 + v^2)
deep            classes drop two steps (zeta v^4), identity pattern
deep-defect     two steps with a defect term, X = zeta (v^4 - v^6)
step-defect     one step with a defect term, X = -zeta (v^2 - v^4)
null            everything restricts to a multiple of the unit class
==============  ====================================================

``run_example`` executes every check and returns a structured outcome;
the command-line driver turns that into an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import Laurent, ZERO, ONE, add_into, v_power
from .charsheaf_b4 import (
    B4Context,
    BLOCK,
    ConjectureReport,
    build_context,
    conjecture_report,
    piece_restriction,
    restriction_coefficients,
    solve_chi,
)
from .pieces import piece_dimension


def _pol(*terms: tuple[int, int]) -> Laurent:
    """Laurent polynomial from explicit (coefficient, exponent) pairs."""
    return Laurent(add_into({}, ((e, c) for c, e in terms)))


# --------------------------------------------------------------------------
# frozen group-level facts
# --------------------------------------------------------------------------

GROUP_ORDER = 384

#: words of the minimal double-coset representatives for (W_J, W_J),
#: sorted by (length, word)
DOUBLE_COSET_REP_WORDS = (
    "", "3", "4", "34", "43", "343", "3243", "32123", "321234", "321243",
    "432123", "3212343", "3432123", "4321234", "34321234", "32123432123",
    "321234321234",
)

#: the twisted normalizer N = {w : w J w^{-1} = J}, name -> word
NORMALIZER_WORDS = {
    "1": "",
    "e": "4",
    "f": "32123",
    "fe": "321234",
    "ef": "432123",
    "efe": "4321234",
    "fef": "32123432123",
    "efef": "321234321234",
}

#: weight function on N (lengths for the unequal-parameter dihedral Hecke
#: algebra on N; atoms e and f weigh 1 and 3)
NORMALIZER_WEIGHTS = {
    "1": 0, "e": 1, "f": 3, "fe": 4, "ef": 4, "efe": 5, "fef": 7, "efef": 8,
}

#: sign character on N: -1 raised to the number of f letters
NORMALIZER_SIGNS = {
    "1": 1, "e": 1, "f": -1, "fe": -1, "ef": -1, "efe": -1,
    "fef": 1, "efef": 1,
}

#: variety dimensions attached to the first two piece indices
PIECE_DIMENSIONS = {"": 24, "4": 25}

#: probe elements of W_J used throughout (all of W_J except the unit and
#: the longest element)
PROBE_WORDS = ("121", "212", "12", "21", "2", "1")

# --------------------------------------------------------------------------
# frozen behaviour classes of the 64 pairs (t, z)
# --------------------------------------------------------------------------

FAMILY_PAIRS = {
    "flat": (
        ("1", "1"), ("e", "e"), ("f", "f"), ("fe", "fe"), ("ef", "ef"),
        ("efe", "efe"), ("fef", "fef"), ("efef", "efef"),
        ("1", "e"), ("f", "ef"), ("f", "fe"), ("f", "efe"),
        ("ef", "efe"), ("fe", "efe"), ("fef", "efef"),
    ),
    "step": (
        ("1", "f"), ("1", "ef"), ("e", "ef"), ("1", "fe"), ("e", "fe"),
        ("f", "efef"), ("ef", "efef"), ("fe", "efef"), ("efe", "efef"),
        ("ef", "fef"), ("fe", "fef"),
    ),
    "step-wide": (("1", "efe"), ("e", "efe")),
    "deep": (("1", "efef"), ("e", "efef"), ("e", "fef")),
    "deep-defect": (("1", "fef"),),
    "step-defect": (("f", "fef"),),
}

#: families whose recorded expansions omit the coordinate on the longest
#: element of W_J; there the checker derives that coordinate directly
#: from the one surviving term of the inverse-expansion sum (see
#: ``check_restrictions``)
IMPLICIT_TOP_FAMILIES = ("deep", "deep-defect", "step-defect")

# --------------------------------------------------------------------------
# frozen restriction expansions, one table per family
#
# EXACT_TABLES[family][u-word] is a tuple of (polynomial, target-word)
# pairs giving the expansion of the restricted element in the basis
# indexed by W_J words.
# --------------------------------------------------------------------------

_V2 = _pol((1, 2))
_V4 = _pol((1, 4))
_V6 = _pol((1, 6))
_V8 = _pol((1, 8))
_ONE_V2 = _pol((1, 0), (1, 2))      # 1 + v^2
_V2_V4 = _pol((1, 2), (1, 4))       # v^2 + v^4
_V4_V6 = _pol((1, 4), (1, 6))
_V6_V8 = _pol((1, 6), (1, 8))
_V8_V10 = _pol((1, 8), (1, 10))

EXACT_TABLES = {
    "flat": {u: ((ONE, u),) for u in PROBE_WORDS},
    "step": {
        "121": ((_V2, "121"), (ONE, "1212")),
        "212": ((_V4, "2"), (ONE, "1212")),
        "12": ((_V2, "12"), (ONE, "1212")),
        "21": ((_V2, "21"), (ONE, "1212")),
        "2": ((ONE, "212"),),
        "1": ((_V2, "1"), (ONE, "1212")),
    },
    "step-wide": {
        "121": ((_V2_V4, "121"), (_ONE_V2, "1212")),
        "212": ((_V4_V6, "2"), (_ONE_V2, "1212")),
        "12": ((_V2_V4, "12"), (_ONE_V2, "1212")),
        "21": ((_V2_V4, "21"), (_ONE_V2, "1212")),
        "2": ((_ONE_V2, "212"),),
        "1": ((_V2_V4, "1"), (_ONE_V2, "1212")),
    },
    "deep": {u: ((_V4, u),) for u in PROBE_WORDS},
    "deep-defect": {
        "121": ((_V8, "1"), (_V4, "121")),
        "212": ((_V4_V6, "212"),),
        "12": ((_V4_V6, "12"),),
        "21": ((_V4_V6, "21"),),
        "2": ((_V4_V6, "2"),),
        "1": ((_V4, "121"), (_V4, "1")),
    },
    "step-defect": {
        "121": ((_V6, "1"), (_V2, "121")),
        "212": ((_V4_V6, "2"),),
        "12": ((_V2_V4, "12"),),
        "21": ((_V2_V4, "21"),),
        "2": ((_ONE_V2, "212"),),
        "1": ((_V2, "121"), (_V2, "1")),
    },
}

# --------------------------------------------------------------------------
# the same expansions pushed into the character-class basis and reduced
# modulo the unit class ("~" form); SIM_TABLES[family][u-word] is a tuple
# of (polynomial, symbols) pairs
# --------------------------------------------------------------------------

_TS = ("theta", "sigma'")
_TSG = ("theta", "sigma")
_RS = ("rho", "sigma")
_RSG = ("rho", "sigma'")
_ALL4 = ("rho", "sigma", "sigma'", "theta")

SIM_TABLES = {
    "flat": {
        "121": ((_V2_V4, _TS),), "212": ((_V2_V4, _TSG),),
        "12": ((_V2, _ALL4),), "21": ((_V2, _ALL4),),
        "2": ((_ONE_V2, _RSG),), "1": ((_ONE_V2, _RS),),
    },
    "step": {
        "121": ((_V4_V6, _TS),), "212": ((_V4_V6, _RSG),),
        "12": ((_V4, _ALL4),), "21": ((_V4, _ALL4),),
        "2": ((_V2_V4, _TSG),), "1": ((_V2_V4, _RS),),
    },
    "step-wide": {
        "121": ((_V2_V4 * _V2_V4, _TS),), "212": ((_V4_V6 * _ONE_V2, _RSG),),
        "12": ((_V4_V6, _ALL4),), "21": ((_V4_V6, _ALL4),),
        "2": ((_ONE_V2 * _V2_V4, _TSG),), "1": ((_ONE_V2 * _V2_V4, _RS),),
    },
    "deep": {
        "121": ((_V6_V8, _TS),), "212": ((_V6_V8, _TSG),),
        "12": ((_V6, _ALL4),), "21": ((_V6, _ALL4),),
        "2": ((_V4_V6, _RSG),), "1": ((_V4_V6, _RS),),
    },
    "deep-defect": {
        "121": ((_V8_V10, _RS), (_V6_V8, _TS)),
        "212": ((_V4_V6 * _V2_V4, _TSG),),
        "12": ((_V6_V8, _ALL4),), "21": ((_V6_V8, _ALL4),),
        "2": ((_V4_V6 * _ONE_V2, _RSG),),
        "1": ((_V6_V8, _TS), (_V4_V6, _RS)),
    },
    "step-defect": {
        "121": ((_V6_V8, _RS), (_V4_V6, _TS)),
        "212": ((_V4_V6 * _ONE_V2, _RSG),),
        "12": ((_V4_V6, _ALL4),), "21": ((_V4_V6, _ALL4),),
        "2": ((_ONE_V2 * _V2_V4, _TSG),),
        "1": ((_V4_V6, _TS), (_V2_V4, _RS)),
    },
}

# --------------------------------------------------------------------------
# frozen transition patterns: CHI_PATTERNS[family][source] is a tuple of
# (polynomial, target) pairs, relative to the prefactor zeta
# --------------------------------------------------------------------------

_IDENTITY = {"rho": "rho", "sigma": "sigma", "sigma'": "sigma'",
             "theta": "theta"}
_SWAP = {"rho": "sigma", "sigma": "rho", "sigma'": "theta",
         "theta": "sigma'"}


def _pattern(mapping, scale):
    return {src: ((scale, dst),) for src, dst in mapping.items()}


CHI_PATTERNS = {
    "flat": _pattern(_IDENTITY, ONE),
    "step": _pattern(_SWAP, _V2),
    "step-wide": _pattern(_SWAP, _V2_V4),
    "deep": _pattern(_IDENTITY, _V4),
    "deep-defect": {
        "rho": ((_V4, "rho"), (_V6, "sigma'")),
        "sigma": ((_V4, "sigma"), (_V6, "theta")),
        "sigma'": ((_V4, "sigma'"), (_V6, "rho")),
        "theta": ((_V4, "theta"), (_V6, "sigma")),
    },
    "step-defect": {
        "rho": ((_V2, "sigma"), (_V4, "theta")),
        "sigma": ((_V2, "rho"), (_V4, "sigma'")),
        "sigma'": ((_V2, "theta"), (_V4, "sigma")),
        "theta": ((_V2, "sigma'"), (_V4, "rho")),
    },
    "null": {src: () for src in _IDENTITY},
}

#: cuspidal scalar X relative to zeta = v^{-l(z)+l(t)}
X_RELATIVE = {
    "flat": ONE,
    "step": -_V2,
    "step-wide": -_V2_V4,
    "deep": _V4,
    "deep-defect": _pol((1, 4), (-1, 6)),
    "step-defect": -_pol((1, 2), (-1, 4)),
    "null": ZERO,
}

#: pairs where the canonical-basis value p(t, z) picks up a non-monomial
#: factor: (t-name, z-name) -> factor
P_EXCEPTIONAL = {
    ("1", "efe"): _ONE_V2,
    ("e", "efe"): _ONE_V2,
    ("1", "fef"): _pol((1, 0), (-1, 2)),
    ("f", "fef"): _pol((1, 0), (-1, 2)),
}


def family_of(t_name: str, z_name: str) -> str:
    for fam, pairs in FAMILY_PAIRS.items():
        if (t_name, z_name) in pairs:
            return fam
    return "null"


def comparable_pairs() -> tuple[tuple[str, str], ...]:
    """All (t, z) name pairs with t below z in the normalizer order."""
    out = []
    for pairs in FAMILY_PAIRS.values():
        out.extend(pairs)
    return tuple(out)


def expected_p(t_name: str, z_name: str) -> Laurent:
    """Frozen canonical-basis value p(t, z) on the weighted normalizer."""
    if family_of(t_name, z_name) == "null":
        return ZERO
    shift = v_power(NORMALIZER_WEIGHTS[t_name] - NORMALIZER_WEIGHTS[z_name])
    return shift * P_EXCEPTIONAL.get((t_name, z_name), ONE)


def expected_X(t_name: str, z_name: str, t_len: int, z_len: int) -> Laurent:
    zeta = v_power(t_len - z_len)
    return zeta * X_RELATIVE[family_of(t_name, z_name)]


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    summary: str
    failures: tuple[str, ...] = ()


@dataclass
class ExampleOutcome:
    context: B4Context
    checks: tuple[CheckResult, ...]
    report: ConjectureReport

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _result(name: str, failures: list[str], summary: str) -> CheckResult:
    return CheckResult(name=name, passed=not failures, summary=summary,
                       failures=tuple(failures[:20]))


def check_group_facts(ctx: B4Context) -> CheckResult:
    group = ctx.group
    failures: list[str] = []
    if len(group.elements()) != GROUP_ORDER:
        failures.append(f"group order {len(group.elements())} != {GROUP_ORDER}")
    reps = group.double_coset_reps(ctx.J, ctx.J)
    rep_words = tuple(group.word_str(w) if group.length(w) else ""
                      for w in reps)
    if rep_words != DOUBLE_COSET_REP_WORDS:
        failures.append(f"double coset reps {rep_words}")
    n_words = tuple(group.word_str(w) if group.length(w) else ""
                    for w in ctx.N)
    want = tuple(NORMALIZER_WORDS[n] for n in
                 ("1", "e", "f", "fe", "ef", "efe", "fef", "efef"))
    if tuple(sorted(n_words, key=lambda s: (len(s), s))) != \
            tuple(sorted(want, key=lambda s: (len(s), s))):
        failures.append(f"normalizer words {n_words}")
    for name, wt in NORMALIZER_WEIGHTS.items():
        if ctx.weight_L[ctx.by_name[name]] != wt:
            failures.append(f"weight of {name} != {wt}")
    for name, sg in NORMALIZER_SIGNS.items():
        if ctx.eps[ctx.by_name[name]] != sg:
            failures.append(f"sign of {name} != {sg}")
    for word, dim in PIECE_DIMENSIONS.items():
        if piece_dimension(group, ctx.J, group.parse_word(word)) != dim:
            failures.append(f"dimension of piece {word or '1'} != {dim}")
    return _result("group facts", failures,
                   f"order {GROUP_ORDER}, {len(DOUBLE_COSET_REP_WORDS)} "
                   f"double-coset reps, normalizer of size {len(ctx.N)}")


def check_restrictions(ctx: B4Context) -> CheckResult:
    """All 384 restriction identities, with zero tolerance.

    For each recorded family the expansion must match the frozen table
    exactly; families listed in ``IMPLICIT_TOP_FAMILIES`` omit the
    coordinate on the longest element of W_J, which is pinned instead by
    the one term of the defining sum that can reach it, namely the
    classical polynomial P at (t^{-1} w0(J), z^{-1} u).  The reduced
    ("~") forms must match on the non-unit character classes for every
    pair, and pairs outside all families must vanish identically.
    """
    group = ctx.group
    failures: list[str] = []
    top = group.longest_in_parabolic(ctx.J)
    top_word = group.word_str(top)
    named = set()
    n_checked = 0
    for fam, pairs in FAMILY_PAIRS.items():
        for (tn, zn) in pairs:
            named.add((tn, zn))
            t, z = ctx.by_name[tn], ctx.by_name[zn]
            for uw in PROBE_WORDS:
                n_checked += 1
                u = group.parse_word(uw)
                coeffs = restriction_coefficients(ctx, t, z, u)
                got = {group.word_str(x): c for x, c in coeffs.items()
                       if c != ZERO}
                want = add_into({}, ((target, poly) for poly, target
                                     in EXACT_TABLES[fam][uw]))
                if fam in IMPLICIT_TOP_FAMILIES:
                    forced = ctx.kl.get(
                        group.product(group.inverse(t), top),
                        group.product(group.inverse(z), u))
                    if forced != ZERO:
                        want[top_word] = forced
                if got != want:
                    failures.append(f"expansion ({tn},{zn},{uw})")
                    continue
                sim_got = piece_restriction(ctx, t, z, u)
                sim_got.pop("1", None)
                sim_want: dict[str, Laurent] = {}
                for poly, symbols in SIM_TABLES[fam][uw]:
                    add_into(sim_want, ((s, poly) for s in symbols))
                if sim_got != sim_want:
                    failures.append(f"reduced form ({tn},{zn},{uw})")
    for t in ctx.N:
        for z in ctx.N:
            tn, zn = ctx.name_of[t], ctx.name_of[z]
            if (tn, zn) in named:
                continue
            for uw in PROBE_WORDS:
                n_checked += 1
                coeffs = restriction_coefficients(
                    ctx, t, z, group.parse_word(uw))
                if any(c != ZERO for c in coeffs.values()):
                    failures.append(f"nonzero null pair ({tn},{zn},{uw})")
    return _result("restriction tables", failures,
                   f"{n_checked} identities over {len(named)} recorded "
                   f"pairs + {64 - len(named)} vanishing pairs")


def check_chi(ctx: B4Context) -> CheckResult:
    group = ctx.group
    failures: list[str] = []
    n_checked = 0
    for t in ctx.N:
        for z in ctx.N:
            tn, zn = ctx.name_of[t], ctx.name_of[z]
            sol = solve_chi(ctx, t, z)
            if not sol.unique:
                failures.append(f"ambiguous solution ({tn},{zn})")
                continue
            zeta = v_power(group.length(t) - group.length(z))
            pattern = CHI_PATTERNS[family_of(tn, zn)]
            for src in BLOCK:
                want = add_into({}, ((dst, poly) for poly, dst in pattern[src]),
                                zeta)
                for dst in BLOCK:
                    n_checked += 1
                    if sol.chi_coeff(src, dst) != want.get(dst, ZERO):
                        failures.append(f"chi ({tn},{zn}) {src}->{dst}")
    return _result("transition patterns", failures,
                   f"{n_checked} coordinates over 64 pairs, all unique")


def check_conjectures(ctx: B4Context,
                      report: ConjectureReport) -> CheckResult:
    group = ctx.group
    failures: list[str] = []
    for r in report.pairs:
        t, z = ctx.by_name[r.t_name], ctx.by_name[r.z_name]
        want_X = expected_X(r.t_name, r.z_name,
                            group.length(t), group.length(z))
        if r.X != want_X:
            failures.append(f"X ({r.t_name},{r.z_name})")
        if r.p != expected_p(r.t_name, r.z_name):
            failures.append(f"p ({r.t_name},{r.z_name})")
    if not report.cuspidal_pattern:
        failures.append("cuspidal pattern violated")
    if not report.block_nondegenerate:
        failures.append("degenerate block matrix")
    if not report.canonical_basis_match:
        failures.append("X != eps(z) eps(t) p(t,z) somewhere")
    if not report.all_unique:
        failures.append("non-unique solution")
    comp = {(r.t_name, r.z_name) for r in report.pairs if r.comparable}
    if comp != set(comparable_pairs()):
        failures.append("comparability relation differs")
    return _result("scalars and conjectures", failures,
                   "X and p frozen values, three conjectures, 33 "
                   "comparable pairs")


def run_example() -> ExampleOutcome:
    """Build the context and run every frozen check."""
    ctx = build_context()
    report = conjecture_report(ctx)
    checks = (
        check_group_facts(ctx),
        check_restrictions(ctx),
        check_chi(ctx),
        check_conjectures(ctx, report),
    )
    return ExampleOutcome(context=ctx, checks=checks, report=report)
