"""The rank-4 pipeline: restrictions, transition solutions, scalar shapes,
and the bundled example checks, compared against independent records."""

import dataclasses
import itertools
import random

import pytest

from heckepieces import b4_example, charsheaf_b4
from heckepieces.b4_example import (
    FAMILY_PAIRS,
    check_chi,
    check_conjectures,
    check_group_facts,
    check_restrictions,
    family_of,
    run_example,
)
from heckepieces.charsheaf_b4 import (
    ATOM_WEIGHTS,
    BLOCK,
    NONUNIT,
    PROBE_SUPPORT,
    PROBE_WORDS,
    ChiSolution,
    _det4,
    _normalizer_mirror,
    _probe_divisors,
    boundary_dims,
    build_context,
    conjecture_report,
    cuspidal_scalar,
    normalized_restriction,
    report_as_dict,
    restriction_coefficients,
    solve_chi,
)
from heckepieces.coxeter import coxeter_group
from heckepieces.hecke import KLTable, WeightFunction, inverse_kl
from heckepieces.laurent import Laurent, ONE, ZERO, v_power
from heckepieces.pieces import twisted_normalizer

from expected_b4 import (
    CS_ROWS,
    NORMALIZER_SIGNS,
    NORMALIZER_WEIGHTS,
    NORMALIZER_WORDS,
    SPOT_CHI,
    SPOT_EXPANSIONS,
    X_RELATIVE,
)


def poly(pairs):
    out = ZERO
    for c, e in pairs:
        out = out + Laurent({e: c})
    return out


# -- context ------------------------------------------------------------------

def test_context_sanity(ctx):
    g = ctx.group
    assert len(g.elements()) == 384
    assert len(ctx.WJ) == 8
    assert len(ctx.N) == 8
    for name, word in NORMALIZER_WORDS.items():
        z = ctx.by_name[name]
        assert g.word_str(z) == (word if word else "∅")
        assert ctx.weight_L[z] == NORMALIZER_WEIGHTS[name]
        assert ctx.eps[z] == NORMALIZER_SIGNS[name]
    # the normalizer order embeds the dihedral mirror faithfully
    for z in ctx.N:
        word = "" if ctx.name_of[z] == "1" else ctx.name_of[z]
        assert ctx.mirror.length(ctx.to_mirror[z]) == len(word)
    assert ctx.n_leq(ctx.by_name["e"], ctx.by_name["efe"])
    assert not ctx.n_leq(ctx.by_name["efe"], ctx.by_name["e"])
    assert not ctx.n_leq(ctx.by_name["e"], ctx.by_name["f"])


def reference_normalizer_names(group):
    """N spelled the way ``build_context`` spelled it before deriving it:
    atoms picked by lengths 1 and 5, eight fixed words in them, and B2 as
    the mirror.  Returns (order, name_of, by_name, to_mirror, weight_L,
    eps)."""
    N = twisted_normalizer(group, frozenset({1, 2}), group.automorphism())
    by_len = {group.length(z): z for z in N}
    atoms = {"e": by_len[1], "f": by_len[5]}
    mirror = coxeter_group("B2")
    weight = WeightFunction(mirror, {1: ATOM_WEIGHTS[0], 2: ATOM_WEIGHTS[1]})
    order, name_of, by_name, to_mirror, weight_L, eps = [], {}, {}, {}, {}, {}
    for wd in ("", "e", "f", "fe", "ef", "efe", "fef", "efef"):
        z = group.product(*(atoms[ch] for ch in wd)) if wd else group.identity()
        order.append(z)
        name_of[z] = wd or "1"
        by_name[wd or "1"] = z
        to_mirror[z] = mirror.from_word({"e": 1, "f": 2}[ch] for ch in wd)
        weight_L[z] = weight.of(to_mirror[z])
        eps[z] = (-1) ** wd.count("f")
    assert sorted(order) == list(N)
    return order, name_of, by_name, to_mirror, weight_L, eps


def test_derived_normalizer_matches_spelled_reference(b4_kl):
    fresh = build_context(kl=b4_kl)
    order, name_of, by_name, to_mirror, weight_L, eps = \
        reference_normalizer_names(fresh.group)
    assert list(fresh.N) == order
    assert fresh.name_of == name_of
    assert fresh.by_name == by_name
    assert fresh.to_mirror == to_mirror
    assert fresh.weight_L == weight_L
    assert fresh.eps == eps
    assert fresh.mirror.matrix == coxeter_group("B2").matrix


@pytest.mark.parametrize("rank,atom_words,matrix", [
    (3, ["32123"], ((1,),)),
    (4, ["4", "32123"], ((1, 4), (4, 1))),
    (5, ["4", "5", "32123"], ((1, 3, 4), (3, 1, 2), (4, 2, 1))),
])
def test_normalizer_mirror_on_other_ranks(rank, atom_words, matrix):
    """The derivation is not tied to rank 4: on B3 N has one atom, on B5 it
    is of type B3 with |N| = 48 = |mirror|, and the atom words multiply to
    the elements they name."""
    group = coxeter_group(f"B{rank}")
    N, atoms, mirror, to_mirror = _normalizer_mirror(group, frozenset({1, 2}))
    assert N == twisted_normalizer(group, frozenset({1, 2}), group.automorphism())
    assert [group.word_str(a) for a in atoms] == atom_words
    assert mirror.matrix == matrix
    assert len(N) == len(mirror.elements()) == len(to_mirror)
    assert sorted(to_mirror) == list(N)
    for z, x in to_mirror.items():
        assert group.product(0, *(atoms[i - 1] for i in mirror.reduced_word(x))) == z
        assert (mirror.length(x) == 1) == (z in atoms)  # generators are the atoms


def test_cs_table_matches_independent_record(ctx):
    assert len(ctx.cs_table) == 8
    for word, row in CS_ROWS.items():
        vec = ctx.cs_table[ctx.group.parse_word(word)]
        assert vec == {sym: poly(pairs) for sym, pairs in row.items()}


# -- restrictions ---------------------------------------------------------------

def test_restriction_spot_values(ctx):
    g = ctx.group
    for (t_name, z_name, u_word), row in SPOT_EXPANSIONS.items():
        got = restriction_coefficients(
            ctx, ctx.by_name[t_name], ctx.by_name[z_name], g.parse_word(u_word))
        want = {g.parse_word(w): poly(pairs) for w, pairs in row.items()}
        assert got == want, (t_name, z_name, u_word)


def reference_restriction_coefficients(ctx, t, z, u):
    """``restriction_coefficients`` before the context kept its expansions:
    the sum over u' computed afresh on every call."""
    group = ctx.group
    zu = group.product(group.inverse(z), u)
    t_inv = group.inverse(t)
    p_of = {u1: ctx.kl.get(group.product(t_inv, u1), zu) for u1 in ctx.WJ}
    ikl = inverse_kl(ctx.kl, ctx.WJ)
    out = {}
    for u2 in ctx.WJ:
        acc = ZERO
        for u1 in ctx.WJ:
            pp = ikl.get((u2, u1))
            if pp is None or not p_of[u1]:
                continue
            acc = acc + pp * p_of[u1]
        if acc:
            out[u2] = acc
    return out


def test_restriction_matches_reference(b4_kl):
    """All 512 triples (t, z, u), each asked twice: once computed, once kept."""
    fresh = build_context(kl=b4_kl)
    for _ in range(2):
        for t in fresh.N:
            for z in fresh.N:
                for u in fresh.WJ:
                    assert restriction_coefficients(fresh, t, z, u) == \
                        reference_restriction_coefficients(fresh, t, z, u)


def test_kept_restrictions_are_not_shared(ctx):
    """Each call returns its own dict, so a caller's edit cannot reach the
    expansion the context keeps."""
    t, z, u = ctx.by_name["e"], ctx.by_name["efe"], ctx.probes["121"]
    first = restriction_coefficients(ctx, t, z, u)
    want = dict(first)
    first.clear()
    first[0] = ONE
    assert restriction_coefficients(ctx, t, z, u) == want != first


def test_report_and_checks_expand_each_triple_once(b4_kl, monkeypatch):
    """The report and the four checks ask for 1,408 expansions of 384
    distinct (t, z, u).  Each expansion reads 8 polynomials, and
    ``check_restrictions`` reads 30 more on its own, so 384 · 8 + 30 =
    3,102 lookups; expanding on every call made 11,294."""
    fresh = build_context(kl=b4_kl)
    calls = []
    get = KLTable.get
    monkeypatch.setattr(KLTable, "get", lambda self, y, w: calls.append(1) or get(self, y, w))
    report = conjecture_report(fresh)
    checks = (check_group_facts(fresh), check_restrictions(fresh), check_chi(fresh),
              check_conjectures(fresh, report))
    assert all(check.passed for check in checks)
    assert len(calls) <= 3102


def test_boundary_restrictions_are_dimensions(ctx):
    """At t = z every non-unit coefficient must be a bar-symmetric
    polynomial with nonnegative coefficients (boundary_dims raises if not);
    the unit coefficient is left unconstrained."""
    for z in ctx.N:
        for u in ctx.WJ:
            dims = boundary_dims(ctx, z, u)
            for c in dims.values():
                assert c.is_bar_symmetric() and c.has_nonneg_coeffs()


def test_offboundary_restrictions_are_nonnegative(ctx):
    """Away from the boundary (t < z) the normalized restriction has all
    non-unit coefficients in N[v^-1]."""
    checked = 0
    for z in ctx.N:
        for t in ctx.N:
            if t == z or not ctx.n_leq(t, z):
                continue
            for u in ctx.WJ:
                for sym, c in normalized_restriction(ctx, t, z, u).items():
                    if sym == "1":
                        continue
                    assert c.has_nonneg_coeffs()
                    assert c.max_exp() <= 0
                    checked += 1
    assert checked > 100


# -- transition solutions ----------------------------------------------------------

def test_transition_spot_values(ctx):
    for (t_name, z_name), table in SPOT_CHI.items():
        sol = solve_chi(ctx, ctx.by_name[t_name], ctx.by_name[z_name])
        assert sol.unique
        for src, row in table.items():
            assert sol.chi[src] == {tgt: poly(pairs) for tgt, pairs in row.items()}


def reference_solve_chi(ctx, t, z):
    """``solve_chi`` before the context kept its solutions and divisors:
    the boundary data of every probe recomputed for each pair (t, z)."""
    rhs, div = {}, {}
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

    chi = {C: {} for C in BLOCK}
    witnesses = []
    unique = True
    for coord in NONUNIT:
        r = {wd: rhs[wd].get(coord, ZERO).exact_div(div[wd]) for wd in PROBE_WORDS}
        if r["1"] + r["121"] != r["2"] + r["212"]:
            raise AssertionError("probe equations are inconsistent")
        x0 = {"rho": r["1"] - r["212"], "sigma": r["212"], "sigma'": r["121"], "theta": ZERO}
        if t == z:
            k = ONE if coord == "theta" else ZERO
        else:
            kterms = {}
            for e in sorted(set().union(*(x.support() for x in x0.values()))):
                lo = max(-x0["rho"].coeff(e), -x0["theta"].coeff(e))
                hi = min(x0["sigma"].coeff(e), x0["sigma'"].coeff(e))
                if lo > hi:
                    raise AssertionError(f"no nonnegative solution at {coord}, exponent {e}")
                if lo < hi:
                    unique = False
                    witnesses.append((coord, e, lo, hi))
                if lo:
                    kterms[e] = lo
            k = Laurent(kterms)
        sol = {"rho": x0["rho"] + k, "sigma": x0["sigma"] - k,
               "sigma'": x0["sigma'"] - k, "theta": x0["theta"] + k}
        if t == z:
            if sol != {C: (ONE if C == coord else ZERO) for C in BLOCK}:
                raise AssertionError("boundary transition is not the identity")
        elif not all(sol[C].has_nonneg_coeffs() for C in BLOCK):
            raise AssertionError("solved transition has a negative coefficient")
        for C in BLOCK:
            if sol[C]:
                chi[C][coord] = sol[C]
    return ChiSolution(t, z, chi, unique, tuple(witnesses))


def test_solve_chi_matches_reference(b4_kl):
    """All 64 pairs, each asked twice: once solved, once kept."""
    fresh = build_context(kl=b4_kl)
    for _ in range(2):
        for t, z in fresh.pairs():
            assert solve_chi(fresh, t, z) == reference_solve_chi(fresh, t, z)


def test_kept_solutions_are_not_shared(ctx):
    """Each call returns its own ChiSolution and ``chi`` dicts, so a
    caller's edit cannot reach the solution the context keeps."""
    t, z = ctx.by_name["e"], ctx.by_name["efe"]
    first = solve_chi(ctx, t, z)
    want = reference_solve_chi(ctx, t, z)
    assert first == want
    first.chi["rho"].clear()
    first.chi["sigma"]["S"] = ONE
    first.chi["theta"] = {}
    assert solve_chi(ctx, t, z) == want != first


def test_report_and_checks_solve_each_pair_once(b4_kl, monkeypatch):
    """The report and ``check_chi`` ask for 128 solutions of 64 pairs: the
    solve runs once per pair, and the boundary data once per (z, probe),
    8 · 4 = 32 times; solving on every call made 128 solves and 512
    boundary computations."""
    fresh = build_context(kl=b4_kl)
    solves, boundaries = [], []
    solve, dims = charsheaf_b4._solve, charsheaf_b4.boundary_dims
    monkeypatch.setattr(charsheaf_b4, "_solve",
                        lambda ctx, t, z: solves.append((t, z)) or solve(ctx, t, z))
    monkeypatch.setattr(charsheaf_b4, "boundary_dims",
                        lambda ctx, z, u: boundaries.append((z, u)) or dims(ctx, z, u))
    report = conjecture_report(fresh)
    checks = (check_group_facts(fresh), check_restrictions(fresh), check_chi(fresh),
              check_conjectures(fresh, report))
    assert all(check.passed for check in checks)
    assert len(boundaries) <= 32
    assert len(solves) == 64 == len(set(solves))


def test_all_solutions_unique(ctx):
    for t, z in ctx.pairs():
        sol = solve_chi(ctx, t, z)
        assert sol.unique
        assert sol.witnesses == ()


def test_free_offset_takes_the_low_end_and_breaks_the_pattern(b4_kl, monkeypatch):
    """B4 has no ambiguous pair, so the probe data is replaced: at t = z
    the identity transition, elsewhere rho-coordinate data whose solutions
    at v^-1 are rho = theta = k, sigma = sigma' = 2 - k for k in 0..2, and
    at v^-2 theta = 1 alone.  The solver records the range, takes k = 0,
    and the report finds a combination that is no scalar multiple."""
    fresh = build_context(kl=b4_kl)
    word_of = {u: wd for wd, u in fresh.probes.items()}
    free = {"121": Laurent({-1: 2, -2: 1}), "212": Laurent({-1: 2, -2: 1}),
            "2": Laurent({-1: 2}), "1": Laurent({-1: 2})}

    def restriction(ctx, t, z, u):
        if t == z:
            return {C: ONE for C in PROBE_SUPPORT[word_of[u]]}
        return {"rho": free[word_of[u]]}

    monkeypatch.setattr(charsheaf_b4, "normalized_restriction", restriction)
    monkeypatch.setattr(charsheaf_b4, "_probe_divisors",
                        lambda ctx, z: {wd: ONE for wd in PROBE_WORDS})
    t, z = fresh.by_name["e"], fresh.by_name["efe"]
    sol = solve_chi(fresh, t, z)
    assert sol.witnesses == (("rho", -1, 0, 2),)
    assert sol.unique is False
    assert sol.chi == {"rho": {}, "sigma": {"rho": Laurent({-1: 2})},
                       "sigma'": {"rho": Laurent({-1: 2})}, "theta": {"rho": Laurent({-2: 1})}}
    assert solve_chi(fresh, z, z).chi == {C: {C: ONE} for C in BLOCK}

    report = conjecture_report(fresh)
    off = [r for r in report.pairs if r.t_name != r.z_name]
    assert len(off) == 56
    assert all(r.unique is False and r.pattern_ok is False and r.X == ZERO for r in off)
    assert all(r.unique and r.pattern_ok for r in report.pairs if r.t_name == r.z_name)
    assert not report.all_unique and not report.cuspidal_pattern and not report.all_pass


def test_boundary_transition_is_identity(ctx):
    for z in ctx.N:
        sol = solve_chi(ctx, z, z)
        for src in BLOCK:
            assert sol.chi[src] == {src: ONE}


def laplace_det(m):
    """The determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    acc = ZERO
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = entry * laplace_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_det4_matches_cofactor_expansion_on_block_matrices(ctx):
    checked = 0
    for t, z in ctx.pairs():
        if ctx.n_leq(t, z):
            m = solve_chi(ctx, t, z).block_matrix()
            assert _det4(m) == laplace_det(m)
            checked += 1
    assert checked == 33


def test_det4_matches_cofactor_expansion_on_sparse_matrices():
    rng = random.Random(23)
    for density in (0.2, 0.4, 0.6, 0.9):
        for _ in range(10):
            m = [[Laurent({e: rng.choice((-2, -1, 1, 3)) for e in rng.sample(range(-3, 4), 2)})
                  if rng.random() < density else ZERO for _ in range(4)] for _ in range(4)]
            assert _det4(m) == laplace_det(m)
    # a permutation matrix has determinant the sign of its permutation
    for perm in itertools.permutations(range(4)):
        m = [[ONE if perm[i] == j else ZERO for j in range(4)] for i in range(4)]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert _det4(m) == laplace_det(m) == (ONE if inversions % 2 == 0 else -ONE)


def test_cuspidal_scalar_shapes(ctx):
    """X for every comparable pair equals the family shape times
    v^{-l(z)+l(t)}; incomparable pairs give X = 0."""
    g = ctx.group
    seen = set()
    for fam, pairs in FAMILY_PAIRS.items():
        for t_name, z_name in pairs:
            t, z = ctx.by_name[t_name], ctx.by_name[z_name]
            X = cuspidal_scalar(solve_chi(ctx, t, z))
            zeta = v_power(-g.length(z) + g.length(t))
            assert X == zeta * poly(X_RELATIVE[fam]), (fam, t_name, z_name)
            seen.add((t_name, z_name))
    for t, z in ctx.pairs():
        if (ctx.name_of[t], ctx.name_of[z]) not in seen:
            assert not ctx.n_leq(t, z)
            assert cuspidal_scalar(solve_chi(ctx, t, z)) == ZERO


def test_cuspidal_scalar_refuses_other_shapes():
    """An S coordinate left in the alternating combination, or a block
    coordinate off the scalar multiple, raises; S parts that cancel in the
    combination do not."""
    def scalar(chi):
        return cuspidal_scalar(ChiSolution(0, 0, chi, True, ()))

    identity = {C: {C: ONE} for C in BLOCK}
    assert scalar(identity) == ONE
    assert scalar({C: {} for C in BLOCK}) == ZERO
    # rho and sigma enter with opposite signs, so equal S parts cancel
    assert scalar({**identity, "rho": {"rho": ONE, "S": ONE},
                   "sigma": {"sigma": ONE, "S": ONE}}) == ONE
    with pytest.raises(AssertionError, match="cuspidal component"):
        scalar({**identity, "rho": {"rho": ONE, "S": v_power(2)}})
    with pytest.raises(AssertionError, match="not a scalar multiple"):
        scalar({**{C: {} for C in BLOCK}, "rho": {"rho": ONE}})


@pytest.mark.parametrize("fault", ["third symbol", "unequal pair", "one point"])
def test_probe_divisors_refuse_other_supports(b4_kl, monkeypatch, fault):
    """The boundary data of each probe word must be one coefficient on the
    two block sheaves of its support and nothing else."""
    fresh = build_context(kl=b4_kl)
    z = fresh.by_name["efe"]
    word_of = {u: wd for wd, u in fresh.probes.items()}
    real = charsheaf_b4.boundary_dims
    assert _probe_divisors(build_context(kl=b4_kl), z) == {
        wd: real(fresh, z, fresh.probes[wd])[PROBE_SUPPORT[wd][0]] for wd in PROBE_WORDS}

    def altered(ctx, z, u):
        nd = real(ctx, z, u)
        a = PROBE_SUPPORT[word_of[u]][0]
        if fault == "third symbol":
            return {**nd, "S": ONE}
        if fault == "unequal pair":
            return {**nd, a: nd[a] + ONE}
        return {a: nd[a]}

    monkeypatch.setattr(charsheaf_b4, "boundary_dims", altered)
    with pytest.raises(AssertionError, match="two-point support"):
        _probe_divisors(fresh, z)


def test_family_partition():
    assert sum(len(p) for p in FAMILY_PAIRS.values()) == 33
    names = tuple(NORMALIZER_WORDS)
    for t_name in names:
        for z_name in names:
            fams = [f for f, p in FAMILY_PAIRS.items() if (t_name, z_name) in p]
            assert len(fams) <= 1
            assert family_of(t_name, z_name) == (fams[0] if fams else "null")


# -- the bundled example -------------------------------------------------------

def test_group_facts_check_reads_piece_dimensions(ctx, monkeypatch):
    """A wrong frozen piece dimension fails the check with one line of its
    own; the summary does not change."""
    passed = check_group_facts(ctx)
    assert passed.passed and passed.failures == ()
    monkeypatch.setattr(b4_example, "PIECE_DIMENSIONS", {"": 24, "4": 26})
    failed = check_group_facts(ctx)
    assert not failed.passed
    assert failed.failures == ("dimension of piece 4 != 26",)
    assert failed.summary == passed.summary


def test_restriction_check_reads_the_expansion_tables(ctx, monkeypatch):
    """One altered frozen polynomial fails each pair of its family at its
    probe word, one line each; the polynomial split into two terms on the
    same target still passes."""
    passed = check_restrictions(ctx)
    assert passed.passed and passed.failures == ()
    tables = {fam: dict(rows) for fam, rows in b4_example.EXACT_TABLES.items()}
    v2, v4 = v_power(2), v_power(4)
    assert tables["step"]["212"] == ((v4, "2"), (ONE, "1212"))
    monkeypatch.setattr(b4_example, "EXACT_TABLES", tables)
    tables["step"]["212"] = ((v2, "2"), (v4 - v2, "2"), (ONE, "1212"))
    assert check_restrictions(ctx) == passed
    tables["step"]["212"] = ((v_power(6), "2"), (ONE, "1212"))
    failed = check_restrictions(ctx)
    assert not failed.passed
    assert failed.failures == tuple(f"expansion ({tn},{zn},212)"
                                    for tn, zn in FAMILY_PAIRS["step"])
    assert failed.summary == passed.summary


def test_chi_check_reads_the_transition_patterns(ctx, monkeypatch):
    """One altered frozen pattern polynomial fails each pair of its family
    at that coordinate, one line each, and a moved target fails at both
    coordinates; the polynomial split into two terms on the same target
    still passes."""
    passed = check_chi(ctx)
    assert passed.passed and passed.failures == ()
    frozen = b4_example.CHI_PATTERNS
    patterns = {fam: dict(p) for fam, p in frozen.items()}
    v2 = v_power(2)
    assert patterns["step"]["rho"] == ((v2, "sigma"),)
    monkeypatch.setattr(b4_example, "CHI_PATTERNS", patterns)
    patterns["step"]["rho"] = ((ONE, "sigma"), (v2 - ONE, "sigma"))
    assert check_chi(ctx) == passed
    patterns["step"]["rho"] = ((v_power(4), "sigma"),)
    failed = check_chi(ctx)
    assert not failed.passed
    names = [(ctx.name_of[t], ctx.name_of[z]) for t in ctx.N for z in ctx.N]
    assert failed.failures == tuple(f"chi ({tn},{zn}) rho->sigma" for tn, zn in names
                                    if family_of(tn, zn) == "step")
    assert failed.summary == passed.summary
    patterns["step"] = frozen["step"]
    assert FAMILY_PAIRS["deep-defect"] == (("1", "fef"),)
    patterns["deep-defect"] = {**patterns["deep-defect"],
                               "rho": ((v_power(4), "rho"), (v_power(6), "theta"))}
    assert check_chi(ctx).failures == ("chi (1,fef) rho->sigma'", "chi (1,fef) rho->theta")


def test_report_header_reads_the_context(ctx):
    """The report's type and atom weights come from the context: the atoms
    are the elements of N of mirror length 1, named and weighted as N is."""
    report = conjecture_report(ctx)
    header = report_as_dict(ctx, report)
    assert header["type"] == ctx.group.type_tag == "B4"
    assert header["atom_weights"] == {"e": ATOM_WEIGHTS[0], "f": ATOM_WEIGHTS[1]}
    doubled = dataclasses.replace(ctx, weight_L={z: 2 * w for z, w in ctx.weight_L.items()})
    assert report_as_dict(doubled, report)["atom_weights"] == {"e": 2, "f": 6}


def test_run_example_all_checks_pass(b4_kl):
    outcome = run_example()
    assert [c.name for c in outcome.checks] == [
        "group facts", "restriction tables", "transition patterns",
        "scalars and conjectures",
    ]
    for check in outcome.checks:
        assert check.passed, (check.name, check.failures[:3])
        assert check.failures == ()
    assert outcome.all_pass
    assert outcome.report.all_pass
    assert len(outcome.report.pairs) == 64
    kl = outcome.context.kl  # built by the run itself, equal to the fixture's
    assert kl is not b4_kl and list(kl.pairs()) == list(b4_kl.pairs())
    assert all(kl.get(y, w) == b4_kl.get(y, w) for y, w in kl.pairs())
