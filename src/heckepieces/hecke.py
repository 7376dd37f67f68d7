"""Iwahori-Hecke algebras over Z[v, v^-1], in two normalizations.

``HeckeAlgebra(W, "geometric")`` has standard basis {T_w} with
T_s^2 = (v^2 - 1) T_s + v^2, the convolution normalization (q = v^2).

``HeckeAlgebra(W, "weighted", weight=L)`` takes a weight function L on the
generators (constant on conjugation-related pairs) and has basis {T_w} with
T_s^2 = (v^L(s) - v^-L(s)) T_s + 1.  For L ≡ 1 this is the split
normalization whose canonical basis coefficients recover the classical
Kazhdan-Lusztig polynomials via p(y, w) = v^(l(y)-l(w)) P_{y,w}(v^2).

Both satisfy T_x T_s = T_xs when lengths add, so x · T_w is computed by
folding generator steps along a reduced word of w; a product with a short
right operand, such as T_s^-1, is cheap.  The bar involution is the
semilinear ring map with bar(v) = v^-1 and bar(T_w) = (T_{w^-1})^-1.

Kazhdan-Lusztig polynomials (in the variable q = v^2, stored as Laurent
polynomials in v with even exponents) are computed column by column: only
the extremal pairs (y, w), where y's left and right descents contain w's,
run the classical recursion, and every other P_{y,w} is a copy of P_{ty,w}
or P_{yt,w} for a left or right descent t of w with a longer product
(Kazhdan-Lusztig, Invent. Math. 53, 1979, (2.3.g)).  The table keeps each
distinct polynomial once in a pool and each column as an array of pool
indices aligned with the bits of w's Bruhat ideal, so a lookup is one mask
test and one popcount.  The recursion itself runs on one integer per pool
polynomial, its value at q = 2^64, and decodes each new value once into
its coefficients; it raises OverflowError rather than decode a value whose
coefficients could reach 2^63, a bound it checks column by column.
Inverse KL polynomials on a downward-closed
support come from the inversion formula
P'_{x,z} = (-1)^(l(x)+l(z)) P_{w0 z, w0 x}.  A weighted canonical basis
element c_z, for arbitrary nonnegative weights, starts from c_{zs} · c_s
with s = min DR(z), read off term by term from the closed form
T_y · c_s = T_ys + v^(±L(s)) T_y (Lusztig, Hecke algebras with unequal
parameters, CRM Monograph 18, 2003, §6), and is finished by bar-symmetric
corrections in one downward walk.  The walk runs only on the u <= z where
a correction can land, those with s in DR(u) and DL(u) containing DL(zs)
(Lusztig 2003, Thm 6.6); every other coefficient is a copy,
p(y, z) = v^-L(t) p(ty, z) or v^-L(t) p(yt, z) for a left or right descent
t of z with a longer product, filled downwards as the KL table fills its
columns.  Generators of weight 0 take no part in either, since the copy
identity fails for them.  Like the KL table, the walk keeps each distinct
coefficient once in a pool and works on pool indices (du Cloux,
Experiment. Math. 11, 2002): each distinct c_s step, correction and copy
shift is computed once and then read from a memo keyed by the indices of
its operands.  A validated basis is checked by a certificate,
not by expanding bar(c_z) for every z: only the c_s are expanded, and each
c_z of length at least 2 must satisfy c_z = c_{zs} · c_s - sum gamma_t c_t
over t < z with bar-symmetric gamma_t.  Bar being a ring involution, this
gives bar(c_z) = c_z from the earlier elements, and by unitriangularity every
bar-invariant c_z has such an expansion (Lusztig 2003, §5-6), so the
certificate accepts exactly when the bar check does.  It runs on integer
codes, as the KL recursion does, and raises OverflowError where their
coefficients could reach 2^63.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .coxeter import CoxeterGroup, Element, mask_bits
from .laurent import Laurent, ONE, ZERO, _is_int, add_into, bar_symmetric_head, v_power


class WeightFunction:
    """A nonnegative integer weight on generators with L(s) = L(t) whenever
    s and t are conjugate (equivalently whenever m(s,t) is odd), extended to
    the group by summing over any reduced word.

    >>> from .coxeter import coxeter_group
    >>> W = coxeter_group("B2")
    >>> L = WeightFunction(W, {1: 1, 2: 3})
    >>> L.of(W.from_word([1, 2, 1]))
    5
    """

    def __init__(self, group: CoxeterGroup, values: Mapping[int, int]):
        if set(values) != set(group.generators()):
            raise ValueError("weight must be defined on every generator")
        for i in group.generators():
            if not _is_int(values[i]):
                raise ValueError(f"weights must be integers, not {values[i]!r}")
            if values[i] < 0:
                raise ValueError("weights must be nonnegative")
            for j in group.generators():
                if i < j and group.m(i, j) % 2 == 1 and values[i] != values[j]:
                    raise ValueError(
                        f"generators {i},{j} are conjugate (odd m) but weighted differently"
                    )
        self.group = group
        self.values = {i: values[i] for i in group.generators()}

    def __call__(self, i: int) -> int:
        if not (_is_int(i) and i in self.values):
            raise ValueError(f"no generator {i!r}")
        return self.values[i]

    def of(self, w: Element) -> int:
        return sum(self.values[s] for s in self.group.reduced_word(w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self.group is other.group and self.values == other.values

    def __hash__(self) -> int:
        return hash((id(self.group), frozenset(self.values.items())))


def split_weight(group: CoxeterGroup) -> WeightFunction:
    """The constant weight L ≡ 1."""
    return WeightFunction(group, {i: 1 for i in group.generators()})


class HeckeElement:
    """A finite A-linear combination of standard basis elements T_w."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HeckeAlgebra", terms: Mapping[Element, Laurent]):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if c}

    @staticmethod
    def _raw(algebra: "HeckeAlgebra", terms: dict[Element, Laurent]) -> "HeckeElement":
        """The element with these terms, which must already be free of
        zeros: the constructor without its filter, for arithmetic that
        cannot make a zero coefficient."""
        h = HeckeElement.__new__(HeckeElement)
        h.algebra = algebra
        h.terms = terms
        return h

    def coeff(self, w: Element) -> Laurent:
        return self.terms.get(w, ZERO)

    def support(self) -> tuple[Element, ...]:
        return tuple(sorted(self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __add__(self, other: object) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if other.algebra is not self.algebra:  # as ``multiply`` refuses it
            raise ValueError("operands belong to a different algebra")
        return HeckeElement._raw(self.algebra, add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: object) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "HeckeElement":
        return HeckeElement._raw(self.algebra, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Laurent | int) -> "HeckeElement":
        return HeckeElement(self.algebra, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra.multiply(self, other)

    def text(self) -> str:
        if not self.terms:
            return "0"
        group = self.algebra.group
        chunks = []
        for w in self.support():
            c = self.terms[w]
            chunks.append(f"({c.text()})·T[{group.word_str(w)}]")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"HeckeElement({self.text()})"


class HeckeAlgebra:
    """The Hecke algebra of a Coxeter group in one of the two normalizations.

    Each generator s carries quadratic coefficients (a_s, b_s) with
    T_s^2 = a_s T_s + b_s; products, inverses of generators, and the bar
    involution are all derived from these.
    """

    def __init__(self, group: CoxeterGroup, normalization: str = "geometric",
                 weight: WeightFunction | None = None):
        if normalization == "geometric":
            if weight is not None:
                raise ValueError("geometric normalization takes no weight")
            quad = {
                s: (v_power(2) - 1, v_power(2)) for s in group.generators()
            }
        elif normalization == "weighted":
            if weight is None or weight.group is not group:
                raise ValueError("weighted normalization needs a weight on this group")
            quad = {
                s: (v_power(weight(s)) - v_power(-weight(s)), ONE)
                for s in group.generators()
            }
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        self.group = group
        self.normalization = normalization
        self.weight = weight
        self._quad = quad
        # bar(T_s) = T_s^-1 = b_s^-1 (T_s - a_s), and b_s^-1 = bar(b_s)
        # since b_s is v^2 or 1
        self._gen_bar = {
            s: self.element({group.generator(s): b.bar(), group.identity(): -(a * b.bar())})
            for s, (a, b) in quad.items()
        }
        self._bar_basis: dict[Element, HeckeElement] = {group.identity(): self.unit()}
        # Memo of ``pieces.mu_J`` on basis elements: one dict
        # {y: terms of mu(T_y)} per (J, δ), held here so that it is freed
        # together with the algebra.
        self.mu_cache: dict[tuple, dict[Element, dict[Element, Laurent]]] = {}

    # -- building elements --------------------------------------------------

    def zero(self) -> HeckeElement:
        return HeckeElement(self, {})

    def unit(self) -> HeckeElement:
        return HeckeElement(self, {self.group.identity(): ONE})

    def basis(self, w: Element) -> HeckeElement:
        self.group._check_element(w)
        return HeckeElement(self, {w: ONE})

    def element(self, terms: Mapping[Element, Laurent]) -> HeckeElement:
        """sum c_w T_w for terms {w: c_w}.  Refuses a key that is not an
        element, as ``group.length`` does, and a coefficient that is not a
        ``Laurent``: an int would be stored as is and break ``text`` and
        ``bar`` later.  Internal arithmetic builds ``HeckeElement`` directly
        and skips these checks."""
        for w, c in terms.items():
            self.group._check_element(w)
            if not isinstance(c, Laurent):
                raise TypeError(f"coefficients must be Laurent, not {c!r}")
        return HeckeElement(self, terms)

    # -- multiplication --------------------------------------------------------

    def _times_gen(self, terms: Mapping[Element, Laurent], s: int) -> dict[Element, Laurent]:
        """The terms of h · T_s, for h given by its terms: the only
        generator step."""
        times_s = self.group._rmul[s]
        a, b = self._quad[s]
        pairs = []
        for w, c in terms.items():
            ws = times_s[w]
            if ws > w:  # elements are numbered by length: l(ws) > l(w)
                pairs.append((ws, c))
            else:
                pairs += ((w, c * a), (ws, c * b))
        return add_into({}, pairs)

    def multiply(self, x: HeckeElement, y: HeckeElement) -> HeckeElement:
        """x · y, by folding generator steps along the reduced words of the
        terms of y: one step per letter, so keep the shorter operand right."""
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("operands belong to a different algebra")
        out: dict[Element, Laurent] = {}
        for w, c in y.terms.items():
            terms = x.terms
            for s in self.group.reduced_word(w):
                terms = self._times_gen(terms, s)
            add_into(out, terms.items(), None if c == ONE else c)
        return HeckeElement._raw(self, out)

    # -- bar involution ----------------------------------------------------------

    def _bar_of_basis(self, w: Element) -> HeckeElement:
        cached = self._bar_basis.get(w)  # seeded with bar(T_e) = T_e
        if cached is None:
            # bar(T_w) = bar(T_ws) · bar(T_s), one generator step
            s = min(self.group.right_descents(w))
            rest = self._bar_of_basis(self.group.right_mult_gen(w, s))
            cached = self._bar_basis[w] = self.multiply(rest, self._gen_bar[s])
        return cached

    def bar(self, h: HeckeElement) -> HeckeElement:
        """The semilinear involution: bar(sum c_w T_w) = sum bar(c_w) bar(T_w)."""
        out: dict[Element, Laurent] = {}
        for w, c in h.terms.items():
            add_into(out, self._bar_of_basis(w).terms.items(), c.bar())
        return HeckeElement._raw(self, out)


# -- Kazhdan-Lusztig tables ------------------------------------------------------

# kl_table evaluates its polynomials at q = 2^_K; see there for the bound.
_K = 64


def _frozen(indices: Iterable[int], pool: list) -> array:
    """A finished column of pool indices as an unsigned array: 16 bits
    while the pool has at most 65,536 entries (B6 has 57,738), 32 after."""
    return array("H" if len(pool) <= 1 << 16 else "I", indices)


class KLTable:
    """All Kazhdan-Lusztig polynomials of a finite Coxeter group, as
    ``kl_table`` computes them.

    Polynomials are in q = v^2 and stored as Laurent polynomials in v with
    even nonnegative exponents.  ``pool`` holds each distinct P_{y,w} of
    the table once, and ``columns[w]`` is an array of pool indices, one per
    y <= w in the order of the bits of ``group.bruhat_mask(w)``, so
    P_{y,w} = pool[columns[w][-k]] with k the number of ideal bits at or
    above y, the popcount of ``bruhat_mask(w) >> y``
    (du Cloux, Experiment. Math. 11, 2002, keeps each KL row the same way).
    P_{y,w} for incomparable pairs is 0 and is not stored.  ``get`` and
    ``mu`` read one pair, and ``pairs`` lists the comparable ones.
    ``extremal`` is the number of pairs off the diagonal that ran the
    recursion of ``kl_table``.  Tables compare and hash by identity.
    """

    def __init__(self, group: CoxeterGroup, pool: list[Laurent], columns: list[array],
                 extremal: int):
        self.group = group
        self.pool = pool
        self.columns = columns
        self.extremal = extremal
        self._masks = group._masks  # every mask is built once a column exists
        self._order = len(columns)

    def get(self, y: Element, w: Element) -> Laurent:
        """P_{y,w}, or 0 when y is not below w.  Refuses what is not an
        element, as ``group.length`` does: a negative w would read a column
        from the end."""
        if not (type(y) is int and type(w) is int and 0 <= y < self._order > w >= 0):
            raise ValueError(f"no pair of elements ({y!r}, {w!r})")
        above = self._masks[w] >> y  # y's bit and those above it
        if not above & 1:
            return ZERO
        return self.pool[self.columns[w][-above.bit_count()]]

    def mu(self, y: Element, w: Element) -> int:
        """The coefficient of q^((l(w)-l(y)-1)/2) in P_{y,w} (0 when the
        length gap is even), with the checks of ``get``.  The checks and
        the read are ``get``'s, inlined: a call would cost about as much as
        the lookup."""
        if not (type(y) is int and type(w) is int and 0 <= y < self._order > w >= 0):
            raise ValueError(f"no pair of elements ({y!r}, {w!r})")
        length = self.group._length
        d = length[w] - length[y]
        if d <= 0 or d % 2 == 0:
            return 0
        above = self._masks[w] >> y
        if not above & 1:
            return 0
        return self.pool[self.columns[w][-above.bit_count()]].coeff(d - 1)

    def pairs(self) -> list[tuple[Element, Element]]:
        """Every comparable pair (y, w), by w and then y."""
        masks = self._masks
        return [(y, w) for w in self.group.elements() for y in mask_bits(masks[w])]


def _decode(code: int, k: int, step: int = 2, offset: int = 0) -> Laurent:
    """The polynomial sum_j c_j v^(offset + step·j) with
    sum_j c_j 2^(k·j) = code and every c_j in [-2^(k-1), 2^(k-1)): the
    balanced base-2^k digits of code, lowest first.  Only one polynomial
    has both properties, so the caller must know that the one it evaluated
    has coefficients that small.  The defaults read a polynomial in
    q = v^2 from its value at q = 2^k; step -1 and offset m read
    v^m P(v) from its value at v = 2^-k.

    >>> _decode(3 - (2 << 64) + (1 << 128), 64).text()
    '3 - 2v^2 + v^4'
    >>> _decode(3 - (2 << 64) + (1 << 128), 64, -1, 1).text()
    'v^-1 - 2 + 3v'
    """
    terms, digit, half, e = {}, (1 << k) - 1, 1 << (k - 1), offset
    while code:
        c = code & digit
        if c >= half:
            c -= 1 << k
        terms[e] = c
        code = (code - c) >> k
        e += step
    return Laurent(terms)


def kl_table(group: CoxeterGroup) -> KLTable:
    """Compute every P_{y,w}, column by column and each column downwards:
    the only maker of a ``KLTable``.

    For a left descent t of w with ty > y, P_{y,w} = P_{ty,w}, and for a
    right descent t of w with yt > y, P_{y,w} = P_{yt,w} (Kazhdan-Lusztig,
    Invent. Math. 53, 1979, (2.3.g) and its image under w -> w^-1).  The
    longer element lies in the ideal of w and is numbered above y, so its
    entry is already filled and its pool index is copied.  Only an extremal
    y, whose left and right descents both contain those of w, runs the
    recursion along the left descent s = min DL(w), where sy < y:

        P_{y,w} = P_{sy,sw} + q P_{y,sw}
                  - sum_z mu(z, sw) q^((l(w)-l(z))/2) P_{y,z},

    the sum over y <= z <= sw with sz < z, reading the finished columns of
    sw and z.  Off the diagonal, B4 has 2,076 extremal pairs among its
    40,249 comparable ones, and B5 85,458 among 3,089,459; the table's
    ``extremal`` counts them.  Each new polynomial enters the pool once:
    B4's pairs hold 41 distinct ones, B5's 1,035.  A column fills a list
    indexed by element, reused from column to column, and is frozen to an
    array in bit order when it is done; every entry the column reads was
    written in the same column, so what earlier columns left is never read.

    The recursion runs on integer codes: each pool polynomial P is also
    kept as P(2^K), K = ``_K`` = 64, evaluation at q = 2^K being a ring map,
    so the sum above is a few big-int additions and shifts, and ``index``
    is keyed by the code.  A new code is decoded once, by ``_decode``, into
    the ``Laurent`` appended to ``pool``.  The decoding is exact while
    every coefficient of the new P lies below 2^(K-1) in absolute value.
    With M the largest such coefficient in the pool so far, the terms of
    the sum bound each coefficient of P_{y,w} by M (2 + sum_z |mu(z, sw)|),
    since all of them are read from earlier columns; a column whose bound
    reaches 2^(K-1) raises OverflowError before it forms a value.  The
    largest coefficient is 5 on B4 and 35 on B5.

    A copy P_{u,w} with y < u < w has degree at most
    (l(w)-l(u)-1)/2 = (l(w)-l(y)-2)/2, so mu(y, w) can be nonzero only at an
    extremal y or where the copy is from u = w (mu = 1); the mu lists are
    collected in the same walk."""
    k = _K
    e = group.identity()
    elements = group.elements()
    length, ldesc, rdesc = group._length, group._ldesc, group._rdesc
    masks = [group.bruhat_mask(w) for w in elements]
    pool: list[Laurent] = [ONE]
    codes = [1]  # codes[i] = pool[i] at q = 2^k
    index: dict[int, int] = {1: 0}
    largest = 1  # the largest |coefficient| in the pool
    columns: list[array] = [_frozen([0], pool)]  # the identity: P_{e,e} = 1
    mu_lists: dict[Element, tuple[tuple[Element, int], ...]] = {e: ()}
    column = [0] * len(elements)  # y -> pool index in the column that fills
    extremal = 0

    for w in elements[1:]:
        s = min(ldesc[w])
        s_times = group._lmul[s]
        sw = s_times[w]
        lw = length[w]
        # y -> ty for t in DL(w) and y -> yt for t in DR(w)
        steps = [group._lmul[t] for t in ldesc[w]] + [group._rmul[t] for t in rdesc[w]]
        # the z of the mu-sum, mu(z, sw) != 0 and sz < z, with the shift of q^((l(w)-l(z))/2)
        mu_terms = [(masks[z], columns[z], m, k * (lw - length[z]) // 2)
                    for z, m in mu_lists[sw] if s in ldesc[z]]
        if largest * (2 + sum(abs(term[2]) for term in mu_terms)) >= 1 << (k - 1):
            raise OverflowError(f"the column of {group.word_str(w)} may hold KL coefficients "
                                f"of 2^{k - 1} or more, which base-2^{k} codes cannot decode")
        below_sw, column_sw = masks[sw], columns[sw]
        ideal = mask_bits(masks[w])
        column[w] = 0
        mus = []
        for y in ideal[-2::-1]:  # below w, downwards
            for step in steps:
                u = step[y]
                if u > y:  # elements are numbered by length: l(u) > l(y)
                    column[y] = column[u]
                    if u == w:
                        mus.append((y, 1))
                    break
            else:  # y is extremal
                extremal += 1
                above = below_sw >> s_times[y]
                val = codes[column_sw[-above.bit_count()]] if above & 1 else 0
                above = below_sw >> y
                if above & 1:
                    val += codes[column_sw[-above.bit_count()]] << k
                for below_z, column_z, m, shift in mu_terms:
                    above = below_z >> y
                    if above & 1:
                        val -= m * codes[column_z[-above.bit_count()]] << shift
                i = index.get(val)
                if i is None:
                    i = index[val] = len(pool)
                    p = _decode(val, k)
                    pool.append(p)
                    codes.append(val)
                    largest = max([largest] + [abs(c) for _, c in p.items()])
                column[y] = i
                d = lw - length[y]
                if d % 2 == 1 and pool[i].coeff(d - 1):
                    mus.append((y, pool[i].coeff(d - 1)))
        columns.append(_frozen(map(column.__getitem__, ideal), pool))
        mu_lists[w] = tuple(mus)
    return KLTable(group, pool, columns, extremal)


def inverse_kl(table: KLTable, support: Iterable[Element]) -> dict[tuple[Element, Element], Laurent]:
    """Inverse KL polynomials P'_{x,z} on a downward-closed support, with
    sum_y P'_{x,y} P_{y,z} = delta_{x,z}, by the inversion formula
    P'_{x,z} = (-1)^(l(x)+l(z)) P_{w0 z, w0 x} for x <= z (Kazhdan-Lusztig,
    Invent. Math. 53, 1979, §3).

    Raises ``ValueError`` on an entry that is not an element, and if the
    support is not closed under going down in Bruhat order (the inverse of
    a unitriangular matrix needs the whole lower set).
    """
    group = table.group
    given = set(support)
    for w in given:
        group._check_element(w)  # sorted() and 1 << w would refuse None, -1, 0.5 otherwise
    supp = sorted(given)
    supp_mask = sum(1 << w for w in supp)  # the elements are distinct
    for w in supp:
        if group.bruhat_mask(w) & ~supp_mask:
            raise ValueError(f"support not downward closed at {group.word_str(w)}")
    w0 = group.longest_element()
    w0_times = {x: group._product(w0, x) for x in supp}  # checked by bruhat_mask
    length = group._length
    Pp: dict[tuple[Element, Element], Laurent] = {}
    for z in supp:
        for x in mask_bits(group.bruhat_mask(z)):
            p = table.get(w0_times[z], w0_times[x])
            Pp[(x, z)] = p if (length[x] + length[z]) % 2 == 0 else -p
    return Pp


# -- weighted canonical bases ----------------------------------------------------


@dataclass
class CanonicalBasis:
    """The canonical basis {c_z} of a weighted Hecke algebra: the unique
    bar-invariant elements c_z = T_z + sum_{t<z} p(t,z) T_t with every
    p(t,z) in v^-1 Z[v^-1]."""

    algebra: HeckeAlgebra
    vectors: dict[Element, HeckeElement]

    def p(self, t: Element, z: Element) -> Laurent:
        """The coefficient p(t,z) of T_t in c_z (0 for t not <= z).  Refuses
        what is not an element, as ``KLTable.get`` does."""
        group = self.algebra.group
        group._check_element(t)
        group._check_element(z)
        return self.vectors[z].coeff(t)


def canonical_basis(algebra: HeckeAlgebra, validate: bool = True) -> CanonicalBasis:
    """Build every c_z by induction on length from c_{zs} · c_s, for the
    right descent s = min DR(z): the product is bar-invariant, has top term
    T_z and is supported on the Bruhat ideal of z.

    The product has a closed form (Lusztig, Hecke algebras with unequal
    parameters, CRM Monograph 18, 2003, §6): with L = L(s),
    c_s = T_s + v^-L and T_s^2 = (v^L - v^-L) T_s + 1, so
    T_y · c_s = T_ys + v^L T_y when ys < y and T_ys + v^-L T_y when
    ys > y, and the coefficient of T_u in c_{zs} · c_s is
    p(us, zs) + v^(±L) p(u, zs), with v^L wherever the walk below reads it.

    Write c_{zs} · c_s = c_z + sum_{t<z} gamma_t c_t with every gamma_t
    bar-symmetric.  A downward walk from below z finds the gamma_t: at each
    t whose coefficient has a part outside v^-1 Z[v^-1], gamma_t is the
    bar-symmetric head of that coefficient, and gamma_t · c_t is
    subtracted.  Each step preserves bar-invariance and the top term and
    leaves the coefficient at t in v^-1 Z[v^-1]; c_t is supported on the
    ideal of t, whose other elements are numbered below t, so a step only
    changes positions that the walk has not reached yet.

    The c_s step and the walk run only on
    C(z) = {u <= z : s in DR(u) and DL(u) contains DL(zs)}, z's Bruhat mask
    ANDed with per-generator descent masks built once per call.  A
    correction lands only there.  By Lusztig 2003, Thm 6.6,
    c_{zs} · c_s = c_z + sum mu^s c_t over t with ts < t, so gamma_t = 0
    unless s is in DR(t).  For s' in DL(zs),
    c_{s'} · c_{zs} = (v^L(s') + v^-L(s')) c_{zs} (the same theorem, on the
    left), so c_{s'} multiplies c_{zs} · c_s by that factor, and gamma_t = 0
    unless s' is in DL(t).  The coefficients on C(z) thus depend only on
    each other, and the walk there finishes them.  Every other y <= z has a
    longer ty or yt for a descent t of z: s on the right, or on the left
    some s' of DL(zs), which lies in DL(z).  The finished c_z satisfies
    p(y, z) = v^-L(t) p(ty, z) and p(y, z) = v^-L(t) p(yt, z) for such t
    (Thm 6.6 again), so those positions are filled downwards from the
    first such t, left descents first, as ``kl_table`` copies; the longer
    element lies in the ideal of z and is numbered above y, so its entry is
    final.  On B4 with L = (2, 1, 1, 1) the walk covers 5,092 of the 40,249
    positions, and on B5 with L = (2, 1, 1, 1, 1) 257,750 of 3,089,459.

    A generator t with L(t) = 0 takes no part in the restriction or the
    fill: there c_t = T_t, the copy identity fails, and the c_s step, which
    multiplies by T_s + 1 when L(s) = 0, needs the correction c_{zs} at zs,
    where s is not a right descent.  So with L(s) = 0 the condition on s is
    dropped, and only generators of positive weight enter DL(zs) and the
    copies.

    The walk and the fill run on pool indices, as ``kl_table`` does (du
    Cloux, Experiment. Math. 11, 2002): each distinct coefficient is kept
    once in a pool local to the call, with 0 at index 0 and 1 at index 1,
    and each column is a dict {u: index} of its nonzero entries.  Memos
    answer the Laurent operations that recur: one maps (p(us, zs),
    p(u, zs), L) to the index of the c_s step's coefficient at u, one maps
    (current, gamma_t, p(u, t)) to the index of
    current - gamma_t · p(u, t), and one per generator t maps an index to
    that of its v^-L(t) shift.  On B4 with L = (2, 1, 1, 1) the walk makes
    4,800 corrections, of which 1,778 are distinct and form a product.
    Equal indices are equal polynomials, so the vectors are those of the
    unrestricted walk on Laurent values.  The pool and the memos are freed
    when the call returns.

    With ``validate``, ``_certify`` checks the finished basis and raises
    AssertionError unless every c_z has top term 1, support in the ideal of
    z, every other p(t, z) in v^-1 Z[v^-1] and bar(c_z) = c_z.  Bar
    invariance is certified without expanding bar(c_z): bar(c_s) = c_s is
    checked for each generator, and for z of length at least 2 with
    s = min DR(z), d = c_{zs} · c_s - c_z, formed from the terms of c_s by
    the one-letter rule of ``_times_gen`` and not by the closed form above,
    so that it does not share the walk's arithmetic, must peel to 0 from
    the top by subtracting gamma · c_t with t < z and gamma bar-symmetric.
    Then c_z = c_{zs} · c_s - sum gamma · c_t with every factor already
    certified, so bar(c_z) = c_z, bar being a ring involution.
    Conversely, if c_z is bar-invariant, so is d, and a bar-invariant
    element has a bar-symmetric coefficient at each Bruhat-maximal term of
    its support, since bar(T_t) is T_t plus terms below t; so the peeling
    goes through, and the certificate accepts exactly when bar(c_z) = c_z
    (Lusztig 2003, §5-6).  On B4 with L = (2, 1, 1, 1) it expands bar 4
    times, where a bar check of every c_z would make 383 expansions.  The
    products and the peeling run on integer codes, as ``kl_table``'s
    recursion does, and only each gamma is decoded, once per peel step
    (503 times on that B4); where a running bound cannot keep the
    coefficients below 2^63, the certificate raises OverflowError,
    accepting and refusing nothing."""
    if algebra.normalization != "weighted":
        raise ValueError("canonical bases are defined here for the weighted normalization")
    group = algebra.group
    weight = algebra.weight
    pool: list[Laurent] = [ZERO, ONE]
    index: dict[Laurent, int] = {ZERO: 0, ONE: 1}
    strict = [True, False]  # pool[i].in_v_minus_strict()

    def intern(p: Laurent) -> int:
        i = index.setdefault(p, len(pool))
        if i == len(pool):
            pool.append(p)
            strict.append(p.in_v_minus_strict())
        return i

    sums: dict[tuple[int, int, int], int] = {}  # c_s step
    steps: dict[tuple[int, int, int], int] = {}  # correction
    heads: dict[int, int] = {}  # coefficient -> its bar-symmetric head
    elements = group.elements()
    ldesc, rdesc = group._ldesc, group._rdesc
    masks = group._masks  # filled up to z by bruhat_mask(z)
    positive = [t for t in group.generators() if weight(t)]
    # the u with t in DL(u), and with t in DR(u), as masks
    left = {t: sum(1 << u for u in elements if t in ldesc[u]) for t in positive}
    right = {t: sum(1 << u for u in elements if t in rdesc[u]) for t in positive}
    shifts: dict[int, dict[int, int]] = {t: {} for t in positive}  # i -> pool[i] · v^-L(t)
    e = group.identity()
    columns: dict[Element, dict[Element, int]] = {e: {e: 1}}
    for z in elements[1:]:
        s = min(rdesc[z])
        times_s, L = group._rmul[s], weight(s)
        zs = times_s[z]
        prev = columns[zs]
        ideal = group.bruhat_mask(z)
        walked = ideal & right[s] if L else ideal
        for t in ldesc[zs]:
            if weight(t):
                walked &= left[t]
        below = mask_bits(walked)
        column = {}
        for u in below:
            us = times_s[u]
            a, b = prev.get(us, 0), prev.get(u, 0)
            if a or b:
                key = (a, b, L)  # on C(z), us < u unless L = 0: the factor is v^L
                i = sums.get(key)
                if i is None:
                    i = sums[key] = intern(pool[a] + pool[b].shift(L))
                if i:
                    column[u] = i
        below.pop()  # z, the top bit
        for t in reversed(below):
            c = column.get(t)
            if c is None or strict[c]:
                continue
            g = heads.get(c)
            if g is None:
                g = heads[c] = intern(bar_symmetric_head(pool[c]))
            column_t = columns[t]
            for u in mask_bits(walked & masks[t]):
                p = column_t.get(u)
                if p is None:
                    continue
                key = (column.get(u, 0), g, p)
                i = steps.get(key)
                if i is None:
                    i = steps[key] = intern(pool[key[0]] - pool[g] * pool[p])
                if i:
                    column[u] = i
                else:
                    column.pop(u, None)
        # the rest of the ideal, downwards: each y is a copy of a longer ty or yt
        fills = [(group._lmul[t], shifts[t], -weight(t)) for t in ldesc[z] if weight(t)]
        fills += [(group._rmul[t], shifts[t], -weight(t)) for t in rdesc[z] if weight(t)]
        for y in reversed(mask_bits(ideal ^ walked)):
            for step, shift, d in fills:
                u = step[y]
                if u > y:  # numbered by length: l(u) > l(y)
                    i = column.get(u)
                    if i is not None:
                        j = shift.get(i)
                        if j is None:
                            j = shift[i] = intern(pool[i].shift(d))
                        column[y] = j
                    break
        columns[z] = column
    # Each c_z is built once the walk is done, popping its column as it
    # goes, so the index and value copies of a column never coexist in full.
    vectors = {}
    for z in elements:
        column = columns.pop(z)
        values = map(pool.__getitem__, column.values())
        vectors[z] = HeckeElement._raw(algebra, dict(zip(column, values)))
    if validate:
        _certify(algebra, vectors)
    return CanonicalBasis(algebra, vectors)


def _certify(algebra: HeckeAlgebra, vectors: Mapping[Element, HeckeElement]) -> None:
    """Raise AssertionError unless ``vectors`` is the canonical basis of
    ``algebra``, by the certificate that ``canonical_basis`` states,
    element by element in the order of the group so that every c_t it
    reads is already certified.

    A polynomial P is coded as 2^(k·m) P(2^-k), k = ``_K``, an integer
    when no exponent of P exceeds m.  Each coefficient object is encoded
    once, keyed by ``id`` (the vectors keep it alive), after its vector has
    passed the checks, which leave no exponent above 0.  c_{zs} · c_s comes
    from the terms of c_s and the one-letter rule of ``_times_gen``:
    T_w · c_s = f T_w + g T_ws, with (f, g) fixed by s and by whether
    ws > w, and m is the largest exponent of any f or g (at least 0).  d
    is kept at 2m and no exponent in it exceeds m, so each gamma is decoded
    at 2m and encoded again at m.  A code stands for its polynomial only
    while every coefficient lies below 2^(k-1) in absolute value.  With M
    the largest coefficient of the vectors and F the coefficient sum of
    the f and g of s, M (F + 1) bounds d's coefficients, and each
    gamma · c_t adds M times gamma's coefficient sum; the bound is checked
    before d's zeros are dropped and before each subtraction."""
    group = algebra.group
    length, rdesc, rmul = group._length, group._rdesc, group._rmul
    k = _K
    gens = {s: vectors[group.generator(s)] for s in group.generators()}
    for c_s in gens.values():
        if algebra.bar(c_s) != c_s:
            raise AssertionError("canonical basis element is not bar-invariant")
    # (f, g) of T_w · c_s = f T_w + g T_ws when ws > w, and when ws < w;
    # c_s has no other terms, or fails its checks before any product reads it
    factors = {}
    for s, c_s in gens.items():
        a, b = algebra._quad[s]
        top, low = c_s.coeff(group.generator(s)), c_s.coeff(group.identity())
        factors[s] = ((low, top), (low + top * a, top * b))
    m = max([0] + [p.max_exp() for up_down in factors.values() for pair in up_down
                   for p in pair if p])

    def encode(p: Laurent) -> int:
        return sum(c << k * (m - e) for e, c in p.items())

    def norm(p: Laurent) -> int:
        return sum(abs(c) for _, c in p.items())

    spread = {s: sum(norm(p) for pair in up_down for p in pair)
              for s, up_down in factors.items()}
    factors = {s: tuple(tuple(map(encode, pair)) for pair in up_down)
               for s, up_down in factors.items()}
    one, shift, half = 1 << k * m, k * m, 1 << (k - 1)
    codes: dict[int, int] = {}  # id(p) -> code, for every p(t, z) with t < z checked so far
    largest = 1  # the largest |coefficient| of the checked vectors
    for z in group.elements():
        x = vectors[z]
        if x.coeff(z) != ONE:
            raise AssertionError("canonical basis element lost its top term")
        ideal = group.bruhat_mask(z)
        d = {}  # -c_z, then c_{zs} · c_s - c_z, at 2m
        for t, p in x.terms.items():
            if not ideal >> t & 1:
                raise AssertionError("canonical basis support leaked above z")
            if t == z:
                c = one
            else:
                c = codes.get(id(p))
                if c is None:
                    if not p.in_v_minus_strict():
                        raise AssertionError("canonical basis coefficient is not in v^-1 Z[v^-1]")
                    c = codes[id(p)] = encode(p)
                    largest = max([largest] + [abs(a) for _, a in p.items()])
            d[t] = -c << shift
        if length[z] < 2:
            continue
        s = min(rdesc[z])
        times_s = rmul[s]
        up, down = factors[s]
        for w, p in vectors[times_s[z]].terms.items():
            c = codes.get(id(p), one)  # the top term 1 is the only one not in codes
            ws = times_s[w]
            f, g = up if ws > w else down
            d[w] = d.get(w, 0) + c * f
            d[ws] = d.get(ws, 0) + c * g
        bound = largest * (spread[s] + 1)
        if bound >= half:
            raise _overflow(group, z, k)
        d = {u: c for u, c in d.items() if c}
        while d:
            t = max(d)  # elements are numbered by length: t is Bruhat-maximal in d
            gamma = _decode(d[t], k, -1, 2 * m)
            if t == z or not ideal >> t & 1 or not gamma.is_bar_symmetric():
                raise AssertionError("canonical basis element is not bar-invariant")
            bound += largest * norm(gamma)
            if bound >= half:
                raise _overflow(group, z, k)
            add_into(d, ((u, codes.get(id(p), one)) for u, p in vectors[t].terms.items()),
                     -encode(gamma))


def _overflow(group: CoxeterGroup, z: Element, k: int) -> OverflowError:
    return OverflowError(f"the certificate of {group.word_str(z)} may meet coefficients "
                         f"of 2^{k - 1} or more, which base-2^{k} codes cannot decode")
