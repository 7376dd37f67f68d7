"""Finite Coxeter groups with exact element arithmetic.

``CoxeterGroup`` enumerates a group once, from its Coxeter matrix alone, one
length at a time.  Its elements are the integers 0, 1, ..., |W| - 1 in
(length, lexicographically least reduced word) order: 0 is the identity, the
last element is the longest, and integer order is ``sort_key`` order.  For
every element the group stores its length, canonical reduced word, both
descent sets, both one-generator products and its inverse in lists indexed
by the element, so every structural question is a lookup.  Three more
lists are filled lazily: the coatoms of every element in Bruhat order, in one
pass; Bruhat ideals as int bitmasks (``bruhat_mask``), each one bit ORed with
its coatoms' masks, in element order up to the largest element asked for; and
word strings (``word_str``), in one pass with the map back from each string
that ``parse_word`` reads.  Type B_n is built from its Coxeter matrix
(``type_b_matrix``), like any other group.

Elements mean nothing without their group, so every question goes through
it.  The constructor first computes the order from the Coxeter graph
(``coxeter_order``) and refuses infinite groups and groups of more than
10^6 elements.

Generators are indexed 1..rank throughout.  Reduced words serialize as digit
strings ("32123"), with "∅" for the identity — ranks above 9 would need a
different serialization and are rejected by the parser.

>>> W = coxeter_group("B2")
>>> W.elements()
range(0, 8)
>>> [W.word_str(w) for w in W.elements()]
['∅', '1', '2', '12', '21', '121', '212', '1212']
>>> W.length(W.longest_element())
4
"""

from __future__ import annotations

from itertools import compress
from math import factorial
from typing import Iterable, Sequence

from .laurent import _is_int

Element = int
Word = tuple[int, ...]

EMPTY_WORD_GLYPH = "∅"

_ENUM_CAP = 10**6


_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\0\1")


def mask_bits(mask: int) -> list[int]:
    """The positions of the set bits of a nonnegative ``mask``, ascending.

    >>> mask_bits(0b100101)
    [0, 2, 5]
    """
    flags = format(mask, "b")[::-1].encode().translate(_DIGIT_TO_FLAG)
    return list(compress(range(len(flags)), flags))


def _validate_matrix(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(matrix)
    rows = tuple(tuple(row) for row in matrix)
    for x in sum(rows, ()):
        if not _is_int(x):
            raise ValueError(f"Coxeter matrix entries must be integers, not {x!r}")
    if any(len(row) != n for row in rows):
        raise ValueError("Coxeter matrix must be square")
    for i in range(n):
        if rows[i][i] != 1:
            raise ValueError("diagonal Coxeter matrix entries must be 1")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("Coxeter matrix must be symmetric")
            if rows[i][j] < 2:
                raise ValueError("off-diagonal Coxeter matrix entries must be >= 2")
    return rows


def type_b_matrix(rank: int) -> tuple[tuple[int, ...], ...]:
    """Coxeter matrix of type B_rank: m(1,2)=4, m(i,i+1)=3 for i>=2."""
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    if rank >= 2:
        m[0][1] = m[1][0] = 4
    for i in range(1, rank - 1):
        m[i][i + 1] = m[i + 1][i] = 3
    return tuple(tuple(row) for row in m)


def coxeter_order(matrix: Sequence[Sequence[int]]) -> int | None:
    """The order of the Coxeter group of ``matrix``, or None if it is infinite.

    Each connected component of the Coxeter graph (edges where m >= 3) must
    be of finite type A_n, B_n, D_n, E_6-8, F_4, H_3, H_4 or I_2(m); the
    order is the product of the components' orders.

    >>> coxeter_order(type_b_matrix(4)), coxeter_order([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    (384, None)
    """
    rows = _validate_matrix(matrix)
    edges = [{j: m for j, m in enumerate(row) if m > 2} for row in rows]
    order, unseen = 1, set(range(len(rows)))
    while unseen:
        component = [unseen.pop()]
        for i in component:
            new = edges[i].keys() & unseen
            unseen -= new
            component.extend(new)
        factor = _irreducible_order(component, edges)
        if factor is None:
            return None
        order *= factor
    return order


def _irreducible_order(nodes: list[int], edges: list[dict[int, int]]) -> int | None:
    """The order of a connected Coxeter graph, or None if it is infinite."""
    k = len(nodes)
    if sum(len(edges[i]) for i in nodes) != 2 * (k - 1):
        return None  # a cycle
    if k <= 2:
        return 2 * max([1, *edges[nodes[0]].values()])  # A_1 or I_2(m)

    def walk(prev: int, cur: int) -> list[int]:
        """The path from the edge prev-cur to a leaf, as its nodes."""
        path = [cur]
        while len(edges[cur]) == 2:
            prev, cur = cur, next(j for j in edges[cur] if j != prev)
            path.append(cur)
        return path

    branches = [i for i in nodes if len(edges[i]) >= 3]
    if branches:
        if (len(branches) > 1 or len(edges[branches[0]]) > 3
                or any(m != 3 for i in nodes for m in edges[i].values())):
            return None
        arms = tuple(sorted(len(walk(branches[0], j)) for j in edges[branches[0]]))
        if arms[:2] == (1, 1):
            return 2 ** (k - 1) * factorial(k)  # D_k
        return {(1, 2, 2): 51840, (1, 2, 3): 2903040, (1, 2, 4): 696729600}.get(arms)
    leaf = next(i for i in nodes if len(edges[i]) == 1)
    path = [leaf, *walk(leaf, next(iter(edges[leaf])))]
    labels = tuple(edges[a][b] for a, b in zip(path, path[1:]))
    labels = max(labels, labels[::-1])
    if set(labels) == {3}:
        return factorial(k + 1)  # A_k
    if set(labels[1:]) == {3} and labels[0] == 4:
        return 2 ** k * factorial(k)  # B_k
    if set(labels[1:]) == {3} and labels[0] == 5 and k <= 4:
        return {3: 120, 4: 14400}[k]  # H_3, H_4
    return 1152 if labels == (3, 4, 3) else None  # F_4


class CoxeterGroup:
    """A finite Coxeter group, enumerated once from its Coxeter matrix.

    Elements are the integers ``range(order)``, numbered by length and then
    by lex-least reduced word:

    >>> W = CoxeterGroup([[1, 4], [4, 1]])
    >>> W.right_mult_gen(W.identity(), 2), W.left_mult_gen(2, 1), W.reduced_word(4)
    (2, 4, (2, 1))
    >>> W.right_descents(5), W.right_descents(7)
    (frozenset({1}), frozenset({1, 2}))
    """

    def __init__(self, matrix: Sequence[Sequence[int]], type_tag: str = "matrix"):
        self.matrix = _validate_matrix(matrix)
        self.rank = len(self.matrix)
        self.type_tag = type_tag
        order = coxeter_order(self.matrix)
        if order is None:
            raise ValueError("Coxeter matrix defines an infinite group")
        if order > _ENUM_CAP:
            raise ValueError(f"group order {order} exceeds enumeration cap {_ENUM_CAP}")
        self._parabolic_cache: dict[frozenset, tuple[Element, ...]] = {}
        self._generator_set = frozenset(self.generators())  # see _check_subset
        self._build_tables(order)

    def _build_tables(self, order: int) -> None:
        """Enumerate the group by length and fill every table.

        An element y of length l is z·s for some z of length l-1 with s not
        a right descent of z.  For t != s write z = u·x with u minimal in
        z·W_{s,t} and x in W_{s,t} (Björner–Brenti, Combinatorics of Coxeter
        Groups, §2.4); x is the alternating word of length k = l(z) - l(u)
        ending in t, peeled off by walking down from z by t, s, t, ... while
        the next letter is a right descent.  Then t is also a right descent
        of y iff k + 1 = m(s, t), and y = z'·t for z' = u·(the alternating
        word of length m - 1 ending in s).  So the pairs naming y are (z, s) and
        these (z', t), and their letters are y's right descents.  Candidates
        are visited in lex order of z + (s,), so the first pair met for y
        gives its lex-least word, and numbering elements as they are met
        numbers them in (length, word) order.

        Left products and inverses follow by length: if y = z·r for the last
        letter r of y's word, then s·y = (s·z)·r and y⁻¹ = r·z⁻¹, and every
        entry read on the right is indexed by an element shorter than y.

        There are at most 2^rank distinct descent sets, so each is stored once.
        """
        gens = self.generators()
        rmul = {s: [-1] * order for s in gens}  # -1: product not met yet
        length, words = [0] * order, [()] * order
        rdesc = [frozenset()] * order
        interned: dict[frozenset, frozenset] = {}
        n, level = 1, range(1)
        while level:
            for z in level:
                for s in gens:
                    if s in rdesc[z] or rmul[s][z] >= 0:
                        continue
                    y, n = n, n + 1
                    pairs = [(z, s)]
                    for t in gens:
                        if t == s:
                            continue
                        m = self.m(s, t)
                        u, letter = z, t
                        while letter in rdesc[u]:
                            u, letter = rmul[letter][u], s + t - letter
                        if length[z] - length[u] + 1 == m:
                            for i in range(m - 1):
                                u = rmul[s if (m - 1 - i) % 2 else t][u]
                            pairs.append((u, t))
                    for x, r in pairs:
                        rmul[r][x] = y
                        rmul[r][y] = x
                    length[y], words[y] = length[z] + 1, words[z] + (s,)
                    descents = frozenset(r for _, r in pairs)
                    rdesc[y] = interned.setdefault(descents, descents)
            level = range(level.stop, n)
        if n != order:
            raise AssertionError(f"enumerated {n} elements, expected {order}")
        lmul = {s: [0] * order for s in gens}
        inv = [0] * order
        for s in gens:
            lmul[s][0] = rmul[s][0]
        for y in range(1, order):
            r = words[y][-1]
            z = rmul[r][y]
            for s in gens:
                lmul[s][y] = rmul[r][lmul[s][z]]
            inv[y] = lmul[r][inv[z]]
        self._words, self._length, self._rmul, self._lmul = words, length, rmul, lmul
        self._inv, self._rdesc = inv, rdesc
        self._ldesc = [rdesc[x] for x in inv]
        self._coatom_lists: list[tuple[Element, ...]] = []  # see _coatoms
        self._masks: list[int] = []  # see bruhat_mask
        self._strs: list[str] = []  # see _word_strs
        self._element_of_str: dict[str, Element] = {}

    # -- table lookups ---------------------------------------------------------

    def elements(self) -> range:
        """All group elements: ``range(|W|)``, in (length, reduced word) order."""
        return range(len(self._length))

    def identity(self) -> Element:
        return 0

    # Each public lookup refuses what is not an element, since a bare list
    # index would read -1 as the longest element.  Hot loops bind the raw
    # lists once instead.

    def length(self, w: Element) -> int:
        self._check_element(w)
        return self._length[w]

    def reduced_word(self, w: Element) -> Word:
        """The lexicographically least reduced word for w."""
        self._check_element(w)
        return self._words[w]

    def right_descents(self, w: Element) -> frozenset:
        self._check_element(w)
        return self._rdesc[w]

    def left_descents(self, w: Element) -> frozenset:
        self._check_element(w)
        return self._ldesc[w]

    def inverse(self, w: Element) -> Element:
        self._check_element(w)
        return self._inv[w]

    def right_mult_gen(self, w: Element, i: int) -> Element:
        return self._mult_gen(self._rmul, i, w)

    def left_mult_gen(self, i: int, w: Element) -> Element:
        return self._mult_gen(self._lmul, i, w)

    def _mult_gen(self, table: dict[int, list[int]], i: int, w: Element) -> Element:
        """table[i][w], refusing what is not a generator or an element (a
        bare list index would read -1 as the longest element, and True would
        read as 1)."""
        if _is_int(i) and i in table and _is_int(w) and 0 <= w < len(self._length):
            return table[i][w]
        raise ValueError(f"no generator {i} or no element {w!r}")

    def generator(self, i: int) -> Element:
        return self.right_mult_gen(0, i)

    def product(self, *ws: Element) -> Element:
        """w_1·w_2···, by right multiplication along reduced words."""
        for w in ws:
            self._check_element(w)
        return self._product(*ws) if ws else 0

    def _product(self, *ws: Element) -> Element:
        """``product`` without the range checks, for elements read from the
        group's own tables; hot loops call it instead."""
        acc, rmul, words = ws[0], self._rmul, self._words
        for b in ws[1:]:
            for s in words[b]:
                acc = rmul[s][acc]
        return acc

    # -- words ---------------------------------------------------------------

    def m(self, i: int, j: int) -> int:
        return self.matrix[i - 1][j - 1]

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def from_word(self, word: Iterable[int]) -> Element:
        w = self.identity()
        for s in word:
            w = self.right_mult_gen(w, s)
        return w

    def _word_strs(self) -> list[str]:
        """Every element's ``word_str``, indexed by the element.  Built in one
        pass on first use, as the Bruhat masks are, together with the map
        from each string back to its element.  That map exists only for
        ranks up to 9: at rank 10, "110" is the string of s_1·s_10, which
        the letter loop of ``parse_word`` refuses."""
        if not self._strs:
            self._strs = [EMPTY_WORD_GLYPH] + ["".join(map(str, word)) for word in self._words[1:]]
            if self.rank <= 9:
                self._element_of_str = {text: w for w, text in enumerate(self._strs)}
        return self._strs

    def word_str(self, w: Element) -> str:
        self._check_element(w)
        return self._word_strs()[w]

    def parse_word(self, text: str) -> Element:
        """Inverse of word_str: digits (or ∅ / empty) to a group element.

        A canonical string is one dict lookup; any other spelling is read
        letter by letter:

        >>> W = coxeter_group("B2")
        >>> W.parse_word("121"), W.parse_word(" 2121 "), W.parse_word("")
        (5, 7, 0)
        """
        self._word_strs()  # fills the map from strings to elements
        w = self._element_of_str.get(text)
        if w is not None:
            return w
        text = text.strip()
        if text in ("", EMPTY_WORD_GLYPH):
            return self.identity()
        word = []
        for ch in text:
            if not ("1" <= ch <= "9" and int(ch) <= self.rank):  # isdigit() passes "²", "١"
                raise ValueError(f"bad generator {ch!r} in word {text!r}")
            word.append(int(ch))
        return self.from_word(word)

    def sort_key(self, w: Element) -> tuple[int, Word]:
        return (self.length(w), self.reduced_word(w))

    def in_parabolic(self, w: Element, J: Iterable[int]) -> bool:
        """Whether w lies in the standard parabolic subgroup W_J (its
        reduced words then use only letters from J)."""
        Jf = self._check_subset(J)
        self._check_element(w)
        return self._in_parabolic(w, Jf)

    def _in_parabolic(self, w: Element, Jf: frozenset) -> bool:
        """``in_parabolic`` without the checks, for an element of the group
        and a checked subset Jf."""
        return Jf.issuperset(self._words[w])

    def longest_element(self) -> Element:
        return len(self._length) - 1

    # -- Bruhat order ----------------------------------------------------------

    def _coatoms(self) -> list[tuple[Element, ...]]:
        """The Bruhat coatoms {y <= x : l(y) = l(x) - 1} of every x, indexed
        by x, built in one pass on first use.

        For x != e with s the last letter of its canonical word and z = x·s,
        the ideal of x is that of z together with its image under y ↦ y·s
        (the lifting property, Björner–Brenti, GTM 231, Prop. 2.2.7).  Its
        elements of length l(x) - 1 are z and the c·s for the coatoms c of
        z with c·s > c, so each coatom list comes from a shorter one.
        Elements are numbered by length, so c·s > c compares integers.

        >>> W = coxeter_group("B2")
        >>> [[W.word_str(y) for y in W._coatoms()[x]] for x in (5, 7)]
        [['12', '21'], ['121', '212']]
        """
        coatoms = self._coatom_lists
        if not coatoms:
            coatoms.append(())
            rmul, words = self._rmul, self._words
            for x in range(1, len(words)):
                ys = rmul[words[x][-1]]
                z = ys[x]
                coatoms.append((z, *[y for c in coatoms[z] if (y := ys[c]) > c]))
        return coatoms

    def bruhat_mask(self, w: Element) -> int:
        """The Bruhat ideal {y : y <= w} as an int with bit y set for each
        y; no bit lies above w, since elements are numbered by length.

        By the subword property (Björner–Brenti, GTM 231, §2.2) every
        y < x lies below a coatom of x, so the ideal of x is x together
        with the ideals of its coatoms: one OR per Bruhat cover.  Masks are
        filled in element order, every coatom before x, up to the largest
        w asked for.

        >>> W = coxeter_group("B2")
        >>> W.word_str(6), bin(W.bruhat_mask(6))  # all but 121 (5) and 1212 (7)
        ('212', '0b1011111')
        """
        self._check_element(w)
        masks = self._masks
        if w >= len(masks):
            coatoms = self._coatoms()
            for x in range(len(masks), w + 1):
                mask = 1 << x
                for c in coatoms[x]:
                    mask |= masks[c]
                masks.append(mask)
        return masks[w]

    def bruhat_leq(self, y: Element, w: Element) -> bool:
        """y <= w in Bruhat order."""
        self._check_element(y)
        return bool(self.bruhat_mask(w) >> y & 1)

    def bruhat_lower(self, w: Element) -> frozenset:
        """The set {y : y <= w}."""
        return frozenset(mask_bits(self.bruhat_mask(w)))

    def _check_element(self, w: Element) -> None:
        if not (_is_int(w) and 0 <= w < len(self._length)):
            raise ValueError(f"no element {w!r}")  # -1 would read the last one

    # -- parabolic machinery ----------------------------------------------------

    def _check_subset(self, J: Iterable[int]) -> frozenset:
        Jf = frozenset(J)
        if not Jf <= self._generator_set:
            raise ValueError(f"not a subset of generators: {sorted(Jf)}")
        return Jf

    def parabolic_elements(self, J: Iterable[int]) -> tuple[Element, ...]:
        """All elements of the standard parabolic subgroup W_J, sorted: those
        whose reduced word uses only letters from J."""
        Jf = self._check_subset(J)
        cached = self._parabolic_cache.get(Jf)
        if cached is None:
            cached = self._parabolic_cache[Jf] = tuple(
                w for w in self.elements() if self._in_parabolic(w, Jf))
        return cached

    def longest_in_parabolic(self, J: Iterable[int]) -> Element:
        """The longest element of W_J, the last in sorted order."""
        return self.parabolic_elements(J)[-1]

    def right_quotient(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique factorization w = a·b with a of minimal length in its
        coset wW_J (no right descents in J) and b in W_J; lengths add."""
        Jf = self._check_subset(J)
        self._check_element(w)
        rdesc, rmul, lmul = self._rdesc, self._rmul, self._lmul
        a, b = w, 0
        while True:
            ds = rdesc[a] & Jf
            if not ds:
                return a, b
            s = min(ds)
            a, b = rmul[s][a], lmul[s][b]

    def is_right_min(self, w: Element, J: Iterable[int]) -> bool:
        """w shortest in wW_J, i.e. no right descents in J."""
        self._check_element(w)
        return not (self._rdesc[w] & self._check_subset(J))

    def is_left_min(self, w: Element, J: Iterable[int]) -> bool:
        """w shortest in W_J w, i.e. no left descents in J."""
        self._check_element(w)
        return not (self._ldesc[w] & self._check_subset(J))

    def min_double_coset(self, K: Iterable[int], J: Iterable[int], w: Element) -> Element:
        """The minimal-length element of the double coset W_K w W_J,
        by alternately peeling left descents in K and right descents in J."""
        Kf = self._check_subset(K)
        Jf = self._check_subset(J)
        self._check_element(w)
        ldesc, rdesc, lmul, rmul = self._ldesc, self._rdesc, self._lmul, self._rmul
        u = w
        while True:
            lds = ldesc[u] & Kf
            if lds:
                u = lmul[min(lds)][u]
                continue
            rds = rdesc[u] & Jf
            if rds:
                u = rmul[min(rds)][u]
                continue
            return u

    def double_coset_reps(self, K: Iterable[int], J: Iterable[int]) -> tuple[Element, ...]:
        """All minimal double coset representatives ^K W^J, sorted."""
        Kf, Jf = self._check_subset(K), self._check_subset(J)
        return tuple(w for w in self.elements()
                     if not (self._ldesc[w] & Kf or self._rdesc[w] & Jf))

    # -- diagram automorphisms ---------------------------------------------------

    def automorphism(self, mapping: dict[int, int] | None = None) -> "DiagramAutomorphism":
        """A diagram automorphism from {i: δ(i)}; None gives the identity."""
        if mapping is None:
            mapping = {i: i for i in self.generators()}
        return DiagramAutomorphism(self, mapping)


class DiagramAutomorphism:
    """A permutation δ of the generator indices with m(δi, δj) = m(i, j),
    acting on the group by rewriting reduced words letterwise."""

    __slots__ = ("group", "perm", "_inv_perm", "_hash")

    def __init__(self, group: CoxeterGroup, mapping: dict[int, int]):
        for i in (*mapping, *mapping.values()):
            if not _is_int(i):
                raise ValueError(f"generator indices must be integers, not {i!r}")
        gens = set(group.generators())
        if set(mapping) != gens or set(mapping.values()) != gens:
            raise ValueError("mapping must permute the generator indices")
        for i in gens:
            for j in gens:
                if group.m(mapping[i], mapping[j]) != group.m(i, j):
                    raise ValueError(
                        f"not a diagram automorphism: m({i},{j}) != m(δ{i},δ{j})"
                    )
        self.group = group
        self.perm = dict(mapping)
        self._inv_perm = {v: k for k, v in mapping.items()}
        # hashed once: ``pieces.mu_J`` keys its memo by (J, δ) on every call
        self._hash = hash((id(group), frozenset(self.perm.items())))

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def on_set(self, J: Iterable[int]) -> frozenset:
        return frozenset(self.perm[i] for i in J)

    def apply(self, w: Element) -> Element:
        return self._rewrite(self.perm, w)

    def apply_inv(self, w: Element) -> Element:
        return self._rewrite(self._inv_perm, w)

    def _rewrite(self, perm: dict[int, int], w: Element) -> Element:
        """The element spelled by w's reduced word with each letter s
        replaced by perm[s]."""
        group = self.group
        group._check_element(w)
        acc, rmul = 0, group._rmul
        for s in group._words[w]:
            acc = rmul[perm[s]][acc]
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagramAutomorphism):
            return NotImplemented
        return self.group is other.group and self.perm == other.perm

    def __hash__(self) -> int:
        return self._hash


def coxeter_group(spec: str | Sequence[Sequence[int]]) -> CoxeterGroup:
    """Build a group from a type string ("B4") or an explicit Coxeter matrix.

    >>> coxeter_group("B4").type_tag
    'B4'
    >>> coxeter_group([[1, 3], [3, 1]]).type_tag
    'matrix'
    """
    if isinstance(spec, str):
        tag = spec.strip()
        if tag.startswith("B") and tag[1:].isascii() and tag[1:].isdigit():
            rank = int(tag[1:])
            if rank < 1:
                raise ValueError("rank must be >= 1")
            return CoxeterGroup(type_b_matrix(rank), f"B{rank}")
        raise ValueError(f"unknown group type {tag!r} (expected B<rank> or a matrix)")
    return CoxeterGroup(spec)
