"""Finite Coxeter groups with exact element arithmetic.

Two backends share one interface:

* ``SignedPermutationGroup`` — the hyperoctahedral group of rank n (type B_n),
  whose elements are tuples (w(1), ..., w(n)) of signed integers with
  |w(1)|, ..., |w(n)| a permutation of 1..n.  Generator s_1 flips the sign in
  position 1; s_i for i >= 2 swaps positions i-1 and i.  Length, descents and
  products are computed directly from the window notation.

* ``GenericCoxeterGroup`` — any finite Coxeter matrix.  The constructor
  enumerates the whole group (with a hard cap) one length at a time and
  stores its right Cayley table and right descent sets; products, inverses
  and descents are then table lookups.  Which words name the same element
  is decided by a rank-2 coset rule that needs only the matrix entries
  m(s, t), so groups with tens of thousands of elements (H4, E6) enumerate
  directly.

Elements of the generic backend are canonical reduced words (tuples of
generator indices); elements of the signed backend are window tuples.  In
both cases elements are hashable values, and all structural questions go
through the owning group object.

Generators are indexed 1..rank throughout.  Reduced words serialize as digit
strings ("32123"), with "∅" for the identity — ranks above 9 would need a
different serialization and are rejected by the parser.

>>> W = coxeter_group("B2")
>>> sorted(W.word_str(w) for w in W.elements())
['1', '12', '121', '1212', '2', '21', '212', '∅']
>>> W.length(W.longest_element())
4
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Sequence

Element = Hashable
Word = tuple[int, ...]

EMPTY_WORD_GLYPH = "∅"

_ENUM_CAP = 10**6


def _validate_matrix(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(matrix)
    rows = tuple(tuple(int(x) for x in row) for row in matrix)
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


class CoxeterGroup:
    """Shared interface and derived operations for both backends."""

    rank: int
    matrix: tuple[tuple[int, ...], ...]
    type_tag: str

    def __init__(self) -> None:
        self._word_cache: dict[Element, Word] = {}
        self._lower_cache: dict[Element, frozenset] = {}
        self._elements_cache: tuple[Element, ...] | None = None
        self._parabolic_cache: dict[frozenset, tuple[Element, ...]] = {}

    # -- primitives each backend provides ------------------------------------

    def identity(self) -> Element:
        raise NotImplementedError

    def generator(self, i: int) -> Element:
        raise NotImplementedError

    def right_mult_gen(self, w: Element, i: int) -> Element:
        raise NotImplementedError

    def left_mult_gen(self, i: int, w: Element) -> Element:
        raise NotImplementedError

    def product(self, *ws: Element) -> Element:
        raise NotImplementedError

    def inverse(self, w: Element) -> Element:
        raise NotImplementedError

    def length(self, w: Element) -> int:
        raise NotImplementedError

    def right_descents(self, w: Element) -> frozenset:
        raise NotImplementedError

    def elements(self) -> tuple[Element, ...]:
        """All group elements, sorted by (length, reduced word)."""
        raise NotImplementedError

    # -- words ---------------------------------------------------------------

    def m(self, i: int, j: int) -> int:
        return self.matrix[i - 1][j - 1]

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def left_descents(self, w: Element) -> frozenset:
        return self.right_descents(self.inverse(w))

    def reduced_word(self, w: Element) -> Word:
        """The lexicographically least reduced word for w.

        Greedy: the first letters of reduced words of w are exactly the left
        descents, so peeling the smallest left descent at each step yields
        the lex-least word.
        """
        cached = self._word_cache.get(w)
        if cached is not None:
            return cached
        word = []
        u = w
        while u != self.identity():
            s = min(self.left_descents(u))
            word.append(s)
            u = self.left_mult_gen(s, u)
        result = tuple(word)
        self._word_cache[w] = result
        return result

    def from_word(self, word: Iterable[int]) -> Element:
        w = self.identity()
        for s in word:
            w = self.right_mult_gen(w, s)
        return w

    def word_str(self, w: Element) -> str:
        word = self.reduced_word(w)
        return "".join(str(s) for s in word) if word else EMPTY_WORD_GLYPH

    def parse_word(self, text: str) -> Element:
        """Inverse of word_str: digits (or ∅ / empty) to a group element."""
        text = text.strip()
        if text in ("", EMPTY_WORD_GLYPH):
            return self.identity()
        word = []
        for ch in text:
            if not ch.isdigit() or not 1 <= int(ch) <= self.rank:
                raise ValueError(f"bad generator {ch!r} in word {text!r}")
            word.append(int(ch))
        return self.from_word(word)

    def sort_key(self, w: Element) -> tuple[int, Word]:
        return (self.length(w), self.reduced_word(w))

    def as_generator_index(self, w: Element) -> int | None:
        """The index i with w = s_i, or None if w is not a generator."""
        if self.length(w) != 1:
            return None
        return self.reduced_word(w)[0]

    def in_parabolic(self, w: Element, J: Iterable[int]) -> bool:
        """Whether w lies in the standard parabolic subgroup W_J (its
        reduced words then use only letters from J)."""
        return set(self.reduced_word(w)) <= self._check_subset(J)

    def longest_element(self) -> Element:
        return self.longest_in_parabolic(frozenset(self.generators()))

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, y: Element, w: Element) -> bool:
        """y <= w in Bruhat order, by the one-pass descent scan:

        walking the letters s of a reduced word of w from the left, replace
        the running element u (initially y) by su whenever that shortens it;
        y <= w iff u ends at the identity.
        """
        if self.length(y) > self.length(w):
            return False
        u = y
        e = self.identity()
        for s in self.reduced_word(w):
            if u == e:
                return True
            su = self.left_mult_gen(s, u)
            if self.length(su) < self.length(u):
                u = su
        return u == e

    def bruhat_lower(self, w: Element) -> frozenset:
        """The set {y : y <= w}, built by the recursion
        lower(w) = lower(sw) ∪ s·lower(sw) for any left descent s of w."""
        cached = self._lower_cache.get(w)
        if cached is not None:
            return cached
        if w == self.identity():
            result = frozenset([w])
        else:
            s = min(self.left_descents(w))
            below = self.bruhat_lower(self.left_mult_gen(s, w))
            result = frozenset(below | {self.left_mult_gen(s, x) for x in below})
        self._lower_cache[w] = result
        return result

    # -- parabolic machinery ----------------------------------------------------

    def _check_subset(self, J: Iterable[int]) -> frozenset:
        Jf = frozenset(J)
        if not Jf <= set(self.generators()):
            raise ValueError(f"not a subset of generators: {sorted(Jf)}")
        return Jf

    def parabolic_elements(self, J: Iterable[int]) -> tuple[Element, ...]:
        """All elements of the standard parabolic subgroup W_J, sorted."""
        Jf = self._check_subset(J)
        cached = self._parabolic_cache.get(Jf)
        if cached is not None:
            return cached
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt = []
            for w in frontier:
                for s in Jf:
                    ws = self.right_mult_gen(w, s)
                    if ws not in seen:
                        seen.add(ws)
                        nxt.append(ws)
            frontier = nxt
        result = tuple(sorted(seen, key=self.sort_key))
        self._parabolic_cache[Jf] = result
        return result

    def longest_in_parabolic(self, J: Iterable[int]) -> Element:
        """The longest element of W_J, by greedy ascent."""
        Jf = self._check_subset(J)
        u = self.identity()
        while True:
            for s in Jf:
                us = self.right_mult_gen(u, s)
                if self.length(us) > self.length(u):
                    u = us
                    break
            else:
                return u

    def right_quotient(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique factorization w = a·b with a of minimal length in its
        coset wW_J (no right descents in J) and b in W_J; lengths add."""
        Jf = self._check_subset(J)
        a, b = w, self.identity()
        while True:
            ds = self.right_descents(a) & Jf
            if not ds:
                return a, b
            s = min(ds)
            a = self.right_mult_gen(a, s)
            b = self.left_mult_gen(s, b)

    def left_quotient(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique factorization w = b·a with b in W_J and a of minimal
        length in W_J w (no left descents in J); lengths add."""
        Jf = self._check_subset(J)
        a, b = w, self.identity()
        while True:
            ds = self.left_descents(a) & Jf
            if not ds:
                return b, a
            s = min(ds)
            a = self.left_mult_gen(s, a)
            b = self.right_mult_gen(b, s)

    def is_right_min(self, w: Element, J: Iterable[int]) -> bool:
        """w shortest in wW_J, i.e. no right descents in J."""
        return not (self.right_descents(w) & self._check_subset(J))

    def is_left_min(self, w: Element, J: Iterable[int]) -> bool:
        """w shortest in W_J w, i.e. no left descents in J."""
        return not (self.left_descents(w) & self._check_subset(J))

    def min_double_coset(self, K: Iterable[int], J: Iterable[int], w: Element) -> Element:
        """The minimal-length element of the double coset W_K w W_J,
        by alternately peeling left descents in K and right descents in J."""
        Kf = self._check_subset(K)
        Jf = self._check_subset(J)
        u = w
        while True:
            lds = self.left_descents(u) & Kf
            if lds:
                u = self.left_mult_gen(min(lds), u)
                continue
            rds = self.right_descents(u) & Jf
            if rds:
                u = self.right_mult_gen(u, min(rds))
                continue
            return u

    def double_coset_reps(self, K: Iterable[int], J: Iterable[int]) -> tuple[Element, ...]:
        """All minimal double coset representatives ^K W^J, sorted."""
        Kf = self._check_subset(K)
        Jf = self._check_subset(J)
        return tuple(
            w
            for w in self.elements()
            if self.is_left_min(w, Kf) and self.is_right_min(w, Jf)
        )

    # -- diagram automorphisms ---------------------------------------------------

    def automorphism(self, mapping: dict[int, int] | None = None) -> "DiagramAutomorphism":
        """A diagram automorphism from {i: δ(i)}; None gives the identity."""
        if mapping is None:
            mapping = {i: i for i in self.generators()}
        return DiagramAutomorphism(self, mapping)


class DiagramAutomorphism:
    """A permutation δ of the generator indices with m(δi, δj) = m(i, j),
    acting on the group by rewriting reduced words letterwise."""

    __slots__ = ("group", "perm", "_inv_perm")

    def __init__(self, group: CoxeterGroup, mapping: dict[int, int]):
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

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def inv(self, i: int) -> int:
        return self._inv_perm[i]

    def is_identity(self) -> bool:
        return all(v == k for k, v in self.perm.items())

    def on_set(self, J: Iterable[int]) -> frozenset:
        return frozenset(self.perm[i] for i in J)

    def inv_on_set(self, J: Iterable[int]) -> frozenset:
        return frozenset(self._inv_perm[i] for i in J)

    def apply(self, w: Element) -> Element:
        if self.is_identity():
            return w
        return self.group.from_word(self.perm[s] for s in self.group.reduced_word(w))

    def apply_inv(self, w: Element) -> Element:
        if self.is_identity():
            return w
        return self.group.from_word(self._inv_perm[s] for s in self.group.reduced_word(w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagramAutomorphism):
            return NotImplemented
        return self.group is other.group and self.perm == other.perm

    def __hash__(self) -> int:
        return hash((id(self.group), frozenset(self.perm.items())))


class SignedPermutationGroup(CoxeterGroup):
    """Type B_n as signed permutations in window notation.

    An element is the tuple (w(1), ..., w(n)); w(-i) = -w(i) is implicit.
    Right multiplication by s_i permutes positions, left multiplication
    permutes values:

    >>> W = SignedPermutationGroup(2)
    >>> W.right_mult_gen((1, 2), 1)
    (-1, 2)
    >>> W.right_mult_gen((1, 2), 2)
    (2, 1)
    >>> W.length((-2, -1))
    3
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        super().__init__()
        self.rank = rank
        self.matrix = type_b_matrix(rank)
        self.type_tag = f"B{rank}"

    def identity(self) -> Word:
        return tuple(range(1, self.rank + 1))

    def generator(self, i: int):
        return self.right_mult_gen(self.identity(), i)

    def right_mult_gen(self, w, i: int):
        if i == 1:
            return (-w[0],) + w[1:]
        if not 2 <= i <= self.rank:
            raise ValueError(f"no generator {i}")
        lst = list(w)
        lst[i - 2], lst[i - 1] = lst[i - 1], lst[i - 2]
        return tuple(lst)

    def left_mult_gen(self, i: int, w):
        # s_i * w changes values: s_1 negates ±1, s_i swaps values ±(i-1), ±i
        if i == 1:
            return tuple(-x if abs(x) == 1 else x for x in w)
        if not 2 <= i <= self.rank:
            raise ValueError(f"no generator {i}")
        a, b = i - 1, i
        out = []
        for x in w:
            if abs(x) == a:
                out.append(b if x > 0 else -b)
            elif abs(x) == b:
                out.append(a if x > 0 else -a)
            else:
                out.append(x)
        return tuple(out)

    def product(self, *ws):
        """Composition (a·b)(j) = a(b(j)), folded left to right."""
        if not ws:
            return self.identity()
        acc = ws[0]
        for b in ws[1:]:
            acc = tuple(
                acc[x - 1] if x > 0 else -acc[-x - 1]
                for x in b
            )
        return acc

    def inverse(self, w):
        out = [0] * self.rank
        for pos, val in enumerate(w, start=1):
            if val > 0:
                out[val - 1] = pos
            else:
                out[-val - 1] = -pos
        return tuple(out)

    def length(self, w) -> int:
        """inv(w) + neg(w) + nsp(w) — inversions, negative entries, and
        pairs summing negative — the Coxeter length for this generator set."""
        n = self.rank
        inv = neg = nsp = 0
        for i in range(n):
            if w[i] < 0:
                neg += 1
            for j in range(i + 1, n):
                if w[i] > w[j]:
                    inv += 1
                if w[i] + w[j] < 0:
                    nsp += 1
        return inv + neg + nsp

    def right_descents(self, w) -> frozenset:
        ds = set()
        if w[0] < 0:
            ds.add(1)
        for i in range(2, self.rank + 1):
            if w[i - 2] > w[i - 1]:
                ds.add(i)
        return frozenset(ds)

    def elements(self):
        if self._elements_cache is None:
            n = self.rank
            elems = []
            for perm in itertools.permutations(range(1, n + 1)):
                for signs in itertools.product((1, -1), repeat=n):
                    elems.append(tuple(p * s for p, s in zip(perm, signs)))
            self._elements_cache = tuple(sorted(elems, key=self.sort_key))
        return self._elements_cache


class GenericCoxeterGroup(CoxeterGroup):
    """A finite Coxeter group enumerated from its matrix.

    Elements are canonical (lexicographically least) reduced words.  The
    constructor builds the right Cayley table and the right descent sets
    one length at a time (``_build_tables``); every operation then reads
    those tables.

    >>> W = GenericCoxeterGroup([[1, 4], [4, 1]])
    >>> len(W.elements())
    8
    >>> W.right_descents((1, 2, 1)), W.right_descents((1, 2, 1, 2))
    (frozenset({1}), frozenset({1, 2}))
    """

    def __init__(self, matrix: Sequence[Sequence[int]], type_tag: str = "matrix",
                 cap: int = _ENUM_CAP):
        super().__init__()
        self.matrix = _validate_matrix(matrix)
        self.rank = len(self.matrix)
        self.type_tag = type_tag
        self._build_tables(cap)

    def _build_tables(self, cap: int) -> None:
        """Fill the right Cayley table and right descent sets by length.

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
        gives its lex-least word.
        """
        table: dict[tuple[Word, int], Word] = {}
        descents: dict[Word, frozenset] = {(): frozenset()}
        level: list[Word] = [()]
        elements: list[Word] = [()]
        while level:
            nxt = []
            for z in level:
                for s in self.generators():
                    if s in descents[z] or (z, s) in table:
                        continue
                    y = z + (s,)
                    pairs = [(z, s)]
                    for t in self.generators():
                        if t == s:
                            continue
                        m = self.m(s, t)
                        u, letter = z, t
                        while letter in descents[u]:
                            u, letter = table[(u, letter)], s + t - letter
                        if len(z) - len(u) + 1 == m:
                            for i in range(m - 1):
                                u = table[(u, s if (m - 1 - i) % 2 else t)]
                            pairs.append((u, t))
                    for x, r in pairs:
                        table[(x, r)] = y
                        table[(y, r)] = x
                    descents[y] = frozenset(r for _, r in pairs)
                    nxt.append(y)
                    if len(elements) + len(nxt) > cap:
                        raise ValueError(
                            f"group exceeds enumeration cap {cap}; "
                            "matrix may define an infinite group"
                        )
            elements.extend(nxt)
            level = nxt
        self._table = table
        self._descents = descents
        self._elements_cache = tuple(elements)

    # -- interface ------------------------------------------------------------

    def identity(self) -> Word:
        return ()

    def generator(self, i: int) -> Word:
        if not 1 <= i <= self.rank:
            raise ValueError(f"no generator {i}")
        return (i,)

    def right_mult_gen(self, w: Word, i: int) -> Word:
        return self._table[(w, i)]

    def left_mult_gen(self, i: int, w: Word) -> Word:
        return self.product((i,), w)

    def product(self, *ws: Word) -> Word:
        acc: Word = ()
        for b in ws:
            for s in b:
                acc = self._table[(acc, s)]
        return acc

    def inverse(self, w: Word) -> Word:
        return self.from_word(reversed(w))

    def length(self, w: Word) -> int:
        return len(w)

    def right_descents(self, w: Word) -> frozenset:
        return self._descents[w]

    def reduced_word(self, w: Word) -> Word:
        return w

    def elements(self) -> tuple[Word, ...]:
        return self._elements_cache


def coxeter_group(spec: str | Sequence[Sequence[int]], cap: int = _ENUM_CAP) -> CoxeterGroup:
    """Build a group from a type string ("B4") or an explicit Coxeter matrix.

    >>> coxeter_group("B4").type_tag
    'B4'
    >>> coxeter_group([[1, 3], [3, 1]]).type_tag
    'matrix'
    """
    if isinstance(spec, str):
        tag = spec.strip()
        if tag.startswith("B") and tag[1:].isdigit():
            return SignedPermutationGroup(int(tag[1:]))
        raise ValueError(f"unknown group type {tag!r} (expected B<rank> or a matrix)")
    return GenericCoxeterGroup(spec, cap=cap)
