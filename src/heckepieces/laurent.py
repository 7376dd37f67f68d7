"""Exact arithmetic in the ring A = Z[v, v^-1] of integer Laurent polynomials.

Every coefficient in this package lives in A; floating point is never used.
A Laurent polynomial is stored as a sparse map {exponent: coefficient} with
no zero coefficients, so equality of the underlying dicts is equality in A.

The bar involution is the ring automorphism v |-> v^-1.  Several predicates
that the Hecke-algebra layer needs (membership in Z[v^-1], in v^-1 Z[v^-1],
bar-symmetry, coefficient nonnegativity) are provided here so callers never
poke at the internal dict.

>>> p = (ONE + v_power(2)) ** 2 * (ONE + v_power(4))
>>> p.text()
'1 + 2v^2 + 2v^4 + 2v^6 + v^8'
>>> p.bar().text()
'v^-8 + 2v^-6 + 2v^-4 + 2v^-2 + 1'
>>> p.exact_div(ONE + v_power(2)).text()
'1 + v^2 + v^4 + v^6'
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union


def _is_int(x) -> bool:
    return type(x) is int  # refuses bool, a subclass of int


def _raw(terms: dict) -> "Laurent":
    """The polynomial with these terms, which must already be clean."""
    p = Laurent.__new__(Laurent)
    p._terms = terms
    return p


def _const(n: int) -> "Laurent":
    """An int operand as a polynomial; a bool counts as 0 or 1, as in int
    arithmetic."""
    return _raw({0: int(n)} if n else {})


def add_into(out: dict, pairs: Iterable[tuple], c=None) -> dict:
    """Add c·x to out[k] for each (k, x) in pairs (x itself when c is None),
    drop every key whose sum is zero, and return out.

    This is the one sparse accumulation loop of the package: Laurent
    polynomials, Hecke elements and character-sheaf vectors all keep sparse
    maps without zero values and sum them here.  Values may be ints or
    Laurent polynomials.

    >>> add_into({1: 2, 2: 5}, [(1, -2), (3, 4)])
    {2: 5, 3: 4}
    >>> add_into({"a": ONE, "b": ONE}, [("a", v_power(1)), ("c", ONE)], -v_power(-1))
    {'b': Laurent('1'), 'c': Laurent('-v^-1')}
    """
    for k, x in pairs:
        if c is not None:
            x = c * x
        s = out.get(k)
        s = x if s is None else s + x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Laurent:
    """An element of Z[v, v^-1], immutable by convention.

    Invariant: ``_terms`` maps int exponents to nonzero int coefficients.
    The constructor refuses any exponent or coefficient that is not an int,
    bools included, and drops zero coefficients.  Arithmetic, ``shift`` and
    ``bar`` map clean terms to clean terms, so they build their results'
    dicts directly and skip both.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                if not (_is_int(e) and _is_int(c)):
                    raise TypeError(f"Laurent terms must be int: int, not {e!r}: {c!r}")
                if c:
                    cleaned[e] = c
        self._terms = cleaned

    # -- container-ish access ----------------------------------------------

    def coeff(self, exp: int) -> int:
        """Coefficient of v^exp (0 if absent)."""
        return self._terms.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self._terms)

    # -- ring structure ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Constants compare equal to ints, so they must hash like them.
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Laurent":
        return _raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other: Union["Laurent", int]) -> "Laurent":
        if isinstance(other, int):
            other = _const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return _raw(add_into(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other: Union["Laurent", int]) -> "Laurent":
        if isinstance(other, int):
            other = _const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["Laurent", int]) -> "Laurent":
        return (-self) + other

    def __mul__(self, other: Union["Laurent", int]) -> "Laurent":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative powers only defined for monomials; use shift")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, exp: int) -> "Laurent":
        """Multiply by v^exp."""
        if not _is_int(exp):
            raise TypeError(f"shift exponent must be an int, not {exp!r}")
        return _raw({e + exp: c for e, c in self._terms.items()})

    def exact_div(self, other: Union["Laurent", int]) -> "Laurent":
        """Exact quotient self/other in Z[v,v^-1]; ValueError if not divisible.
        An int divisor is the constant it stands for, as in ``+`` and ``*``.

        >>> (v_power(-1) + v_power(1)).exact_div(v_power(-1) + v_power(1)).text()
        '1'
        >>> (ONE + v_power(2)).exact_div(v_power(1)).text()
        'v^-1 + v'
        """
        if isinstance(other, int):
            other = _const(other)
        elif not isinstance(other, Laurent):
            raise TypeError(f"cannot divide by {other!r}")
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO
        lead_exp = other.max_exp()
        lead_coeff = other._terms[lead_exp]
        # quotient exponents are bounded below by this bound when divisible
        low_bound = self.min_exp() - other.min_exp()
        rem = dict(self._terms)
        out: dict[int, int] = {}
        while rem:
            e = max(rem)
            qexp = e - lead_exp
            qcoeff, r = divmod(rem[e], lead_coeff)
            if r or qexp < low_bound:
                raise ValueError("not exactly divisible")
            out[qexp] = qcoeff
            for e2, c2 in other._terms.items():
                t = e2 + qexp
                s = rem.get(t, 0) - qcoeff * c2
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return Laurent(out)

    # -- the bar involution and predicates ----------------------------------

    def bar(self) -> "Laurent":
        """The image under v |-> v^-1."""
        return _raw({-e: c for e, c in self._terms.items()})

    def is_bar_symmetric(self) -> bool:
        """True iff fixed by v |-> v^-1."""
        return all(self._terms.get(-e, 0) == c for e, c in self._terms.items())

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self._terms.values())

    def in_v_minus(self) -> bool:
        """True iff self lies in Z[v^-1] (no positive exponents)."""
        return all(e <= 0 for e in self._terms)

    def in_v_minus_strict(self) -> bool:
        """True iff self lies in v^-1 Z[v^-1] (all exponents negative)."""
        return all(e < 0 for e in self._terms)

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Human-readable form, ascending exponents, explicit signs.

        >>> Laurent({-3: 1, 0: 2, 5: 1}).text()
        'v^-3 + 2 + v^5'
        >>> Laurent({2: -3, 0: 1}).text()
        '1 - 3v^2'
        >>> ZERO.text()
        '0'
        """
        if not self._terms:
            return "0"
        chunks = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Laurent({self.text()!r})"


ZERO = Laurent()
ONE = Laurent({0: 1})


def v_power(exp: int) -> Laurent:
    """The monomial v^exp."""
    return Laurent({exp: 1})


def bar_symmetric_head(p: Laurent) -> Laurent:
    """The unique bar-symmetric polynomial agreeing with p in degrees >= 0.

    Writing p = sum_e p_e v^e, this is p_0 + sum_{e>0} p_e (v^e + v^-e);
    subtracting it from p leaves an element of v^-1 Z[v^-1].  This is the
    correction step used when building canonical bases.

    >>> bar_symmetric_head(Laurent({-2: 7, 0: 3, 1: 5})).text()
    '5v^-1 + 3 + 5v'
    """
    out: dict[int, int] = {}
    for e, c in p._terms.items():
        if e >= 0:
            out[e] = out[-e] = c
    return _raw(out)
