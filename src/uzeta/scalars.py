"""Exact coefficient arithmetic.

Four layers, all exact and immutable:

* ``Laurent`` -- Laurent polynomials in q with rational coefficients,
  each an ``int`` when it is integral and a ``Fraction`` otherwise;
* ``QFraction`` -- the fraction field of ``Laurent`` (used while
  computing braid images, where q-factorial denominators appear);
* ``Localized`` -- a Laurent numerator together with a monomial
  denominator in the distinguished multiplicative set of the root type
  (trivial set for simply-laced, {q^2-q^-2} for two root lengths,
  plus {q^3-q^-3} for the triple bond);
* residue fields at a primitive root of unity: the cyclotomic field
  Q[q]/Phi_ell(q) and finite fields F_{p^n} with n the multiplicative
  order of p mod ell, so a primitive ell-th root exists in both.  Both
  are Z[x] modulo a monic ``modulus``, reduced mod p in F_{p^n}, so a
  product is an integer convolution folded through the powers of x
  modulo the modulus; an inverse goes through the Galois norm in the
  cyclotomic field (``CycloField``) and is a^(p^n - 2) in F_{p^n}
  (``GaloisField``).  No ``Fraction`` arithmetic runs in either.

The two residue fields share one layer and one element type.  A
``ResidueElement`` is a vector of integers over one positive
denominator, kept canonical by its field, and does all its arithmetic,
division and powers itself.  ``_ResidueField`` coerces, evaluates
Laurent polynomials, fractions and localized scalars at zeta, and owns
the product ``_raw_mul`` and the memoized ``_mul`` and ``_inv``; each
field supplies only its modulus, its canonical form ``_reduced``, its
raw inverse ``_raw_inv``, and its printing.
Every power, in every layer, is the one square-and-multiply ``_power``,
and every power of x modulo a modulus comes from ``_x_powers``.

A verdict touches few distinct field values, and combines the same
pairs of them over and over.  So each field interns its elements
(hash-consing: Filliatre and Conchon, "Type-safe modular hash-consing",
ML Workshop 2006): one live object per value, held in a weak-valued
table, so equality and hashing are by identity.  Sums, differences,
negatives, products and inverses then go through five
``functools.lru_cache`` memos of ``MEMO_SIZE`` entries keyed on the
interned operands (``_ResidueField``), and a recurring operation is a
table lookup.

Quantum integers, factorials and binomials live here as well.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

# entries in each of a residue field's five arithmetic memos
MEMO_SIZE = 4096


def _power(x, n: int, one, mul=operator.mul):
    """x**n for n >= 0 by square-and-multiply with the product ``mul``,
    starting from ``one``."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        x = mul(x, x)
        n >>= 1
    return out


def _coefficient(x):
    """x as a Laurent coefficient: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"a Laurent coefficient is an int or a Fraction, not {x!r}")


def _exact_div(a, b):
    """a / b for int or Fraction operands, exactly: never a float."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return a / b


class Laurent:
    """Laurent polynomial sum(c[i] * q**(lo+i)) with rational coefficients.

    Canonical form: empty coefficient tuple for zero, otherwise the first
    and last entries are nonzero; a coefficient is an ``int`` when it is
    integral and a ``Fraction`` otherwise (``_coefficient``), so integral
    arithmetic never builds a ``Fraction``.
    """

    __slots__ = ("lo", "c")

    def __init__(self, lo: int = 0, coeffs: Sequence = ()):
        for x in coeffs:
            if type(x) is not int:
                coeffs = [_coefficient(y) for y in coeffs]
                break
        i, j = 0, len(coeffs)
        while i < j and not coeffs[i]:
            i += 1
        while j > i and not coeffs[j - 1]:
            j -= 1
        self.lo = lo + i if i < j else 0
        self.c = tuple(coeffs[i:j])

    @staticmethod
    def const(x) -> "Laurent":
        return Laurent(0, (x,))

    @staticmethod
    def q_power(n: int, coeff=1) -> "Laurent":
        return Laurent(n, (coeff,))

    @property
    def hi(self) -> int:
        return self.lo + len(self.c) - 1

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Laurent.const(other)
        return isinstance(other, Laurent) and self.lo == other.lo and self.c == other.c

    def __hash__(self):
        return hash((self.lo, self.c))

    def __neg__(self) -> "Laurent":
        return Laurent(self.lo, tuple(-x for x in self.c))

    def __add__(self, other) -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        if not self.c:
            return other
        if not other.c:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        buf = [0] * (hi - lo + 1)
        for i, x in enumerate(self.c):
            buf[self.lo - lo + i] += x
        for i, x in enumerate(other.c):
            buf[other.lo - lo + i] += x
        return Laurent(lo, buf)

    __radd__ = __add__

    def __sub__(self, other) -> "Laurent":
        return self + (-other if isinstance(other, Laurent) else Laurent.const(-other))

    def __rsub__(self, other) -> "Laurent":
        return (-self) + other

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Laurent()
            return Laurent(self.lo, tuple(x * other for x in self.c))
        if not isinstance(other, Laurent):
            return NotImplemented
        if not self.c or not other.c:
            return Laurent()
        if len(other.c) == 1:
            x = other.c[0]
            if x == 1:
                return self.shift(other.lo)
            return Laurent(self.lo + other.lo, tuple(y * x for y in self.c))
        if len(self.c) == 1:
            x = self.c[0]
            if x == 1:
                return other.shift(self.lo)
            return Laurent(self.lo + other.lo, tuple(y * x for y in other.c))
        buf = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    if y:
                        buf[i + j] += x * y
        return Laurent(self.lo + other.lo, buf)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        return _power(self, n, L_ONE)

    def shift(self, n: int) -> "Laurent":
        return Laurent(self.lo + n, self.c)

    def divmod_by(self, other: "Laurent") -> Tuple["Laurent", "Laurent"]:
        """Division with remainder, ignoring overall q-powers."""
        if not other:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        rem = list(self.c)
        rlo = self.lo
        d = list(other.c)
        qt = {}
        lead = d[-1]
        while len(rem) >= len(d):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < len(d):
                break
            f = _exact_div(rem[-1], lead)
            k = len(rem) - len(d)
            qt[rlo + k - other.lo] = f
            for i, y in enumerate(d):
                rem[k + i] -= f * y
            rem.pop()
        if qt:
            qlo = min(qt)
            qbuf = [qt.get(i, 0) for i in range(qlo, max(qt) + 1)]
            quo = Laurent(qlo, qbuf)
        else:
            quo = Laurent()
        return quo, Laurent(rlo, rem)

    def exact_div(self, other: "Laurent") -> "Laurent":
        quo, rem = self.divmod_by(other)
        if rem:
            raise ArithmeticError("non-exact Laurent division")
        return quo

    def is_unit(self) -> bool:
        """True for c*q^n with c != 0."""
        return len(self.c) == 1

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i, x in enumerate(self.c):
            if not x:
                continue
            n = self.lo + i
            if n == 0:
                parts.append(f"{x}")
            elif n == 1:
                parts.append(f"{x}*q")
            else:
                parts.append(f"{x}*q^{n}")
        return " + ".join(parts)

    __repr__ = __str__


L_ZERO = Laurent()
L_ONE = Laurent.const(1)
_ONE_C = (1,)


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Monic gcd as polynomials (q-power factors are units here)."""
    a0, b0 = a, b
    while b0:
        _, r = a0.divmod_by(b0)
        a0, b0 = b0, r
    if not a0:
        return Laurent()
    lead = a0.c[-1]
    return Laurent(0, tuple(_exact_div(x, lead) for x in a0.c))


class QFraction:
    """Element of Q(q) as a reduced fraction of Laurent polynomials.

    Canonical form: denominator is a genuine polynomial with nonzero
    constant term and leading coefficient one; gcd(num, den) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent = L_ONE):
        if den.c == _ONE_C:
            if den.lo == 0:
                self.num, self.den = num, L_ONE
            else:
                self.num, self.den = num.shift(-den.lo), L_ONE
            return
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            self.num, self.den = L_ZERO, L_ONE
            return
        if not den.is_unit():
            g = laurent_gcd(num, den)
            if not g.is_unit():
                num = num.exact_div(g)
                den = den.exact_div(g)
        # normalize: den = monic polynomial, constant term nonzero
        shift = -den.lo
        lead = den.c[-1]
        if lead == 1:
            den = Laurent(0, den.c)
            num = num.shift(shift)
        else:
            den = Laurent(0, tuple(_exact_div(x, lead) for x in den.c))
            num = Laurent(num.lo + shift, tuple(_exact_div(x, lead) for x in num.c))
        self.num, self.den = num, den

    @staticmethod
    def of(x) -> "QFraction":
        if isinstance(x, QFraction):
            return x
        if isinstance(x, Laurent):
            return QFraction(x)
        return QFraction(Laurent.const(x))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Laurent)):
            other = QFraction.of(other)
        return (
            isinstance(other, QFraction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        out = object.__new__(QFraction)
        out.num, out.den = -self.num, self.den
        return out

    def __add__(self, other):
        other = QFraction.of(other)
        if self.den is L_ONE and other.den is L_ONE:
            out = object.__new__(QFraction)
            out.num, out.den = self.num + other.num, L_ONE
            return out
        return QFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-QFraction.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QFraction.of(other)
        if self.den is L_ONE and other.den is L_ONE:
            out = object.__new__(QFraction)
            out.num, out.den = self.num * other.num, L_ONE
            return out
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QFraction.of(other)
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return QFraction.of(other) / self

    def __pow__(self, n: int) -> "QFraction":
        if n < 0:
            return _power(self.inv(), -n, QF_ONE)
        return _power(self, n, QF_ONE)

    def inv(self) -> "QFraction":
        return QFraction(self.den, self.num)

    def is_laurent(self) -> bool:
        return self.den == L_ONE

    def as_laurent(self) -> Laurent:
        if not self.is_laurent():
            raise ArithmeticError(f"not a Laurent polynomial: {self}")
        return self.num

    def __str__(self):
        if self.den == L_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


QF_ONE = QFraction.of(1)


# --- quantum combinatorics -------------------------------------------------

def q_int(n: int, d: int = 1) -> Laurent:
    """[n]_{q^d} = (q^{dn} - q^{-dn}) / (q^d - q^{-d}) as a Laurent polynomial."""
    if n < 0:
        return -q_int(-n, d)
    if n == 0:
        return Laurent()
    return Laurent(-d * (n - 1), tuple(1 if i % (2 * d) == 0 else 0 for i in range(2 * d * (n - 1) + 1)))


def q_factorial(n: int, d: int = 1) -> Laurent:
    out = L_ONE
    for i in range(2, n + 1):
        out = out * q_int(i, d)
    return out


def q_binom(a: int, b: int, d: int = 1) -> Laurent:
    """Gaussian binomial [a choose b]_{q^d}, by q-Pascal over the integers.

    [a choose b]_{q^d} = q^{-d b (a-b)} G(x) at x = q^{2d}, where the
    Gaussian polynomial G = G_{b, a-b} in Z[x] satisfies
    G_{i,j} = G_{i-1,j} + x^i G_{i,j-1} with G_{0,j} = G_{i,0} = 1.  No
    step divides, and the result becomes a ``Laurent`` once.
    """
    if b < 0 or b > a:
        return Laurent()
    b, rest = min(b, a - b), max(b, a - b)
    # row[j] = G_{i,j} as an integer coefficient list, for the current i
    row = [[1] for _ in range(rest + 1)]
    for i in range(1, b + 1):
        for j in range(1, rest + 1):
            left = row[j - 1]  # G_{i,j-1}, already in row i
            up = row[j]  # G_{i-1,j}
            cur = up + [0] * (i + len(left) - len(up))
            for k, c in enumerate(left):
                cur[i + k] += c
            row[j] = cur
    poly = row[rest]
    coeffs = [0] * (2 * d * (len(poly) - 1) + 1)
    coeffs[:: 2 * d] = poly
    return Laurent(-d * b * rest, coeffs)


# --- localization at the two-root-length denominators ----------------------

def s_generator(k: int) -> Laurent:
    """The Laurent polynomial q^k - q^{-k}."""
    return Laurent(-k, (-1,) + (0,) * (2 * k - 1) + (1,))


class Localized:
    """num / prod (q^{k_i} - q^{-k_i})^{e_i} with minimal exponent vector."""

    __slots__ = ("num", "s_keys", "exps")

    def __init__(self, num: Laurent, s_keys: Tuple[int, ...], exps: Tuple[int, ...]):
        self.num = num
        self.s_keys = s_keys
        self.exps = exps

    @staticmethod
    def from_fraction(x: QFraction, s_keys: Tuple[int, ...]) -> "Localized":
        """Rewrite num/den with an S-monomial denominator, minimal exponents.

        The reduced denominator may be a proper factor of an S-generator
        (e.g. q+q^-1 inside q^2-q^-2), so the numerator is scaled by the
        cofactor.  Raises ArithmeticError when the coefficient does not
        lie in the localization (a corrupt structure constant).
        """
        num, rem = x.num, x.den
        exps = [0] * len(s_keys)
        while not rem.is_unit():
            for i, k in enumerate(s_keys):
                gen = s_generator(k)
                g = laurent_gcd(rem, gen)
                if not g.is_unit():
                    exps[i] += 1
                    num = num * gen.exact_div(g)
                    rem = rem.exact_div(g)
                    break
            else:
                raise ArithmeticError(
                    f"denominator {x.den} not supported on S = {s_keys}"
                )
        num = num.exact_div(rem)
        # minimize: strip generators that ended up dividing the numerator
        for i, k in enumerate(s_keys):
            gen = s_generator(k)
            while exps[i] > 0:
                quo, r = num.divmod_by(gen)
                if r or not quo:
                    break
                num = quo
                exps[i] -= 1
        return Localized(num, s_keys, tuple(exps))

    def to_fraction(self) -> QFraction:
        den = L_ONE
        for k, e in zip(self.s_keys, self.exps):
            den = den * s_generator(k) ** e
        return QFraction(self.num, den)

    def denominator_nontrivial(self) -> bool:
        return any(self.exps)

    def __eq__(self, other):
        return (
            isinstance(other, Localized)
            and self.to_fraction() == other.to_fraction()
        )

    def __str__(self):
        if not any(self.exps):
            return str(self.num)
        dens = "*".join(
            f"(q^{k}-q^-{k})^{e}" for k, e in zip(self.s_keys, self.exps) if e
        )
        return f"({self.num}) / {dens}"

    __repr__ = __str__


# --- canonical text serialization ------------------------------------------

def laurent_to_text(x: Laurent) -> str:
    if not x.c:
        return "0:"
    return f"{x.lo}:" + ",".join(
        str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        for c in x.c
    )


def laurent_from_text(s: str) -> Laurent:
    lo_s, _, cs = s.partition(":")
    if not cs:
        return Laurent()
    return Laurent(int(lo_s), tuple(map(Fraction, cs.split(","))))


def localized_to_text(x: Localized) -> str:
    tail = ",".join(str(e) for e in x.exps)
    return laurent_to_text(x.num) + ("|" + tail if x.exps else "|")


def localized_from_text(s: str, s_keys: Tuple[int, ...]) -> Localized:
    num_s, _, exp_s = s.rpartition("|")
    exps = tuple(int(t) for t in exp_s.split(",")) if exp_s else ()
    if len(exps) != len(s_keys):
        raise ValueError(f"bad localized scalar {s!r} for S = {s_keys}")
    return Localized(laurent_from_text(num_s), s_keys, exps)


# --- cyclotomic polynomials and residue fields ------------------------------

def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """Integer coefficient tuple of Phi_n, low degree first: x^n - 1 divided
    exactly by Phi_d for every proper divisor d of n."""
    poly = Laurent(0, (-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(Laurent(0, cyclotomic_poly(d)))
    return poly.c


def _x_powers(modulus: Sequence[int], count: int, char: int = 0) -> List[Tuple[int, ...]]:
    """x^0 .. x^(count-1) modulo the monic integer polynomial ``modulus``
    (low degree first), each a vector of deg = len(modulus) - 1 integers,
    reduced mod ``char`` when it is positive."""
    cur = [1] + [0] * (len(modulus) - 2)
    out = []
    for _ in range(count):
        out.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [x - top * c for x, c in zip(cur, modulus)]
            if char:
                cur = [x % char for x in cur]
    return out


def _terms(v: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The nonzero (index, coefficient) pairs of an integer vector."""
    return tuple((i, c) for i, c in enumerate(v) if c)


def _fold_table(modulus: Sequence[int], char: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The nonzero terms of x^deg .. x^(2 deg - 2) modulo the monic ``modulus``:
    what ``_fold_mul`` folds the top of a product through."""
    deg = len(modulus) - 1
    return tuple(_terms(v) for v in _x_powers(modulus, 2 * deg - 1, char)[deg:])


def _fold_mul(u: Sequence[int], v: Sequence[int], fold) -> List[int]:
    """Product of two integer vectors of length deg, reduced to degree < deg:
    the integer convolution, its terms of degree deg and up folded back
    through ``fold`` (``_fold_table``).  Nothing is reduced mod p here."""
    n = len(u)
    buf = [0] * (2 * n - 1)
    vt = [(j, y) for j, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if x:
            for j, y in vt:
                buf[i + j] += x * y
    out = buf[:n]
    for c, terms in zip(buf[n:], fold):
        if c:
            for i, y in terms:
                out[i] += c * y
    return out


class ResidueElement:
    """The element sum(num[i] * zeta**i) / den of a residue field, i < deg.

    Its field keeps it canonical (``_reduced``): in Q(zeta) ``den > 0``
    and ``gcd(*num, den) == 1`` (zero is the zero vector over 1); in
    F_{p^n} ``den == 1`` and every coordinate lies in 0..p-1.
    ``ResidueElement(field, num, den)`` on a canonical ``(num, den)``
    returns the one live element of that value, so equal elements are the
    same object: ``==`` and ``hash`` are those of ``object``, and an
    element is false exactly when it is its field's ``zero``.
    """

    __slots__ = ("ctx", "num", "den", "__weakref__")

    def __new__(cls, ctx: "_ResidueField", num: Tuple[int, ...], den: int = 1):
        key = (num, den)
        self = ctx._elements.get(key)
        if self is None:
            self = object.__new__(cls)
            self.ctx, self.num, self.den = ctx, num, den
            ctx._elements[key] = self
        return self

    def __bool__(self):
        return self is not self.ctx.zero

    def __neg__(self):
        return self.ctx._negative(self)

    def __add__(self, other):
        if not isinstance(other, ResidueElement):
            other = self.ctx.coerce(other)
        return self.ctx._sum(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ResidueElement):
            other = self.ctx.coerce(other)
        return self.ctx._difference(self, other)

    def __rsub__(self, other):
        return self.ctx.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, ResidueElement):
            return self.ctx._mul(self, other)
        if isinstance(other, int):
            return self.ctx._reduced(tuple(x * other for x in self.num), self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return self.ctx._reduced(tuple(x * n for x in self.num), self.den * other.denominator)
        return self.ctx._mul(self, self.ctx.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.ctx._inv(self.ctx.coerce(other))

    def __rtruediv__(self, other):
        if type(other) is int and other == 1:  # a pivot inversion: the memoized inverse itself
            return self.ctx._inv(self)
        return self.ctx.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return _power(self.ctx._inv(self), -n, self.ctx.one)
        return _power(self, n, self.ctx.one)

    def __str__(self):
        return self.ctx.element_str(self)

    __repr__ = __str__


class _ResidueField:
    """Z[x] modulo a monic ``modulus``, reduced mod ``char`` when it is positive:
    coercion, evaluation at zeta, the product, interning and the arithmetic
    memos of one field.

    The field interns its elements in ``_elements``, a weak-valued table
    keyed on ``(num, den)`` that keeps no element alive by itself.  Sums,
    differences, negatives, products and inverses go through five
    ``functools.lru_cache`` memos of ``MEMO_SIZE`` entries keyed on the
    interned operands themselves, so a recurring operation hashes two
    object identities and reads its result back.  The memos hold their
    operands and results, which therefore stay interned while cached.

    The product ``_raw_mul`` is the same in both fields: the integer
    convolution of the coordinates, folded through the powers
    x^deg .. x^(2 deg - 2) modulo the modulus, then brought to canonical
    form.  A subclass supplies the modulus, sets ``_zeta_pows`` =
    zeta^0 .. zeta^(ell-1), and defines the canonical form
    ``_reduced(num, den)``, the inverse ``_raw_inv``, which ``_inv`` reaches
    through the memo ``_inverse`` as ``_mul`` reaches ``_raw_mul`` through
    ``_product``, and the printing ``element_to_text`` and ``element_str``.
    """

    def __init__(self, ell: int, char: int, modulus: Tuple[int, ...], desc: str):
        self.ell = ell
        self.char = char
        self.modulus = modulus
        self.deg = deg = len(modulus) - 1
        self.desc = desc
        self._fold = _fold_table(modulus, char)
        self._elements = weakref.WeakValueDictionary()
        memo = functools.lru_cache(maxsize=MEMO_SIZE)
        self._sum = memo(self._raw_add)
        self._difference = memo(self._raw_sub)
        self._negative = memo(self._raw_neg)
        self._product = memo(self._raw_mul)
        self._inverse = memo(self._raw_inv)
        self.zero = ResidueElement(self, (0,) * deg)
        self.one = self.from_int(1)

    def coerce(self, x) -> ResidueElement:
        if isinstance(x, ResidueElement):
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self._reduced((x.numerator,) + (0,) * (self.deg - 1), x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self.desc}")

    def from_int(self, n: int) -> ResidueElement:
        return self._reduced((n,) + (0,) * (self.deg - 1), 1)

    def _raw_add(self, a: ResidueElement, b: ResidueElement) -> ResidueElement:
        ad, bd = a.den, b.den
        if ad == bd:
            num = tuple(x + y for x, y in zip(a.num, b.num))
        else:
            num = tuple(x * bd + y * ad for x, y in zip(a.num, b.num))
            ad *= bd
        return self._reduced(num, ad)

    def _raw_sub(self, a: ResidueElement, b: ResidueElement) -> ResidueElement:
        # written out, not a + (-b): that would fill the negative memo too
        ad, bd = a.den, b.den
        if ad == bd:
            num = tuple(x - y for x, y in zip(a.num, b.num))
        else:
            num = tuple(x * bd - y * ad for x, y in zip(a.num, b.num))
            ad *= bd
        return self._reduced(num, ad)

    def _raw_neg(self, a: ResidueElement) -> ResidueElement:
        return self._reduced(tuple(-x for x in a.num), a.den)

    def _polymul(self, u: Sequence[int], v: Sequence[int]) -> List[int]:
        """Product of two integer vectors, reduced to degree < deg (not mod p)."""
        return _fold_mul(u, v, self._fold)

    def _raw_mul(self, a: ResidueElement, b: ResidueElement) -> ResidueElement:
        return self._reduced(tuple(_fold_mul(a.num, b.num, self._fold)), a.den * b.den)

    def _mul(self, a: ResidueElement, b: ResidueElement) -> ResidueElement:
        return self._product(a, b)

    def _inv(self, a: ResidueElement) -> ResidueElement:
        if a is self.zero:
            raise ZeroDivisionError(f"division by zero in {self.desc}")
        return self._inverse(a)

    def zeta_power(self, k: int):
        return self._zeta_pows[k % self.ell]

    def eval_laurent(self, x: Laurent):
        out = self.zero
        for i, c in enumerate(x.c):
            if c:
                out = out + self.zeta_power(x.lo + i) * c
        return out

    def eval_fraction(self, x: QFraction):
        den = self.eval_laurent(x.den)
        if not den:
            raise ZeroDivisionError(f"denominator {x.den} vanishes at zeta in {self.desc}")
        return self.eval_laurent(x.num) / den

    def eval_localized(self, x: Localized):
        out = self.eval_laurent(x.num)
        for k, e in zip(x.s_keys, x.exps):
            if e:
                g = self.eval_laurent(s_generator(k))
                if not g:
                    raise ZeroDivisionError(f"S-generator q^{k}-q^-{k} vanishes at zeta in {self.desc}")
                out = out / g ** e
        return out


class CycloField(_ResidueField):
    """Q(zeta) = Q[q] / Phi_ell(q) with zeta the class of q.

    Phi_ell is monic with integer coefficients, so every power zeta^k
    reduces to an integer vector.  The shared product (``_ResidueField``)
    is an integer convolution folded through zeta^deg .. zeta^(2 deg - 2),
    with one gcd to keep the canonical form; the table of
    zeta^0 .. zeta^(ell-1), from the same power routine, applies the
    Galois automorphisms sigma_k(zeta) = zeta^k, k in (Z/ell)^x.

    An inverse goes through the norm
    (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    4.2-4.3): a^-1 = prod_{k != 1} sigma_k(a) / N(a), where
    N(a) = prod_k sigma_k(a) is rational.  Both run once per operand pair
    of interned elements; a product or inverse that recurs, such as a
    root of unity +-zeta^k times a recurring value, is read back from the
    field's memo (``_ResidueField``).
    """

    def __init__(self, ell: int):
        phi = cyclotomic_poly(ell)
        super().__init__(ell, 0, phi, f"cyclo({ell})")
        pows = _x_powers(phi, ell)
        # nonzero (index, coefficient) pairs of zeta^k, k = 0 .. ell-1
        self._pow_terms = [_terms(v) for v in pows]
        # the automorphisms sigma_k other than the identity
        self._galois = tuple(k for k in range(2, ell) if gcd(k, ell) == 1)
        self._zeta_pows = [ResidueElement(self, v) for v in pows]
        self.zeta = self._zeta_pows[1 % ell]

    def _reduced(self, num: Tuple[int, ...], den: int) -> ResidueElement:
        """num / den in canonical form (den nonzero)."""
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(x // g for x in num)
                den //= g
        return ResidueElement(self, num, den)

    def _conjugate(self, u: Sequence[int], k: int) -> List[int]:
        """sigma_k of an integer vector: zeta^i goes to zeta^(i k)."""
        out = [0] * self.deg
        ell, terms = self.ell, self._pow_terms
        for i, x in enumerate(u):
            if x:
                for j, y in terms[i * k % ell]:
                    out[j] += x * y
        return out

    def _raw_inv(self, a: ResidueElement) -> ResidueElement:
        # a^-1 = den * prod_{k != 1} sigma_k(num) / N(num); a rational
        # num is its own norm
        num, den = a.num, a.den
        conj = [1] + [0] * (self.deg - 1)
        norm = num[0]
        if any(num[1:]):
            for k in self._galois:
                conj = self._polymul(conj, self._conjugate(num, k))
            full = self._polymul(num, conj)
            if any(full[1:]):
                raise ArithmeticError(f"norm of {a} in {self.desc} is not rational")
            norm = full[0]
        return self._reduced(tuple(den * x for x in conj), norm)

    def element_to_text(self, a: ResidueElement) -> str:
        return ",".join(str(Fraction(x, a.den)) for x in a.num)

    def element_str(self, a: ResidueElement) -> str:
        parts = []
        for i, x in enumerate(a.num):
            if x:
                c = Fraction(x, a.den)
                parts.append(f"{c}" if i == 0 else f"{c}*z" if i == 1 else f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"


def multiplicative_order(a: int, m: int) -> int:
    a %= m
    if a == 0:
        raise ValueError("not a unit")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


class GaloisField(_ResidueField):
    """F_{p^n} = F_p[x]/(g) containing a distinguished primitive ell-th root.

    n = ``deg`` is forced to be the multiplicative order of p mod ell; the
    modulus g is the first monic irreducible polynomial of degree n in the
    deterministic scan order, and zeta is the first element of exact
    multiplicative order ell in the scan eta = x, x+1, x+2, ...

    Irreducibility is Rabin's test (SIAM J. Comput. 9, 1980) by powers
    alone: g of degree n is irreducible iff x^(p^n) = x mod g and, for each
    prime r | n, h = x^(p^(n/r)) - x is a unit mod g.  Once the first
    condition holds, g is squarefree with factors of degrees dividing n,
    so F_p[x]/(g) is a product of fields F_{p^d}, d | n, and h is a unit
    exactly when h^(p^n - 1) = 1.  The product is the shared one
    (``_ResidueField``), and the inverse of a nonzero a is a^(p^n - 2).
    """

    def __init__(self, p: int, ell: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        if ell % p == 0:
            raise ValueError("p must not divide ell")
        self.p = p  # before the base builds ``one`` through ``_reduced``
        n = multiplicative_order(p, ell)
        super().__init__(ell, p, self._find_irreducible(n), f"gf({p}^{n})")
        self.zeta = self._find_zeta()
        self._zeta_pows = [self.one]
        for _ in range(ell - 1):
            self._zeta_pows.append(self._zeta_pows[-1] * self.zeta)

    def _reduced(self, num: Tuple[int, ...], den: int) -> ResidueElement:
        """num / den with den inverted mod p, coordinates in 0..p-1."""
        p = self.p
        if den != 1:
            if not den % p:
                raise ZeroDivisionError(f"division by zero in {self.desc}")
            s = pow(den, -1, p)
            return ResidueElement(self, tuple(x * s % p for x in num))
        return ResidueElement(self, tuple(x % p for x in num))

    def _is_irreducible(self, g: Sequence[int]) -> bool:
        """Rabin's test for the monic g over F_p, by powers mod g alone."""
        p, n = self.p, len(g) - 1
        fold = _fold_table(g, p)

        def mul(a, b):
            return tuple(x % p for x in _fold_mul(a, b, fold))

        one, x = _x_powers(g, 2, p)
        if _power(x, p ** n, one, mul) != x:
            return False
        for r in prime_factors(n):
            xq = _power(x, p ** (n // r), one, mul)
            h = tuple((a - b) % p for a, b in zip(xq, x))
            if _power(h, p ** n - 1, one, mul) != one:
                return False
        return True

    def _scan(self, n: int):
        """Every coefficient vector of length n over F_p, in the order of the
        integer its coordinates spell in base p, lowest digit first."""
        return (co[::-1] for co in itertools.product(range(self.p), repeat=n))

    def _find_irreducible(self, n: int) -> Tuple[int, ...]:
        if n == 1:
            return (0, 1)
        for co in self._scan(n):
            if self._is_irreducible(co + (1,)):
                return co + (1,)
        raise RuntimeError("no irreducible polynomial found (unreachable)")

    def _find_zeta(self) -> ResidueElement:
        order = self.p ** self.deg - 1
        assert order % self.ell == 0
        cof = order // self.ell
        primes = prime_factors(self.ell)
        for co in self._scan(self.deg):
            eta = ResidueElement(self, co)
            if not eta:
                continue
            z = eta ** cof
            if z == self.one:
                continue
            if all(z ** (self.ell // r) != self.one for r in primes):
                return z
        raise RuntimeError("no primitive ell-th root found (unreachable)")

    def _raw_inv(self, a: ResidueElement) -> ResidueElement:
        return _power(a, self.p ** self.deg - 2, self.one, self._raw_mul)

    def element_to_text(self, a: ResidueElement) -> str:
        return ",".join(str(x) for x in a.num)

    def element_str(self, a: ResidueElement) -> str:
        if self.deg == 1:
            return str(a.num[0])
        return "[" + ",".join(str(x) for x in a.num) + "]"


def make_field(ell: int, p: Optional[int] = None):
    """Field context holding a primitive ell-th root: cyclotomic or finite."""
    if p is None:
        return CycloField(ell)
    return GaloisField(p, ell)
