"""Exact coefficient arithmetic.

Four layers, all exact and immutable:

* ``Laurent`` -- Laurent polynomials in q with rational coefficients;
* ``QFraction`` -- the fraction field of ``Laurent`` (used while
  computing braid images, where q-factorial denominators appear);
* ``Localized`` -- a Laurent numerator together with a monomial
  denominator in the distinguished multiplicative set of the root type
  (trivial set for simply-laced, {q^2-q^-2} for two root lengths,
  plus {q^3-q^-3} for the triple bond);
* residue fields at a primitive root of unity: the cyclotomic field
  Q[q]/Phi_ell(q) and finite fields F_{p^n} with n the multiplicative
  order of p mod ell, so a primitive ell-th root exists in both.  An
  element of the cyclotomic field is a vector of integers over one
  common denominator, multiplied by a signed rotation when one factor is
  a root of unity +-zeta^k and by integer convolution otherwise, and
  inverted through its Galois norm (``CycloField``); no ``Fraction``
  arithmetic runs in its product or inverse.

Quantum integers, factorials and binomials live here as well.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

QQ = Fraction


class Laurent:
    """Laurent polynomial sum(c[i] * q**(lo+i)) with Fraction coefficients.

    Canonical form: empty coefficient tuple for zero, otherwise the first
    and last entries are nonzero.
    """

    __slots__ = ("lo", "c")

    def __init__(self, lo: int = 0, coeffs: Sequence[Fraction] = ()):
        i, j = 0, len(coeffs)
        while i < j and not coeffs[i]:
            i += 1
        while j > i and not coeffs[j - 1]:
            j -= 1
        self.lo = lo + i if i < j else 0
        self.c = tuple(QQ(x) for x in coeffs[i:j])

    @staticmethod
    def const(x) -> "Laurent":
        return Laurent(0, (QQ(x),))

    @staticmethod
    def q_power(n: int, coeff=1) -> "Laurent":
        return Laurent(n, (QQ(coeff),))

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
        buf = [QQ(0)] * (hi - lo + 1)
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
        buf = [QQ(0)] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    if y:
                        buf[i + j] += x * y
        return Laurent(self.lo + other.lo, buf)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        out = Laurent.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, n: int) -> "Laurent":
        return Laurent(self.lo + n, self.c)

    def bar(self) -> "Laurent":
        """The substitution q -> q^{-1}."""
        return Laurent(-self.hi, tuple(reversed(self.c)))

    def divmod_by(self, other: "Laurent") -> Tuple["Laurent", "Laurent"]:
        """Division with remainder, ignoring overall q-powers."""
        if not other:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        rem = list(self.c)
        rlo = self.lo
        d = list(other.c)
        qt: Dict[int, Fraction] = {}
        lead = d[-1]
        while len(rem) >= len(d):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < len(d):
                break
            f = rem[-1] / lead
            k = len(rem) - len(d)
            qt[rlo + k - other.lo] = f
            for i, y in enumerate(d):
                rem[k + i] -= f * y
            rem.pop()
        if qt:
            qlo = min(qt)
            qbuf = [qt.get(i, QQ(0)) for i in range(qlo, max(qt) + 1)]
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
_ONE_C = (QQ(1),)


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Monic gcd as polynomials (q-power factors are units here)."""
    a0, b0 = a, b
    while b0:
        _, r = a0.divmod_by(b0)
        a0, b0 = b0, r
    if not a0:
        return Laurent()
    lead = a0.c[-1]
    return Laurent(0, tuple(x / lead for x in a0.c))


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
            den = Laurent(0, tuple(x / lead for x in den.c))
            num = Laurent(num.lo + shift, tuple(x / lead for x in num.c))
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
            return self.inv() ** (-n)
        out, base = QFraction.of(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
QF_ZERO = QFraction.of(0)


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

S_GENERATORS = {
    "ADE": (),
    "BCF": (2,),
    "G": (2, 3),
}


def s_generator(k: int) -> Laurent:
    """The Laurent polynomial q^k - q^{-k}."""
    return Laurent(-k, (QQ(-1),) + (QQ(0),) * (2 * k - 1) + (QQ(1),))


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
    return Laurent(int(lo_s), tuple(QQ(t) for t in cs.split(",")))


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

def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """Integer coefficient tuple of Phi_n, low degree first."""
    # x^n - 1 divided by all proper cyclotomic factors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d == n:
            continue
        phi_d = cyclotomic_poly(d)
        # exact polynomial division poly //= phi_d
        out = [0] * (len(poly) - len(phi_d) + 1)
        rem = list(poly)
        for k in range(len(out) - 1, -1, -1):
            f = rem[k + len(phi_d) - 1] // phi_d[-1]
            out[k] = f
            for i, y in enumerate(phi_d):
                rem[k + i] -= f * y
        assert not any(rem), "cyclotomic division must be exact"
        poly = out
    return tuple(poly)


class CycloElement:
    """The element sum(num[i] * zeta**i) / den of Q(zeta_ell), i < deg.

    Canonical form: ``den > 0`` and ``gcd(*num, den) == 1`` (zero is the
    zero vector over 1), so ``==`` and ``hash`` compare the integers.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: "CycloField", num: Tuple[int, ...], den: int = 1):
        self.ctx = ctx
        self.num = num
        self.den = den

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, CycloElement)
            and self.num == other.num
            and self.den == other.den
            and self.ctx is other.ctx
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return CycloElement(self.ctx, tuple(-x for x in self.num), self.den)

    def __add__(self, other):
        other = self.ctx.coerce(other)
        ad, bd = self.den, other.den
        if ad == bd:
            num = tuple(x + y for x, y in zip(self.num, other.num))
        else:
            num = tuple(x * bd + y * ad for x, y in zip(self.num, other.num))
            ad *= bd
        return self.ctx._reduced(num, ad)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ctx.coerce(other)
        ad, bd = self.den, other.den
        if ad == bd:
            num = tuple(x - y for x, y in zip(self.num, other.num))
        else:
            num = tuple(x * bd - y * ad for x, y in zip(self.num, other.num))
            ad *= bd
        return self.ctx._reduced(num, ad)

    def __rsub__(self, other):
        return self.ctx.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, CycloElement):
            return self.ctx._mul(self, other)
        if isinstance(other, int):
            return self.ctx._reduced(tuple(x * other for x in self.num), self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return self.ctx._reduced(tuple(x * n for x in self.num), self.den * other.denominator)
        return self.ctx._mul(self, self.ctx.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.ctx.coerce(other)
        return self * self.ctx._inv(other)

    def __rtruediv__(self, other):
        return self.ctx.coerce(other) / self

    def __pow__(self, n: int):
        out, base = self.ctx.one, self
        if n < 0:
            base = self.ctx.one / base
            n = -n
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        names = {0: "", 1: "z"}
        parts = []
        for i, x in enumerate(self.num):
            if not x:
                continue
            mon = names.get(i, f"z^{i}")
            c = Fraction(x, self.den)
            parts.append(f"{c}{'*' + mon if mon else ''}" if mon else f"{c}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class CycloField:
    """Q(zeta) = Q[q] / Phi_ell(q) with zeta the class of q.

    An element is an integer vector over one positive denominator
    (``CycloElement``).  Phi_ell is monic with integer coefficients, so
    every power zeta^k reduces to an integer vector; one table of the
    powers zeta^0 .. zeta^(ell-1) reduces products and applies the Galois
    automorphisms sigma_k(zeta) = zeta^k, k in (Z/ell)^x.

    Units rotate, everything else convolves.  The power basis is an
    integral basis of Z[zeta] (Washington, Introduction to Cyclotomic
    Fields, ch. 1-2), so multiplying by a unit +-zeta^k is an integer
    change of basis with an integer inverse: it keeps the denominator and
    the content of the numerator, and needs no gcd.  A product with a
    +-zeta^k operand is therefore a signed rotation through the power
    table, and a product of two of them is a lookup.  Any other product is
    an integer convolution, reduced through that table, with one gcd to
    keep the canonical form.  The inverse of +-zeta^k is +-zeta^-k; any
    other inverse goes through the norm (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, 4.2-4.3):
    a^-1 = prod_{k != 1} sigma_k(a) / N(a), where N(a) = prod_k sigma_k(a)
    is rational.
    """

    def __init__(self, ell: int):
        self.ell = ell
        self.char = 0
        phi = cyclotomic_poly(ell)
        n = self.deg = len(phi) - 1
        pows = []
        cur = [1] + [0] * (n - 1)
        for _ in range(ell):
            pows.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [x - top * c for x, c in zip(cur, phi)]
        # nonzero (index, coefficient) pairs of zeta^k, k = 0 .. ell-1
        self._pow_terms = [tuple((i, c) for i, c in enumerate(v) if c) for v in pows]
        # the automorphisms sigma_k other than the identity
        self._galois = tuple(k for k in range(2, ell) if gcd(k, ell) == 1)
        self.zero = CycloElement(self, (0,) * n)
        self.one = self.from_int(1)
        self._zeta_pows = [CycloElement(self, v) for v in pows]
        self.zeta = self._zeta_pows[1 % ell]
        # the signed units: zeta^k at index k, -zeta^k at index ell + k,
        # and the numerator of each (over 1) to its (k, sign); for even ell
        # a unit has two names, and either gives the same products
        self._units = self._zeta_pows + [-u for u in self._zeta_pows]
        self._unit_of = {u.num: (i % ell, i // ell) for i, u in enumerate(self._units)}
        self.desc = f"cyclo({ell})"

    def coerce(self, x) -> CycloElement:
        if isinstance(x, CycloElement):
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return CycloElement(self, (x.numerator,) + (0,) * (self.deg - 1), x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self.desc}")

    def from_int(self, n: int) -> CycloElement:
        return CycloElement(self, (n,) + (0,) * (self.deg - 1))

    def _reduced(self, num: Tuple[int, ...], den: int) -> CycloElement:
        """num / den in canonical form (den nonzero)."""
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(x // g for x in num)
                den //= g
        return CycloElement(self, num, den)

    def _polymul(self, u: Sequence[int], v: Sequence[int]) -> List[int]:
        """Product of two integer vectors, reduced to degree < deg."""
        n = self.deg
        buf = [0] * (2 * n - 1)
        vt = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                for j, y in vt:
                    buf[i + j] += x * y
        out = buf[:n]
        ell, terms = self.ell, self._pow_terms
        for k in range(n, 2 * n - 1):
            c = buf[k]
            if c:
                for i, y in terms[k % ell]:
                    out[i] += c * y
        return out

    def _conjugate(self, u: Sequence[int], k: int) -> List[int]:
        """sigma_k of an integer vector: zeta^i goes to zeta^(i k)."""
        out = [0] * self.deg
        ell, terms = self.ell, self._pow_terms
        for i, x in enumerate(u):
            if x:
                for j, y in terms[i * k % ell]:
                    out[j] += x * y
        return out

    def _mul(self, a: CycloElement, b: CycloElement) -> CycloElement:
        unit_of = self._unit_of
        ua = unit_of.get(a.num) if a.den == 1 else None
        ub = unit_of.get(b.num) if b.den == 1 else None
        if ua is None:
            if ub is None:
                return self._reduced(tuple(self._polymul(a.num, b.num)), a.den * b.den)
            ua, b = ub, a
        elif ub is not None:
            return self._units[(ua[0] + ub[0]) % self.ell + self.ell * (ua[1] ^ ub[1])]
        # b times the unit ua: a signed rotation over the same denominator
        k, neg = ua
        out = [0] * self.deg
        ell, terms = self.ell, self._pow_terms
        for i, x in enumerate(b.num):
            if x:
                if neg:
                    x = -x
                for j, y in terms[(i + k) % ell]:
                    out[j] += x * y
        return CycloElement(self, tuple(out), b.den)

    def _inv(self, a: CycloElement) -> CycloElement:
        if not a:
            raise ZeroDivisionError(f"division by zero in {self.desc}")
        unit = self._unit_of.get(a.num) if a.den == 1 else None
        if unit is not None:
            return self._units[-unit[0] % self.ell + self.ell * unit[1]]
        # a^-1 = den * prod_{k != 1} sigma_k(num) / N(num); a rational
        # num is its own norm
        num = a.num
        conj = [1] + [0] * (self.deg - 1)
        norm = num[0]
        if any(num[1:]):
            for k in self._galois:
                conj = self._polymul(conj, self._conjugate(num, k))
            full = self._polymul(num, conj)
            if any(full[1:]):
                raise ArithmeticError(f"norm of {a} in {self.desc} is not rational")
            norm = full[0]
        return self._reduced(tuple(a.den * x for x in conj), norm)

    def zeta_power(self, k: int) -> CycloElement:
        return self._zeta_pows[k % self.ell]

    def eval_laurent(self, x: Laurent) -> CycloElement:
        out = self.zero
        for i, c in enumerate(x.c):
            if c:
                out = out + self.zeta_power(x.lo + i) * c
        return out

    def eval_fraction(self, x: QFraction) -> CycloElement:
        den = self.eval_laurent(x.den)
        if not den:
            raise ZeroDivisionError(f"denominator {x.den} vanishes at zeta_{self.ell}")
        return self.eval_laurent(x.num) / den

    def eval_localized(self, x: Localized) -> CycloElement:
        out = self.eval_laurent(x.num)
        for k, e in zip(x.s_keys, x.exps):
            if e:
                g = self.eval_laurent(s_generator(k))
                if not g:
                    raise ZeroDivisionError(f"S-generator q^{k}-q^-{k} vanishes at zeta_{self.ell}")
                for _ in range(e):
                    out = out / g
        return out

    def element_to_text(self, a: CycloElement) -> str:
        return ",".join(str(Fraction(x, a.den)) for x in a.num)


class GFElement:
    __slots__ = ("ctx", "co")

    def __init__(self, ctx: "GaloisField", co: Tuple[int, ...]):
        self.ctx = ctx
        self.co = co

    def __bool__(self):
        return any(self.co)

    def __eq__(self, other):
        return isinstance(other, GFElement) and self.co == other.co and self.ctx is other.ctx

    def __hash__(self):
        return hash(self.co)

    def __neg__(self):
        p = self.ctx.p
        return GFElement(self.ctx, tuple((-x) % p for x in self.co))

    def __add__(self, other):
        other = self.ctx.coerce(other)
        p = self.ctx.p
        return GFElement(self.ctx, tuple((x + y) % p for x, y in zip(self.co, other.co)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ctx.coerce(other)
        p = self.ctx.p
        return GFElement(self.ctx, tuple((x - y) % p for x, y in zip(self.co, other.co)))

    def __rsub__(self, other):
        return self.ctx.coerce(other) - self

    def __mul__(self, other):
        other = self.ctx.coerce(other)
        return self.ctx._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.ctx.coerce(other)
        return self * self.ctx._inv(other)

    def __rtruediv__(self, other):
        return self.ctx.coerce(other) / self

    def __pow__(self, n: int):
        out, base = self.ctx.one, self
        if n < 0:
            base = self.ctx.one / base
            n = -n
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        if self.ctx.n == 1:
            return str(self.co[0])
        return "[" + ",".join(str(x) for x in self.co) + "]"

    __repr__ = __str__


def multiplicative_order(a: int, m: int) -> int:
    a %= m
    if a == 0:
        raise ValueError("not a unit")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def _prime_factors(n: int) -> List[int]:
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
    return n > 1 and _prime_factors(n) == [n]


class GaloisField:
    """F_{p^n} = F_p[x]/(g) containing a distinguished primitive ell-th root.

    n is forced to be the multiplicative order of p mod ell; the modulus
    g is the first monic irreducible polynomial of degree n in the
    deterministic scan order, and zeta is the first element of exact
    multiplicative order ell in the scan eta = x, x+1, x+2, ...
    """

    def __init__(self, p: int, ell: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        if ell % p == 0:
            raise ValueError("p must not divide ell")
        self.p = p
        self.ell = ell
        self.char = p
        self.n = multiplicative_order(p, ell) if ell > 1 else 1
        n = self.n
        self.modulus = self._find_irreducible(n)
        self.zero = GFElement(self, (0,) * n)
        self.one = self.from_int(1)
        self._red = self._reduction_rows()
        self.zeta = self._find_zeta()
        self._zeta_pows = [self.one]
        for _ in range(ell - 1):
            self._zeta_pows.append(self._zeta_pows[-1] * self.zeta)
        self.desc = f"gf({p}^{n})"

    # -- polynomial helpers over F_p (low degree first, fixed length lists)

    def _polmulmod(self, a: List[int], b: List[int], g: List[int]) -> List[int]:
        p = self.p
        buf = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        buf[i + j] = (buf[i + j] + x * y) % p
        # reduce mod g (monic)
        dg = len(g) - 1
        for k in range(len(buf) - 1, dg - 1, -1):
            c = buf[k]
            if c:
                for i in range(dg + 1):
                    buf[k - dg + i] = (buf[k - dg + i] - c * g[i]) % p
        return buf[:dg]

    def _polpowmod(self, a: List[int], e: int, g: List[int]) -> List[int]:
        out = [1] + [0] * (len(g) - 2)
        base = list(a) + [0] * (len(g) - 1 - len(a))
        while e:
            if e & 1:
                out = self._polmulmod(out, base, g)
            base = self._polmulmod(base, base, g)
            e >>= 1
        return out

    def _polgcd(self, a: List[int], b: List[int]) -> List[int]:
        p = self.p

        def norm(u):
            while u and not u[-1]:
                u.pop()
            return u

        a, b = norm(list(a)), norm(list(b))
        while b:
            inv = pow(b[-1], p - 2, p)
            r = list(a)
            while len(r) >= len(b):
                if not r[-1]:
                    r.pop()
                    continue
                f = r[-1] * inv % p
                k = len(r) - len(b)
                for i, y in enumerate(b):
                    r[k + i] = (r[k + i] - f * y) % p
                r.pop()
            a, b = b, norm(r)
        return a

    def _is_irreducible(self, g: List[int]) -> bool:
        n = len(g) - 1
        x = [0, 1]
        xp = self._polpowmod(x, self.p ** n, g)
        # x^{p^n} == x mod g
        if (xp + [0] * 2)[:2] != [0, 1] or any(xp[2:]):
            return False
        for r in _prime_factors(n):
            xq = self._polpowmod(x, self.p ** (n // r), g)
            diff = [(a - b) % self.p for a, b in zip(xq + [0, 0], [0, 1] + [0] * len(xq))][: max(len(xq), 2)]
            if len(self._polgcd(diff, g)) > 1:
                return False
        return True

    def _find_irreducible(self, n: int) -> Tuple[int, ...]:
        if n == 1:
            return (0, 1)
        # scan monic degree-n polynomials in lexicographic coefficient order
        total = self.p ** n
        for code in range(total):
            co = []
            c = code
            for _ in range(n):
                co.append(c % self.p)
                c //= self.p
            g = co + [1]
            if self._is_irreducible(g):
                return tuple(g)
        raise RuntimeError("no irreducible polynomial found (unreachable)")

    def _reduction_rows(self):
        n = self.n
        if n == 1:
            return []
        rows = []
        cur = [(-x) % self.p for x in self.modulus[:-1]]
        rows.append(tuple(cur))
        for _ in range(n - 2):
            cur = [0] + cur
            lead = cur.pop()
            if lead:
                cur = [(x + lead * y) % self.p for x, y in zip(cur, rows[0])]
            rows.append(tuple(cur))
        return rows

    def _find_zeta(self) -> GFElement:
        order = self.p ** self.n - 1
        assert order % self.ell == 0
        cof = order // self.ell
        primes = _prime_factors(self.ell)
        for code in range(1, self.p ** min(self.n, 3) + self.p):
            co = []
            c = code
            for _ in range(self.n):
                co.append(c % self.p)
                c //= self.p
            eta = GFElement(self, tuple(co))
            if not eta:
                continue
            z = self._pow(eta, cof)
            if z == self.one:
                continue
            if all(self._pow(z, self.ell // r) != self.one for r in primes):
                return z
        raise RuntimeError("no primitive ell-th root found (unreachable)")

    def _pow(self, a: GFElement, e: int) -> GFElement:
        out = self.one
        base = a
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_int(x.numerator) / self.from_int(x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self.desc}")

    def from_int(self, k: int) -> GFElement:
        return GFElement(self, (k % self.p,) + (0,) * (self.n - 1))

    def _mul(self, a: GFElement, b: GFElement) -> GFElement:
        n = self.n
        p = self.p
        if n == 1:
            return GFElement(self, (a.co[0] * b.co[0] % p,))
        buf = [0] * (2 * n - 1)
        for i, x in enumerate(a.co):
            if x:
                for j, y in enumerate(b.co):
                    if y:
                        buf[i + j] = (buf[i + j] + x * y) % p
        out = buf[:n]
        for k in range(n, 2 * n - 1):
            c = buf[k]
            if c:
                row = self._red[k - n]
                for i, y in enumerate(row):
                    out[i] = (out[i] + c * y) % p
        return GFElement(self, tuple(out))

    def _inv(self, a: GFElement) -> GFElement:
        if not a:
            raise ZeroDivisionError(f"division by zero in {self.desc}")
        if self.n == 1:
            return GFElement(self, (pow(a.co[0], -1, self.p),))
        return self._pow(a, self.p ** self.n - 2)

    def zeta_power(self, k: int) -> GFElement:
        return self._zeta_pows[k % self.ell]

    def eval_laurent(self, x: Laurent) -> GFElement:
        out = self.zero
        for i, c in enumerate(x.c):
            if c:
                out = out + self.zeta_power(x.lo + i) * self.coerce(c)
        return out

    def eval_fraction(self, x: QFraction) -> GFElement:
        den = self.eval_laurent(x.den)
        if not den:
            raise ZeroDivisionError(f"denominator {x.den} vanishes at zeta in {self.desc}")
        return self.eval_laurent(x.num) / den

    def eval_localized(self, x: Localized) -> GFElement:
        out = self.eval_laurent(x.num)
        for k, e in zip(x.s_keys, x.exps):
            if e:
                g = self.eval_laurent(s_generator(k))
                if not g:
                    raise ZeroDivisionError(f"S-generator q^{k}-q^-{k} vanishes in {self.desc}")
                for _ in range(e):
                    out = out / g
        return out

    def element_to_text(self, a: GFElement) -> str:
        return ",".join(str(x) for x in a.co)


def make_field(ell: int, p: Optional[int] = None):
    """Field context holding a primitive ell-th root: cyclotomic or finite."""
    if p is None:
        return CycloField(ell)
    return GaloisField(p, ell)
