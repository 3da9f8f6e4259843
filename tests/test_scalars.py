import itertools
import random
from fractions import Fraction as QQ
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uzeta.scalars import (
    CycloField,
    GFElement,
    GaloisField,
    L_ONE,
    Laurent,
    Localized,
    QFraction,
    cyclotomic_poly,
    laurent_from_text,
    laurent_gcd,
    laurent_to_text,
    localized_from_text,
    localized_to_text,
    q_binom,
    q_factorial,
    q_int,
    s_generator,
)

laurents = st.builds(
    lambda lo, cs: Laurent(lo, tuple(QQ(c) for c in cs)),
    st.integers(-4, 4),
    st.lists(st.integers(-6, 6), min_size=0, max_size=5),
)


class TestLaurent:
    def test_canonical_form(self):
        assert Laurent(2, (0, 0)) == Laurent()
        x = Laurent(-1, (0, 1, 2, 0))
        assert x.lo == 0 and x.c == (QQ(1), QQ(2))

    @given(laurents, laurents, laurents)
    @settings(max_examples=200, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a

    @given(laurents, laurents)
    @settings(max_examples=200, deadline=None)
    def test_exact_division_roundtrip(self, a, b):
        if not a or not b:
            return
        assert (a * b).exact_div(b) == a

    def test_bar(self):
        assert q_int(3).bar() == q_int(3)  # balanced
        assert Laurent.q_power(2).bar() == Laurent.q_power(-2)

    def test_gcd(self):
        # gcd([2][4], [2][3]) is [2], normalized monic with constant term
        g = laurent_gcd(q_int(2) * q_int(4), q_int(2) * q_int(3))
        assert g == Laurent(0, (1, 0, 1))


class TestQuantumNumbers:
    def test_q_int_values(self):
        assert q_int(1) == L_ONE
        assert q_int(2) == Laurent(-1, (1, 0, 1))
        assert q_int(3) == Laurent(-2, (1, 0, 1, 0, 1))
        assert q_int(2, 2) == Laurent(-2, (1, 0, 0, 0, 1))

    def test_binomial_identities(self):
        assert q_binom(2, 1) == q_int(2)
        for a in range(7):
            for b in range(a + 1):
                assert q_binom(a, b) * q_factorial(b) * q_factorial(a - b) == q_factorial(a)
                assert q_binom(a, b) == q_binom(a, a - b)

    def test_pascal(self):
        # [a;b] = q^b [a-1;b] + q^{b-a} [a-1;b-1]
        for a in range(1, 8):
            for b in range(1, a):
                lhs = q_binom(a, b)
                rhs = Laurent.q_power(b) * q_binom(a - 1, b) + Laurent.q_power(b - a) * q_binom(a - 1, b - 1)
                assert lhs == rhs


    def test_matches_product_formula(self):
        # q-Pascal over the integers against the quotient it replaced, with
        # the same canonical form (== and hash) for every b, including b
        # outside 0..a
        for d in (1, 2, 3):
            for a in range(-2, 25):
                for b in range(-1, a + 2):
                    want = _q_binom_by_division(a, b, d)
                    got = q_binom(a, b, d)
                    assert got == want and hash(got) == hash(want), (a, b, d)


def _q_int_coeffs(n, d):
    return [1 if i % (2 * d) == 0 else 0 for i in range(2 * d * (n - 1) + 1)]


def _poly_mul(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _q_binom_by_division(a, b, d=1):
    """[a choose b]_{q^d} = [a-b+1] ... [a] / [b]!, the product and one exact division.

    This is how ``q_binom`` was computed before q-Pascal, written on
    integer coefficient lists (every [n]_{q^d} is monic, so the quotient
    is integral) to keep the comparison fast.
    """
    if b < 0 or b > a:
        return Laurent()
    b = min(b, a - b)
    num, den, lo = [1], [1], 0
    for i in range(1, b + 1):
        num = _poly_mul(num, _q_int_coeffs(a - b + i, d))
        den = _poly_mul(den, _q_int_coeffs(i, d))
        lo += d * (i - 1) - d * (a - b + i - 1)
    quo, rem = [0] * (len(num) - len(den) + 1), list(num)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + len(den) - 1]
        for i, y in enumerate(den):
            rem[k + i] -= c * y
    assert not any(rem), "non-exact division"
    return Laurent(lo, quo)


class TestQFraction:
    @given(laurents, laurents, laurents)
    @settings(max_examples=100, deadline=None)
    def test_field_axioms(self, a, b, c):
        x, y = QFraction.of(a), QFraction.of(b)
        d = QFraction(L_ONE, c) if c else QFraction.of(1)
        assert (x + y) * d == x * d + y * d
        if y:
            assert (x / y) * y == x

    def test_cancellation(self):
        z = QFraction(q_int(2) * q_int(4), q_int(2))
        assert z.is_laurent() and z.as_laurent() == q_int(4)


class TestLocalized:
    def test_extraction_needs_cofactor(self):
        # 1/[2] = (q - q^-1)/(q^2 - q^-2)
        x = QFraction(L_ONE, q_int(2))
        loc = Localized.from_fraction(x, (2,))
        assert loc.exps == (1,)
        assert loc.to_fraction() == x

    def test_minimality(self):
        x = QFraction(s_generator(2) * q_int(3), L_ONE)
        loc = Localized.from_fraction(x, (2,))
        assert loc.exps == (0,)

    def test_rejects_foreign_denominator(self):
        x = QFraction(L_ONE, q_int(3))
        with pytest.raises(ArithmeticError):
            Localized.from_fraction(x, (2,))

    def test_text_roundtrip(self):
        x = Localized.from_fraction(QFraction(q_int(5), q_int(2)), (2,))
        assert localized_from_text(localized_to_text(x), (2,)) == x


class TestSerialization:
    @given(laurents)
    @settings(max_examples=200, deadline=None)
    def test_laurent_roundtrip(self, a):
        assert laurent_from_text(laurent_to_text(a)) == a


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)

    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_primitive_root(self, ell):
        F = CycloField(ell)
        assert F.zeta ** ell == F.one
        for j in range(1, ell):
            assert F.zeta ** j != F.one
        assert F.eval_laurent(q_int(ell)) == F.zero
        assert F.eval_laurent(q_int(ell - 1)) != F.zero

    def test_specialize_is_homomorphism_bulk(self):
        # randomized ring-homomorphism check on many pairs, with fractional
        # coefficients, at prime and composite ell; eval_fraction divides
        rng = random.Random(7)

        def rand():
            return Laurent(
                rng.randint(-3, 3),
                tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))),
            )

        for ell, n in ((3, 10_000), (5, 2_000), (9, 1_000), (15, 500)):
            F = CycloField(ell)
            for _ in range(n):
                a, b = rand(), rand()
                fa, fb = F.eval_laurent(a), F.eval_laurent(b)
                assert F.eval_laurent(a * b) == fa * fb
                assert F.eval_laurent(a + b) == fa + fb
                if fb:
                    x = F.eval_fraction(QFraction(a, b))
                    assert x * fb == fa and x == fa / fb

    def test_inverse(self):
        F = CycloField(5)
        x = F.zeta ** 3 + F.from_int(2)
        assert x * (F.one / x) == F.one
        assert F.one / F.from_int(-6) == F.coerce(QQ(-1, 6))
        # composite ell: (Z/9)^x is cyclic, (Z/15)^x = Z/2 x Z/4 is not
        for ell in (5, 9, 15):
            F = CycloField(ell)
            rng = random.Random(ell)
            for _ in range(200):
                y = F.zero
                for k in range(ell):
                    y = y + F.zeta_power(k) * QQ(rng.randint(-4, 4), rng.randint(1, 3))
                if y:
                    assert y * (F.one / y) == F.one and (F.one / y) / y == y ** -2

    def test_text_golden(self):
        F = CycloField(5)
        x = F.one / 2 - 3 * F.zeta ** 2
        assert F.element_to_text(x) == "1/2,0,-3,0"
        assert str(x) == "1/2 + -3*z^2"
        y = F.zeta / 6 + F.one / 4 - F.zeta ** 3
        assert F.element_to_text(y) == "1/4,1/6,0,-1"
        assert str(y) == "1/4 + 1/6*z + -1*z^3"
        assert F.element_to_text(F.zeta ** 4) == "-1,-1,-1,-1"
        assert F.element_to_text(F.zero) == "0,0,0,0" and str(F.zero) == "0"

    def test_vanishing_denominator_raises(self):
        F = CycloField(3)
        with pytest.raises(ZeroDivisionError):
            F.eval_fraction(QFraction(L_ONE, q_int(3)))


cyclo_vectors = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=12), min_size=1, max_size=5
)


class TestCanonicalForm:
    @given(st.sampled_from([3, 5, 9]), cyclo_vectors, cyclo_vectors)
    @settings(max_examples=200, deadline=None)
    def test_integers_over_one_denominator(self, ell, xs, ys):
        F = CycloField(ell)

        def elem(cs):
            out = F.zero
            for k, c in enumerate(cs):
                out = out + F.zeta_power(k) * c
            return out

        a, b = elem(xs), elem(ys)
        values = [a, b, a + b, a - b, a * b, -a, a * QQ(-3, 4), a * 6]
        if b:
            values += [a / b, (a * b) / b]
        for v in values:
            assert v.den > 0 and gcd(*v.num, v.den) == 1
            assert len(v.num) == F.deg
        # equal values reached by different routes are equal and hash alike
        for u, v in [(a + b - b, a), (a * 2 - a, a), (b - a, -(a - b))]:
            assert u == v and hash(u) == hash(v)
        if b:
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)


class TestGaloisField:
    @pytest.mark.parametrize("p,ell", [(25, 3), (9, 5), (1, 3)])
    def test_non_prime_rejected(self, p, ell):
        with pytest.raises(ValueError, match="not a prime"):
            GaloisField(p, ell)

    def test_prime_field_with_root(self):
        G = GaloisField(7, 3)
        assert G.n == 1 and G.char == 7
        assert G.zeta ** 3 == G.one and G.zeta != G.one
        assert G.eval_laurent(q_int(3)) == G.zero

    def test_extension_field(self):
        G = GaloisField(5, 3)  # ord_3(5) = 2
        assert G.n == 2
        assert G.zeta ** 3 == G.one and G.zeta != G.one
        x = G.zeta + G.from_int(2)
        assert x * (G.one / x) == G.one

    @pytest.mark.parametrize("p,ell", [(7, 3), (5, 3)])
    def test_inverse_exhaustive(self, p, ell):
        # every nonzero element of GF(7) and of GF(5^2)
        G = GaloisField(p, ell)
        for co in itertools.product(range(p), repeat=G.n):
            x = GFElement(G, co)
            if x:
                assert x * (1 / x) == G.one
        with pytest.raises(ZeroDivisionError):
            G.one / G.zero

    def test_lucas_truncation(self):
        # [a+b choose a] at zeta vanishes whenever a+b >= ell > a, b
        G = GaloisField(7, 3)
        F = CycloField(3)
        for a in range(3):
            for b in range(3):
                val_g = G.eval_laurent(q_binom(a + b, a))
                val_f = F.eval_laurent(q_binom(a + b, a))
                if a + b >= 3:
                    assert not val_g and not val_f
                else:
                    assert val_g and val_f

    def test_divided_power_truncation_higher_kernel(self):
        # products of divided powers truncate to zero past p^r * ell
        G = GaloisField(7, 3)
        pl = 21
        for a in [18, 19, 20]:
            for b in [18, 20]:
                if a + b >= pl:
                    assert not G.eval_laurent(q_binom(a + b, a))


class TestSubtraction:
    @pytest.mark.parametrize("p,ell", [(7, 3), (5, 3)])
    def test_galois_exhaustive(self, p, ell):
        G = GaloisField(p, ell)
        elems = [GFElement(G, co) for co in itertools.product(range(p), repeat=G.n)]
        for x in elems:
            assert 3 - x == -(x - 3)
            for y in elems:
                assert x - y == x + (-y)

    def test_cyclotomic_against_negation(self):
        rng = random.Random(9)
        F = CycloField(5)
        for _ in range(300):
            a, b = (
                sum((F.zeta_power(k) * QQ(rng.randint(-5, 5), rng.randint(1, 6)) for k in range(4)), F.zero)
                for _ in range(2)
            )
            assert a - b == a + (-b)
            assert 2 - a == -(a - 2)


def _convolution(F, a, b):
    """The general product path: integer convolution, then the gcd."""
    return F._reduced(tuple(F._polymul(a.num, b.num)), a.den * b.den)


class TestUnitProducts:
    """Products and inverses with a root of unity +-zeta^k as an operand."""

    @staticmethod
    def units(F):
        # built by integer scaling, not through the field's own unit table
        return [F.zeta_power(k) * s for k in range(F.ell) for s in (1, -1)]

    @pytest.mark.parametrize("ell", [3, 5, 9, 15])
    def test_unit_times_element_equals_convolution(self, ell):
        F = CycloField(ell)
        rng = random.Random(ell)
        elems = [F.zero]
        for _ in range(25):
            elems.append(
                sum(
                    (F.zeta_power(k) * QQ(rng.randint(-9, 9), rng.randint(1, 12)) for k in range(F.deg)),
                    F.zero,
                )
            )
        assert sum(x.den > 1 for x in elems) > 10
        for u in self.units(F):
            for x in elems:
                for a, b in ((u, x), (x, u)):
                    got, want = a * b, _convolution(F, a, b)
                    assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("ell", [3, 5, 9, 15])
    def test_unit_times_unit_equals_convolution(self, ell):
        F = CycloField(ell)
        units = self.units(F)
        for a in units:
            for b in units:
                got, want = a * b, _convolution(F, a, b)
                assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("ell", [3, 5, 9, 15])
    def test_unit_inverse(self, ell):
        F = CycloField(ell)
        for u in self.units(F):
            inv = F._inv(u)
            assert u * inv == F.one and inv * u == F.one
            assert _convolution(F, u, inv) == F.one
