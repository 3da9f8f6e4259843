import gc
import itertools
import random
import weakref
from fractions import Fraction as QQ
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bar, fraction_divmod
from uzeta.genericuq import generic_uq
from uzeta.rootdata import convex_order, default_w0_word
from uzeta.scalars import (
    MEMO_SIZE,
    QF_ONE,
    CycloField,
    GaloisField,
    L_ONE,
    Laurent,
    Localized,
    QFraction,
    ResidueElement,
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
        assert bar(q_int(3)) == q_int(3)  # balanced
        assert bar(Laurent.q_power(2)) == Laurent.q_power(-2)

    def test_gcd(self):
        # gcd([2][4], [2][3]) is [2], normalized monic with constant term
        g = laurent_gcd(q_int(2) * q_int(4), q_int(2) * q_int(3))
        assert g == Laurent(0, (1, 0, 1))


def _canonical_coefficients(x: Laurent) -> bool:
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is QQ and c.denominator != 1) for c in x.c)


class TestCoefficients:
    def test_quantum_numbers_are_integral(self):
        for d in (1, 2, 3):
            for n in range(-3, 9):
                for x in (q_int(n, d), q_factorial(max(n, 0), d), *(q_binom(n, b, d) for b in range(-1, n + 2))):
                    assert all(type(c) is int for c in x.c), (n, d, x)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_structure_table_coefficients(self, label):
        table = generic_uq(label).structure_table(convex_order(label, default_w0_word(label)))
        values = [c.num for entries in (table.e_entries, table.f_entries) for tail in entries.values() for c in tail.values()]
        values += [x for u in table.omega_units for x in (u.num, u.den)]
        assert values and all(_canonical_coefficients(x) for x in values)

    def test_integral_results_are_ints(self):
        half = Laurent(0, (QQ(1, 2), QQ(3, 2)))
        assert _canonical_coefficients(half)
        for x in (half + half, half * 2, half - half, half * Laurent(0, (2, 4)), Laurent(0, (QQ(4, 2),))):
            assert _canonical_coefficients(x), x
        assert (half + half).c == (1, 3) and type((half * 2).c[0]) is int

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Laurent(0, (1.5,))
        with pytest.raises(TypeError):
            Laurent(0, (0.0, 1))  # an edge zero too
        with pytest.raises(TypeError):
            Laurent.const(2.0)
        with pytest.raises(TypeError):
            q_int(2) * 0.5
        with pytest.raises(TypeError):
            QFraction.of(1.0)

    def test_divmod_by_non_monic_divisor(self):
        rng = random.Random(35)
        for _ in range(300):
            a = Laurent(rng.randint(-3, 3), [QQ(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(0, 7))])
            lead = rng.choice((2, -3, 5, QQ(2, 3), QQ(-7, 4)))
            b = Laurent(rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [lead])
            quo, rem = a.divmod_by(b)
            want_quo, want_rem = fraction_divmod(a, b)
            assert {quo.lo + i: c for i, c in enumerate(quo.c) if c} == want_quo, (a, b)
            assert {rem.lo + i: c for i, c in enumerate(rem.c) if c} == want_rem, (a, b)
            assert _canonical_coefficients(quo) and _canonical_coefficients(rem)
            assert quo * b + rem == a

    def test_normalized_fraction_divides_exactly(self):
        # a denominator with leading coefficient 3: num and den are divided by it
        x = QFraction(Laurent(0, (1, 2)), Laurent(-1, (1, 0, 3)))
        assert x.den.c == (QQ(1, 3), 0, 1) and x.num.c == (QQ(1, 3), QQ(2, 3))
        assert _canonical_coefficients(x.num) and _canonical_coefficients(x.den)
        assert x * QFraction(Laurent(-1, (1, 0, 3)), Laurent(0, (1, 2))) == QF_ONE
        assert _canonical_coefficients(laurent_gcd(Laurent(0, (2, 4)), Laurent(0, (6, 12))))


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

CANONICAL_FIELDS = [CycloField(3), CycloField(5), CycloField(9), GaloisField(7, 3), GaloisField(5, 3), GaloisField(3, 5)]


class TestCanonicalForm:
    @given(st.sampled_from(CANONICAL_FIELDS), cyclo_vectors, cyclo_vectors)
    @settings(max_examples=300, deadline=None)
    def test_integers_over_one_denominator(self, F, xs, ys):
        p = F.char

        def elem(cs):
            out = F.zero
            for k, c in enumerate(cs):
                # a coefficient over a multiple of p has no value in F_{p^n}
                out = out + F.zeta_power(k) * (c if not p or c.denominator % p else c.numerator)
            return out

        a, b = elem(xs), elem(ys)
        values = [a, b, a + b, a - b, a * b, -a, a * QQ(-3, 4), a * 6]
        if b:
            values += [a / b, (a * b) / b]
        for v in values:
            if p:
                assert v.den == 1 and all(0 <= x < p for x in v.num)
            else:
                assert v.den > 0 and gcd(*v.num, v.den) == 1
            assert len(v.num) == F.deg
        if p:
            with pytest.raises(ZeroDivisionError, match="division by zero") as e:
                F.coerce(QQ(1, p))
            assert F.desc in str(e.value)
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

    @pytest.mark.parametrize(
        "p,ell,deg,modulus,zeta",
        [
            (7, 3, 1, (0, 1), (4,)),
            (13, 3, 1, (0, 1), (3,)),
            (5, 3, 2, (2, 0, 1), (2, 1)),
            (11, 5, 1, (0, 1), (4,)),
            (3, 5, 4, (2, 1, 0, 0, 1), (2, 1, 0, 2)),
            (7, 5, 4, (1, 1, 0, 0, 1), (0, 6, 2, 5)),
            (2, 7, 3, (1, 1, 0, 1), (0, 1, 0)),
            (3, 7, 6, (2, 1, 0, 0, 0, 0, 1), (1, 0, 2, 2, 2, 2)),
        ],
    )
    def test_presentation(self, p, ell, deg, modulus, zeta):
        # the first irreducible modulus and the first primitive root of the
        # two scans: every F_{p^n} report prints coordinates in this basis
        G = GaloisField(p, ell)
        assert (G.deg, G.modulus, G.zeta.num) == (deg, modulus, zeta)

    @pytest.mark.parametrize(
        "p,ell,degrees",
        [(2, 3, (2, 3, 4, 5, 6)), (3, 2, (2, 3, 4, 5, 6)), (5, 2, (2, 3, 4)), (7, 3, (2, 3))],
    )
    def test_rabin_by_powers_agrees_with_trial_division(self, p, ell, degrees):
        # every monic g of each degree n over F_p (the field lends only its
        # p); a reducible g has a monic factor of degree <= n/2.  Degree 6
        # is the first where a reducible g with x^(p^n) = x mod g can have
        # h = x^(p^(n/r)) - x nonzero and still not a unit
        G = GaloisField(p, ell)

        def divides(f, g):
            r = list(g)
            for k in reversed(range(len(g) - len(f) + 1)):
                c = r[k + len(f) - 1]
                for i, y in enumerate(f):
                    r[k + i] = (r[k + i] - c * y) % p
            return not any(r[: len(f) - 1])

        for n in degrees:
            factors = [co + (1,) for d in range(1, n // 2 + 1) for co in itertools.product(range(p), repeat=d)]
            for co in itertools.product(range(p), repeat=n):
                g = co + (1,)
                assert G._is_irreducible(g) is not any(divides(f, g) for f in factors), g

    def test_prime_field_with_root(self):
        G = GaloisField(7, 3)
        assert G.deg == 1 and G.char == 7
        assert G.zeta ** 3 == G.one and G.zeta != G.one
        assert G.eval_laurent(q_int(3)) == G.zero

    def test_extension_field(self):
        G = GaloisField(5, 3)  # ord_3(5) = 2
        assert G.deg == 2
        assert G.zeta ** 3 == G.one and G.zeta != G.one
        x = G.zeta + G.from_int(2)
        assert x * (G.one / x) == G.one

    @pytest.mark.parametrize("p,ell", [(7, 3), (5, 3)])
    def test_inverse_exhaustive(self, p, ell):
        # every nonzero element of GF(7) and of GF(5^2)
        G = GaloisField(p, ell)
        for co in itertools.product(range(p), repeat=G.deg):
            x = ResidueElement(G, co)
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
        elems = [ResidueElement(G, co) for co in itertools.product(range(p), repeat=G.deg)]
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
        # built by integer scaling of the power table
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


def _schoolbook_mod(G, a, b):
    """a * b in F_p[x]/(g), g = G.modulus monic: full product, then long division."""
    n, g = G.deg, G.modulus
    buf = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            buf[i + j] += x * y
    for k in reversed(range(n, 2 * n - 1)):
        c = buf[k]
        for i, y in enumerate(g):
            buf[k - n + i] -= c * y
    return tuple(x % G.p for x in buf[:n])


def _cyclo_sample(F, rng):
    """Random elements of F: the signed units +-zeta^k, small integers, and
    random vectors, each of the last also over denominators 2, 3 and 6, so
    that several elements share a numerator and differ in ``den``."""
    out = [F.zeta_power(k) * s for k in range(F.ell) for s in (1, -1)]
    out += [F.from_int(k) for k in (2, -3)]
    for _ in range(8):
        num = [rng.randint(-9, 9) for _ in range(F.deg)]
        num[-1] = 1  # content 1, so num/2, num/3 and num/6 keep num
        x = F.zero
        for k, c in enumerate(num):
            x = x + F.zeta_power(k) * c
        out += [x * QQ(1, d) for d in (1, 2, 3, 6)]
    return out


class TestProductMemo:
    """Each residue field memoizes its products and inverses, per field,
    keyed on the interned operands, within MEMO_SIZE entries."""

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_cyclo_products_and_inverses(self, ell):
        F = CycloField(ell)
        elems = _cyclo_sample(F, random.Random(ell))
        assert {x.num for x in elems if x.den == 6} <= {x.num for x in elems if x.den == 1}
        # the second pass reads every product back from the memo
        for _ in range(2):
            for a in elems:
                for b in elems:
                    got, want = a * b, _convolution(F, a, b)
                    assert (got.num, got.den) == (want.num, want.den)
                inv = F._inv(a)
                assert a * inv == F.one and _convolution(F, a, inv) == F.one
        assert F._product.cache_info().hits >= len(elems) ** 2

    @pytest.mark.parametrize("p,ell", [(5, 3), (2, 7), (3, 5)])
    def test_galois_products_and_inverses(self, p, ell):
        G = GaloisField(p, ell)
        assert G.deg > 1
        rng = random.Random(p + ell)
        elems = [ResidueElement(G, tuple(rng.randrange(p) for _ in range(G.deg))) for _ in range(30)]
        for _ in range(2):
            for a in elems:
                for b in elems:
                    assert (a * b).num == _schoolbook_mod(G, a.num, b.num)
                if a:
                    assert _schoolbook_mod(G, a.num, G._inv(a).num) == G.one.num
        assert G._product.cache_info().hits >= len(elems) ** 2

    def test_memo_is_bounded(self):
        F = CycloField(5)
        pairs = [(F.from_int(k) + F.zeta, F.zeta_power(k % 5) * (k % 7 - 3)) for k in range(MEMO_SIZE + 300)]
        invs = [F.from_int(k) + F.zeta for k in range(MEMO_SIZE + 300)]
        # the first round fills the memos past their bound; the second
        # recomputes the entries evicted first
        for _ in range(2):
            for a, b in pairs:
                got, want = a * b, _convolution(F, a, b)
                assert (got.num, got.den) == (want.num, want.den)
            for a in invs:
                assert _convolution(F, a, F._inv(a)) == F.one
            assert F._product.cache_info().currsize == MEMO_SIZE
            assert F._inverse.cache_info().currsize == MEMO_SIZE
        G = GaloisField(3, 5)  # GF(3^4): 6,561 products, past the bound
        elems = [ResidueElement(G, co) for co in itertools.product(range(3), repeat=4)]
        for _ in range(2):
            for a in elems:
                for b in elems:
                    assert (a * b).num == _schoolbook_mod(G, a.num, b.num)
            assert G._product.cache_info().currsize == MEMO_SIZE

    @pytest.mark.parametrize("make", [lambda: CycloField(5), lambda: GaloisField(3, 5)], ids=["cyclo", "gf"])
    def test_fields_share_no_entries(self, make):
        F1, F2 = make(), make()
        # GaloisField fills its memo while it finds zeta
        before = F2._product.cache_info(), F2._inverse.cache_info()
        x = F1.zeta + 2
        assert x * x / (F1.zeta + 1) == (F1.zeta * F1.zeta + F1.zeta * 4 + 4) / (F1.zeta + 1)
        assert F1._product.cache_info().misses and F1._inverse.cache_info().misses
        assert (F2._product.cache_info(), F2._inverse.cache_info()) == before
        # the same coordinates in the second field give its own elements
        y = F2.zeta + 2
        assert (y * y).ctx is F2 and (y / (F2.zeta + 1)).ctx is F2 and y * y != x * x
        # and the memo, which refers to its field, dies with it
        ref = weakref.ref(F1)
        del F1, x
        gc.collect()
        assert ref() is None


INTERN_FIELDS = [
    lambda: CycloField(3),
    lambda: CycloField(5),
    lambda: GaloisField(7, 3),
    lambda: GaloisField(3, 5),
]
INTERN_IDS = ["cyclo3", "cyclo5", "gf7", "gf3^4"]


def _memos(F):
    return [F._sum, F._difference, F._negative, F._product, F._inverse]


def _random_element(F, rng):
    # no denominator divisible by p, which has no value in F_{p^n}
    dens = [1, 2, 3, 6] if F.char not in (2, 3) else [1]
    x = F.zero
    for k in range(F.deg):
        x = x + F.zeta_power(k) * QQ(rng.randint(-9, 9), rng.choice(dens))
    return x


class TestInterning:
    """Each residue field keeps one live object per value: equal elements
    are identical, whatever made them, and the intern table and the five
    memos hold no more than they must."""

    @pytest.mark.parametrize("make", INTERN_FIELDS, ids=INTERN_IDS)
    def test_equal_values_are_one_object(self, make):
        F = make()
        ell, one, zeta = F.ell, F.one, F.zeta
        twos = [
            F.from_int(2), F.coerce(2), F.coerce(QQ(4, 2)), one + one, 3 - one, -F.from_int(-2),
            one * 2, 2 * one, one * QQ(2), F.from_int(4) / 2, (one + 1) ** 1,
            F.from_int(4) * F.coerce(QQ(1, 2)), F.eval_laurent(Laurent.const(2)),
        ]
        zetas = [
            zeta, F.zeta_power(1), F.zeta_power(ell + 1), F.zeta_power(1 - ell), zeta ** (ell + 1),
            F.zeta_power(2) / zeta, (zeta + 1) - 1, -(-zeta), zeta * one, one / F.zeta_power(-1),
            zeta ** -(ell - 1), F.eval_laurent(Laurent.q_power(1)), F.eval_laurent(Laurent.q_power(ell + 1)),
        ]
        for values in (twos, zetas):
            assert all(v is values[0] for v in values), [str(v) for v in values]
        rng = random.Random(F.deg + F.char)
        for _ in range(40):
            x, y = _random_element(F, rng), _random_element(F, rng)
            routes = [x + y - y, y + x - y, x - y + y, -(-x), x * 1, QQ(1) * x]
            if y:
                routes += [x * y / y, (y * x) * (1 / y), x / y * y]
            assert all(v is x for v in routes)
            # the coordinates rebuilt into an element give that element back
            assert ResidueElement(F, x.num, x.den) is x and F._reduced(x.num, x.den) is x
            if not F.char:  # coordinates on the powers of zeta
                assert F.eval_laurent(Laurent(0, tuple(QQ(c, x.den) for c in x.num))) is x

    @pytest.mark.parametrize("make", INTERN_FIELDS, ids=INTERN_IDS)
    def test_identity_agrees_with_coordinates(self, make):
        F = make()
        rng = random.Random(3 * F.deg + F.char)
        base = [_random_element(F, rng) for _ in range(12)] + [F.zero, F.one, F.zeta]
        values = base + [op(a, b) for a in base for b in base for op in (
            lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b)]
        for u in values:
            key = (u.num, u.den)
            for v in values:
                assert (u == v) is (u is v) is (key == (v.num, v.den))
                assert (u != v) is not (u == v)
            assert bool(u) is any(u.num)
        assert len(set(values)) == len({(v.num, v.den) for v in values})

    @pytest.mark.parametrize("make", [lambda: CycloField(5), lambda: GaloisField(3, 5)], ids=["cyclo5", "gf3^4"])
    def test_all_five_memos_are_bounded(self, make):
        F = make()
        if F.char:
            elems = [ResidueElement(F, co) for co in itertools.product(range(3), repeat=4)]
        else:
            elems = [F.from_int(k) + F.zeta_power(k) for k in range(70)]
        units = [F.from_int(k) + F.zeta for k in range(1, MEMO_SIZE + 300)] if not F.char else elems
        for _ in range(2):
            for a in elems:
                for b in elems:
                    _ = a + b, a - b, a * b
            for a in units:
                if a:
                    _ = -a, F._inv(a)
            for memo in _memos(F):
                assert memo.cache_info().currsize <= MEMO_SIZE
        # past the bound wherever more than MEMO_SIZE distinct operands came
        assert [memo.cache_info().currsize == MEMO_SIZE for memo in _memos(F)] == (
            [True, True, False, True, False] if F.char else [True] * 5
        )

    @pytest.mark.parametrize("make", INTERN_FIELDS, ids=INTERN_IDS)
    def test_table_drops_values_nothing_holds(self, make):
        F = make()
        rng = random.Random(F.deg)
        keep = _random_element(F, rng) * F.zeta + 5
        made = []
        for _ in range(60):
            x, y = _random_element(F, rng), _random_element(F, rng)
            made += [x + y, x - y, -x, x * y] + ([1 / y] if y else [])
        refs = [weakref.ref(v) for v in made]
        held = {F.zero, F.one, *F._zeta_pows, keep}
        assert len(F._elements) > len(held)
        del made, x, y
        # the memos hold their operands and results alive; the table does not
        assert any(r() is not None and r() not in held for r in refs)
        for memo in _memos(F):
            memo.cache_clear()
        gc.collect()
        assert set(F._elements.values()) == held
        assert all(r() is None or r() in held for r in refs)
        assert F._reduced(keep.num, keep.den) is keep


class TestResidueLayer:
    """The square-and-multiply, division and evaluation both fields share."""

    @pytest.mark.parametrize("p,ell,n", [(2, 7, 3), (3, 5, 4)])
    def test_extension_products(self, p, ell, n):
        G = GaloisField(p, ell)
        assert G.deg == n and len(G.modulus) == n + 1
        rng = random.Random(p * ell)
        for _ in range(400):
            a, b = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
            assert (ResidueElement(G, a) * ResidueElement(G, b)).num == _schoolbook_mod(G, a, b)

    @pytest.mark.parametrize("p,ell", [(2, 7), (3, 5)])
    def test_extension_powers(self, p, ell):
        G = GaloisField(p, ell)
        rng = random.Random(ell)
        for _ in range(40):
            x = ResidueElement(G, tuple(rng.randrange(p) for _ in range(G.deg)))
            if not x:
                continue
            assert x ** (p ** G.deg - 1) == G.one
            want = G.one
            for k in range(9):
                assert x ** k == want and x ** -k == (1 / x) ** k
                want = want * x
        orders = [j for j in range(1, ell + 1) if G.zeta ** j == G.one]
        assert orders == [ell]

    @pytest.mark.parametrize(
        "field", [CycloField(3), GaloisField(7, 3), CycloField(5), GaloisField(3, 5)], ids=lambda f: f.desc
    )
    def test_vanishing_at_zeta_raises(self, field):
        ell = field.ell
        with pytest.raises(ZeroDivisionError, match="vanishes") as e:
            field.eval_fraction(QFraction(L_ONE, q_int(ell)))
        assert field.desc in str(e.value)
        with pytest.raises(ZeroDivisionError, match="vanishes") as e:
            field.eval_localized(Localized(L_ONE, (ell,), (1,)))
        assert field.desc in str(e.value)

    @pytest.mark.parametrize("field", [CycloField(5), GaloisField(7, 3), GaloisField(3, 5)], ids=lambda f: f.desc)
    def test_products_and_inverses_are_counted(self, field, monkeypatch):
        # the benchmark tracer counts field work by wrapping these four methods
        counts = {"_mul": 0, "_inv": 0}
        for cls in (CycloField, GaloisField):
            for name in counts:

                def counted(self, *args, fn=getattr(cls, name), name=name):
                    counts[name] += 1
                    return fn(self, *args)

                monkeypatch.setattr(cls, name, counted)
        x, y = field.zeta + 2, field.zeta - 3

        def tally(op):
            before = dict(counts)
            op()
            return counts["_mul"] - before["_mul"], counts["_inv"] - before["_inv"]

        assert tally(lambda: x * y) == (1, 0)
        assert tally(lambda: x / y) == (1, 1)
        assert tally(lambda: 1 / y) == (0, 1)  # the inverse itself, not one times it
        muls, invs = tally(lambda: x ** 3)
        assert muls > 0 and invs == 0
        muls, invs = tally(lambda: x ** -2)
        assert muls > 0 and invs == 1

    @pytest.mark.parametrize("field", [CycloField(5), GaloisField(7, 3)], ids=lambda f: f.desc)
    def test_pivot_inversion_is_the_memoized_inverse(self, field, monkeypatch):
        # Eliminator.insert inverts each pivot as 1 / x
        x = field.zeta + 2
        assert (1 / x) * x is field.one
        muls = []
        mul = type(field)._mul
        monkeypatch.setattr(type(field), "_mul", lambda self, a, b: muls.append((a, b)) or mul(self, a, b))
        assert 1 / x is field._inv(x)
        assert muls == []
        with pytest.raises(ZeroDivisionError):
            1 / field.zero

    def test_laurent_power(self):
        rng = random.Random(11)
        for _ in range(40):
            x = Laurent(rng.randint(-2, 2), tuple(QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)))
            want = L_ONE
            for n in range(7):
                assert x ** n == want
                want = want * x

    def test_qfraction_power(self):
        rng = random.Random(12)
        for _ in range(15):
            num, den = (Laurent(rng.randint(-1, 1), (QQ(rng.randint(1, 3)), QQ(rng.randint(-2, 2)))) for _ in range(2))
            x = QFraction(num, den)
            inv = QF_ONE / x
            up = down = QF_ONE
            for n in range(5):
                assert x ** n == up and x ** -n == down
                up, down = up * x, down * inv
