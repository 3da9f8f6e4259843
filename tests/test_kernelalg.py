import random

import pytest

from uzeta.kernelalg import KernelContext, parse_kind, specialize_table
from uzeta.genericuq import generic_uq
from uzeta.rootdata import convex_order
from uzeta.scalars import CycloField, GaloisField, QFraction, q_int


class TestSpecialization:
    def test_leading_and_tails_at_zeta(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        # the unique A2 tail specializes to 1
        tail = ctx.tables["E"][(1, 3)]
        assert tail == {(0, 1, 0): ctx.field.one}
        assert ctx.tables["E"][(1, 2)] == {}

    def test_b2_entry_specializes_finitely(self, ctxmaker):
        ctx = ctxmaker("B2", 5)
        seen = False
        for tail in ctx.tables["E"].values():
            for c in tail.values():
                seen = seen or bool(c)
        assert seen

    def test_vanishing_denominator_rejected(self):
        # a forged localized scalar with a vanishing S-generator
        from uzeta.scalars import L_ONE, Localized

        class Fake:
            e_entries = {(1, 2): {(0, 0): Localized(L_ONE, (3,), (1,))}}
            f_entries = {}

        with pytest.raises(ArithmeticError):
            specialize_table(Fake(), CycloField(3))


class TestParseKind:
    def test_kinds(self):
        assert parse_kind("g") == ("g", None, None)
        assert parse_kind("Am:2") == ("Am", 2, None)
        assert parse_kind("root:3:-") == ("root", 3, "-")
        with pytest.raises(ValueError):
            parse_kind("nonsense")


class TestAlgebraStructure:
    def test_dimensions(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        assert ctx.algebra("g").dim == 27
        assert ctx.algebra("u-").dim == 3
        assert ctx.algebra("b-").dim == 9
        ctx2 = ctxmaker("A2", 3)
        assert ctx2.algebra("g").dim == 3 ** 8
        assert ctx2.algebra("u-").dim == 27
        assert ctx2.algebra("Am:2").dim == 9
        assert ctx2.algebra("root:2:-").dim == 3

    def test_higher_kernel_dimensions(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        assert ctx.algebra("u-").dim == 21
        assert ctx.algebra("root:1:-").dim == 21
        with pytest.raises(ValueError):
            ctx.algebra("g")  # the higher-kernel torus is not a group algebra

    def test_higher_kernel_needs_char_p(self):
        order = convex_order("A1", (1,))
        with pytest.raises(ValueError):
            KernelContext(order, CycloField(3), r=1)

    def test_sl2_relation(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        g = ctx.algebra("g")
        F = ctx.field
        E, Fv = g.element(eexp=(1,)), g.element(fexp=(1,))
        lhs = g.multiply(E, Fv)
        rhs = g.multiply(Fv, E)
        dif = dict(lhs)
        for k, v in rhs.items():
            dif[k] = dif.get(k, F.zero) - v
            if not dif[k]:
                del dif[k]
        denom = F.zeta - F.one / F.zeta
        assert dif == {
            ((0,), (1,), (0,)): F.one / denom,
            ((0,), (2,), (0,)): -(F.one / denom),
        }

    def test_divided_power_collection(self, ctxmaker):
        # F . F^{(1)} = [2] F^{(2)} and F^{(2)} . F^{(1)} = [3] F^{(3)} = 0
        ctx = ctxmaker("A1", 3)
        g = ctx.algebra("g")
        Fv = g.element(fexp=(1,))
        two = g.multiply(Fv, Fv)
        assert two == {((2,), (0,), (0,)): ctx.qn(2)}
        f2 = g.element(fexp=(2,))
        assert g.multiply(f2, Fv) == {}
        assert g.multiply(Fv, f2) == {}

    def test_torus_diagonal(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        g = ctx.algebra("g")
        rng = random.Random(5)
        for j in range(2):
            K = g.element(kexp=tuple(1 if t == j else 0 for t in range(2)))
            for bk in rng.sample(g.basis, 30):
                res = g.multiply(K, {bk: ctx.field.one})
                assert len(res) == 1
                ((k2, v),) = res.items()
                assert k2[0] == bk[0] and k2[2] == bk[2]

    @pytest.mark.parametrize("label,ell,count", [("A1", 3, 0), ("A2", 3, 150)])
    def test_associativity_random(self, ctxmaker, label, ell, count):
        ctx = ctxmaker(label, ell)
        g = ctx.algebra("g")
        F = ctx.field
        rng = random.Random(2)
        if count == 0:  # exhaustive for dim <= 27
            basis = g.basis
            triples = [
                (x, y, z)
                for x in basis[::3]
                for y in basis[::3]
                for z in basis[::3]
            ]
        else:
            triples = [
                (rng.choice(g.basis), rng.choice(g.basis), rng.choice(g.basis))
                for _ in range(count)
            ]
        for x, y, z in triples:
            xv, yv, zv = {x: F.one}, {y: F.one}, {z: F.one}
            assert g.multiply(g.multiply(xv, yv), zv) == g.multiply(xv, g.multiply(yv, zv))

    def test_truncated_polynomial_ring_r1(self, ctxmaker):
        # root subalgebra at r=1, p=7: k[Y, X]/(Y^3, X^7)
        ctx = ctxmaker("A1", 3, p=7, r=1)
        alg = ctx.algebra("root:1:-")
        assert alg.dim == 21
        Y = alg.element(fexp=(1,))
        X = alg.element(fexp=(3,))
        cur = dict(Y)
        for _ in range(2):
            cur = alg.multiply(Y, cur)
        assert cur == {}
        cur = dict(X)
        for _ in range(5):
            cur = alg.multiply(X, cur)
        assert cur != {}
        cur = alg.multiply(X, cur)
        assert cur == {}


class TestIntegrals:
    @pytest.mark.parametrize("label,ell,ms", [("A1", 3, [1]), ("A2", 3, [1, 2, 3])])
    def test_socle_one_dimensional(self, ctxmaker, label, ell, ms):
        ctx = ctxmaker(label, ell)
        for m in ms:
            dim, spans = ctx.algebra(f"Am:{m}").socle_check()
            assert (dim, spans) == (1, True)

    def test_integral_element_is_top_monomial(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        alg = ctx.algebra("Am:2")
        ((key, _),) = alg.integral_element().items()
        assert key[0] == (2, 2, 0)

    def test_higher_kernel_socle(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        dim, spans = ctx.algebra("Am:1").socle_check()
        assert (dim, spans) == (1, True)

    @pytest.mark.parametrize("m", [1, 2])
    def test_normality(self, ctxmaker, m):
        ctx = ctxmaker("A2", 3)
        assert ctx.algebra(f"Am:{m}").normality_check()


class TestOmegaMirror:
    def test_mirror_kinds(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        assert ctx.algebra("u-").omega_mirror_kind() == "u+"
        assert ctx.algebra("u+").omega_mirror_kind() == "u-"
        assert ctx.algebra("g").omega_mirror_kind() == "g"
        assert ctx.algebra("root:2:-").omega_mirror_kind() == "root:2:+"

    def test_mirror_dimensions_and_units(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        um, up = ctx.algebra("u-"), ctx.algebra("u+")
        assert um.dim == up.dim
        # omega maps the E table to the F table entrywise through units
        for key, tail in ctx.tables["E"].items():
            assert set(tail) == set(ctx.tables["F"][key])

    def test_tail_unit_conjugation(self, ctxmaker):
        # f tail = e tail * prod(units^exp) / (unit_i unit_j), specialized
        ctx = ctxmaker("B2", 5)
        units = ctx.omega_units
        for (i, j), tail in ctx.tables["E"].items():
            for exp, c in tail.items():
                expect = c
                for t, a in enumerate(exp):
                    for _ in range(a):
                        expect = expect * units[t]
                expect = expect / (units[i - 1] * units[j - 1])
                assert ctx.tables["F"][(i, j)][exp] == expect


class TestGaussBinom:
    def test_integer_values(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        # [m choose t] at zeta for integer m matches the Laurent evaluation
        from uzeta.scalars import q_binom

        for m in range(0, 9):
            for t in range(0, 4):
                assert ctx.gauss_binom(m, t) == ctx.field.eval_laurent(q_binom(m, t))

    def test_negative_top(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        # [-1 choose t] = (-1)^t q^{-t(t+1)/2}-type unit; just check nonzero
        assert ctx.gauss_binom(-1, 1)
        assert ctx.gauss_binom(0, 1) == ctx.field.zero

    def test_laurent_product_formula(self, ctxmaker):
        # [m choose t] = prod_{s=1..t} (q^(m-s+1) - q^-(m-s+1)) / (q^s - q^-s)
        # over Z[q, 1/q], evaluated at zeta, for negative m too; a factor
        # with m - s + 1 = 0 makes it zero
        from uzeta.scalars import Laurent, s_generator

        ctxs = [ctxmaker("A1", 3, p=7, r=1), ctxmaker("A1", 5), ctxmaker("A2", 3)]
        for m in range(-45, 46):
            for t in range(0, 5):
                if 0 <= m < t:
                    poly = Laurent.const(0)
                else:
                    num, den = Laurent.const(1), Laurent.const(1)
                    for s in range(1, t + 1):
                        j = m - s + 1
                        num = num * (s_generator(j) if j > 0 else -s_generator(-j))
                        den = den * s_generator(s)
                    poly = num.exact_div(den)
                for ctx in ctxs:
                    assert ctx.gauss_binom(m, t) == ctx.field.eval_laurent(poly), (m, t)

    def test_mixed_relation_on_module_checked(self, ctxmaker):
        # the module checker exercises E^{(l)} F^{(l)} against the raw terms
        from uzeta.qmodules import verma_module

        ctx = ctxmaker("A1", 3, p=7, r=1)
        verma_module(ctx, (5,)).check()


def _kind_cases():
    for label, ell, p, r, n in (("A2", 3, None, 0, 3), ("A1", 3, 7, 1, 1)):
        kinds = ["g", "b-", "b+", "u-", "u+"] + [f"Am:{m}" for m in range(1, n + 1)]
        kinds += [f"root:{s}:{side}" for s in range(1, n + 1) for side in "-+"]
        for kind in kinds:
            yield pytest.param(label, ell, p, r, kind, id=f"{label}-r{r}-{kind}")


class TestAlgebraKind:
    @pytest.mark.parametrize("label,ell,p,r,kind", list(_kind_cases()))
    def test_descriptor_matches_algebra(self, ctxmaker, label, ell, p, r, kind):
        ctx = ctxmaker(label, ell, p=p, r=r)
        desc = ctx.algebra_kind(kind)
        assert ctx.algebra_kind(kind) is desc
        assert desc.is_local == (not desc.torus)
        plain = [g for g in desc.generators if not g[0].endswith("d0")]
        letters = [kd[0] for kd, _ in plain]
        assert letters == sorted(letters, key="FE".index)  # all F before all E
        if r:
            # one divided partner X^{(ell)} per plain generator, nothing deeper
            assert list(desc.generators) == plain + [(kd + "d0", j) for kd, j in plain]
        if r and desc.torus:
            with pytest.raises(ValueError):
                ctx.algebra(kind)
            return
        alg = ctx.algebra(kind)
        assert alg.dim == desc.dim
        torus = [("K", j) for j in range(ctx.rank)] if desc.torus else []
        assert alg.generator_keys() == list(desc.generators) + torus

    def test_unbuilt_higher_kernels_rejected(self):
        with pytest.raises(ValueError):
            KernelContext(convex_order("A1", (1,)), GaloisField(7, 3), r=2)
        with pytest.raises(ValueError):
            KernelContext(convex_order("A2", (1, 2, 1)), GaloisField(7, 3), r=1)
