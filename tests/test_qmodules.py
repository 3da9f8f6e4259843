import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uzeta.qmodules import (
    ModuleCheckError,
    SpecSyntaxError,
    am_weight_basis,
    coverma_module,
    dual_module,
    find_isomorphism,
    head_over_unipotent,
    onedim_module,
    parse_module_spec,
    quot_module,
    randsub_module,
    realize,
    realize_text,
    simple_module,
    socle_over_unipotent,
    sum_module,
    tensor_module,
    trivial_module,
    twist_module,
    verma_character_test,
    verma_module,
    zdual_check,
)


class TestVerma:
    def test_a1_character(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))
        assert vm.character() == Counter({(0,): 1, (-2,): 1, (-4,): 1})
        vm.check()

    def test_dimension_and_highest_line(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (1, 2))
        assert vm.dim == 27
        assert sum(1 for w in vm.weights if w == (1, 2)) == 1
        vm.check()

    def test_head_is_highest_weight_line(self, ctxmaker):
        # as a Borel module the induced module is the projective cover
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (2, 1))
        assert head_over_unipotent(vm) == [(2, 1)]

    def test_socle_weight(self, ctxmaker):
        # one-dimensional socle of weight lam - 2(l-1)rho
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (2,))
        soc = socle_over_unipotent(vm)
        assert len(soc) == 1
        ((idx, _),) = list(soc[0].items())
        assert vm.weights[idx] == (-2,)

    def test_socle_weight_a2(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (0, 0))
        soc = socle_over_unipotent(vm)
        assert len(soc) == 1
        idx = min(soc[0])
        assert vm.weights[idx] == (-4, -4)  # -2(l-1)rho

    def test_character_order_independent(self, ctxmaker):
        a = verma_module(ctxmaker("A2", 3), (1, 1)).character()
        b = verma_module(ctxmaker("A2", 3, w0=(2, 1, 2)), (1, 1)).character()
        assert a == b

    def test_higher_kernel_dimension(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        vm = verma_module(ctx, (2,))
        assert vm.dim == 21
        vm.check()

    @pytest.mark.parametrize(
        "label,ell,p,r,lam",
        [("A2", 3, None, 0, (1, 1)), ("B2", 3, None, 0, (1, 0)), ("A1", 3, 7, 1, (4,))],
        ids=["A2-l3", "B2-l3", "A1-l3-p7-r1"],
    )
    def test_monomial_on_top_is_basis_vector(self, ctxmaker, label, ell, p, r, lam):
        # F^{(a)} v_lam is basis vector a: F_{gamma_1}^{(a_1)} ... F_{gamma_N}^{(a_N)},
        # rightmost factor first, and at r = 1 with F^{(ell)} parts
        ctx = ctxmaker(label, ell, p=p, r=r)
        vm = verma_module(ctx, lam)
        fexps = sorted(itertools.product(range(ctx.cap), repeat=ctx.n))
        zk, ze = (0,) * ctx.rank, (0,) * ctx.n
        for i, a in enumerate(fexps):
            assert vm.act_monomial((a, zk, ze), {0: ctx.field.one}) == {i: ctx.field.one}, a


class TestCoverma:
    def test_character_matches_verma(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        assert coverma_module(ctx, (1, 0)).character() == verma_module(ctx, (1, 0)).character()

    def test_socle_is_top_line(self, ctxmaker):
        # over the plus Borel the coinduced module has socle lam on top
        ctx = ctxmaker("A1", 3)
        cv = coverma_module(ctx, (1,))
        cv.check()
        ctxf = ctx.field
        # E-socle: joint kernel of E-generators
        cols = []
        for i in range(cv.dim):
            col = {}
            for row, c in cv.act_gen(("E", 0), {i: ctxf.one}).items():
                col[row] = c
            cols.append((i, col))
        from uzeta.linalg import kernel_basis

        soc = kernel_basis(cols, one=ctxf.one)
        assert len(soc) == 1
        assert cv.weights[min(soc[0])] == (1,)


class TestDualTensor:
    def test_dual_involutive_on_characters(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        m = verma_module(ctx, (1,))
        dd = dual_module(dual_module(m))
        assert dd.character() == m.character()
        assert find_isomorphism(dd, m) is not None

    def test_dual_of_trivial(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        d = dual_module(trivial_module(ctx))
        assert d.character() == Counter({(0,): 1})
        d.check()

    @given(st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=9, deadline=None)
    def test_tensor_character_is_product(self, a, b):
        from tests.conftest import get_context

        ctx = get_context("A1", 3)
        m = simple_module(ctx, (a,))
        n = simple_module(ctx, (b,))
        t = tensor_module(m, n)
        conv = Counter()
        for mu, cm in m.character().items():
            for nu, cn in n.character().items():
                conv[tuple(x + y for x, y in zip(mu, nu))] += cm * cn
        assert t.character() == conv

    def test_tensor_relations_hold(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        t = tensor_module(simple_module(ctx, (1, 0)), dual_module(simple_module(ctx, (1, 0))))
        t.check()
        assert "big" in t.flags

    def test_tensor_divided_powers_r1(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        t = tensor_module(simple_module(ctx, (1,)), simple_module(ctx, (3,)))
        t.check()  # exercises Delta on E^{(3)}, F^{(3)}


class TestSimple:
    def test_a1_dims(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        assert [simple_module(ctx, (a,)).dim for a in range(3)] == [1, 2, 3]

    def test_a2_dims(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        dims = {
            lam: simple_module(ctx, lam).dim
            for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]
        }
        assert dims == {
            (0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 7, (2, 0): 6,
            (0, 2): 6, (2, 1): 15, (1, 2): 15, (2, 2): 27,
        }

    def test_steinberg_tensor_pattern_r1(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        dims = {a: simple_module(ctx, (a,)).dim for a in [0, 1, 2, 3, 6, 20]}
        assert dims == {0: 1, 1: 2, 2: 3, 3: 2, 6: 3, 20: 21}

    def test_restricted_weight_required(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        with pytest.raises(ValueError):
            simple_module(ctx, (3,))

    def test_flags(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        assert "big" in simple_module(ctx, (2,)).flags
        assert "big" not in verma_module(ctx, (2,)).flags


class TestSubQuot:
    def test_seeded_determinism(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        a = randsub_module(verma_module(ctx, (1,)), 42)
        b = randsub_module(verma_module(ctx, (1,)), 42)
        assert a.weights == b.weights and a.actions == b.actions

    def test_sub_plus_quot_dimensions(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (1, 1))
        s = randsub_module(vm, 7)
        q = quot_module(vm, 7)
        assert s.dim + q.dim == vm.dim
        s.check()
        q.check()

    def test_flags_dropped(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        s = randsub_module(tensor_module(simple_module(ctx, (2,)), simple_module(ctx, (2,))), 5)
        assert "big" not in s.flags and "torus" in s.flags


class TestSpecDSL:
    @pytest.mark.parametrize(
        "text",
        [
            "trivial",
            "verma(2)",
            "coverma(0)",
            "simple(1)",
            "dual(simple(2))",
            "tensor(simple(2),dual(simple(2)))",
            "sum(verma(0),simple(1))",
            "twist(verma(1),3)",
            "randsub(verma(1),42)",
            "quot(sum(verma(0),simple(1)),7)",
        ],
    )
    def test_roundtrip(self, ctxmaker, text):
        spec = parse_module_spec(text, 1)
        assert str(spec) == text
        realize(ctxmaker("A1", 3), spec).check()

    def test_rank_two_weights(self, ctxmaker):
        m = realize_text(ctxmaker("A2", 3), "verma(1,2)")
        assert m.dim == 27

    def test_syntax_errors(self):
        with pytest.raises(SpecSyntaxError):
            parse_module_spec("verma(1", 1)
        with pytest.raises(SpecSyntaxError):
            parse_module_spec("frobnicate(1)", 1)
        with pytest.raises(SpecSyntaxError):
            parse_module_spec("verma(1,2)", 1)
        with pytest.raises(SpecSyntaxError):
            parse_module_spec("verma(1)x", 1)

    def test_twist_needs_invisible_weight(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        with pytest.raises(ValueError):
            twist_module(verma_module(ctx, (0,)), (1,))

    def test_onedim_needs_kernel_killing_weight(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        with pytest.raises(ValueError):
            onedim_module(ctx, (1,))
        onedim_module(ctx, (3,)).check()


class TestGradingRelationChecks:
    def test_detects_broken_grading(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        m = verma_module(ctx, (0,))
        bad = verma_module(ctx, (0,))
        bad.weights = tuple([(5,)] + list(bad.weights[1:]))
        with pytest.raises(ModuleCheckError):
            bad.check()

    def test_detects_broken_relation(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        bad = verma_module(ctx, (0,))
        mat = dict(bad.actions[("E", 0)])
        mat[0] = {0: ctx.field.one}  # E no longer kills the top: breaks grading
        bad.actions[("E", 0)] = mat
        with pytest.raises(ModuleCheckError):
            bad.check()


class TestWeightBasisOverLayers:
    def test_verma_free_ranks(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (0, 0))
        for m in [1, 2, 3]:
            basis = am_weight_basis(vm, m)
            assert basis is not None and len(basis) == 3 ** (3 - m)

    def test_trivial_fails(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        assert am_weight_basis(trivial_module(ctx), 1) is None

    def test_regular_layer_rank_one(self, ctxmaker):
        # the layer itself, realized as a submodule of a Verma
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))
        assert am_weight_basis(vm, 1) is not None
        assert len(am_weight_basis(vm, 1)) == 1


class TestCharacterTest:
    def test_verma_and_sums_pass(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))
        assert verma_character_test(vm)
        assert verma_character_test(sum_module(vm, verma_module(ctx, (2,))))

    def test_trivial_fails(self, ctxmaker):
        assert not verma_character_test(trivial_module(ctxmaker("A1", 3)))

    def test_steinberg_tensor_passes(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        st = simple_module(ctx, (2,))
        assert verma_character_test(tensor_module(st, st))


class TestZdual:
    @pytest.mark.parametrize("lam", [(0,), (1,), (2,)])
    def test_a1_identification(self, ctxmaker, lam):
        rep = zdual_check(ctxmaker("A1", 3), lam)
        assert "verma" in rep["dual_verma"]
        assert "coverma" in rep["dual_coverma"]
        assert rep["reflected"] == (4 - lam[0],)

    def test_a2_identification(self, ctxmaker):
        rep = zdual_check(ctxmaker("A2", 3), (1, 2))
        assert "verma" in rep["dual_verma"]
        assert "coverma" in rep["dual_coverma"]

    def test_r1_identification(self, ctxmaker):
        rep = zdual_check(ctxmaker("A1", 3, p=7, r=1), (1,))
        assert "verma" in rep["dual_verma"]
        assert rep["reflected"] == (39,)


def _word_act_rv(m, side, pos, vec):
    """Plain root vector on a module vector through its simple words."""
    from uzeta.linalg import vec_add_term

    ctx = m.ctx
    out = {}
    for word, c in ctx.rv_words[side][pos]:
        cur = {i: x * c for i, x in vec.items()}
        for j in reversed(word):
            cur = m.act_gen((side, j), cur)
            if not cur:
                break
        for i, x in cur.items():
            vec_add_term(out, i, x)
    return out


class TestRootVectorMatrices:
    @pytest.mark.parametrize("label,ell", [("A2", 3), ("B2", 3)])
    def test_cached_matrices_match_word_reference(self, ctxmaker, label, ell):
        ctx = ctxmaker(label, ell)
        one = ctx.field.one
        modules = [
            verma_module(ctx, (1, 1)),
            coverma_module(ctx, (1, 0)),
            tensor_module(verma_module(ctx, (0, 1)), simple_module(ctx, (1, 0))),
        ]
        for m in modules:
            mixed = {i: ctx.field.from_int(i % 7 + 1) for i in range(m.dim)}
            for side in "FE":
                for pos in range(ctx.n):
                    gen = (side + "rv", pos)
                    mat = m.generator_matrix(gen)
                    assert m.generator_matrix(gen) is mat
                    for j in range(m.dim):
                        ref = _word_act_rv(m, side, pos, {j: one})
                        assert mat.get(j, {}) == ref, (m.label, gen, j)
                        assert m.act_gen(gen, {j: one}) == ref
                    assert m.act_gen(gen, mixed) == _word_act_rv(m, side, pos, mixed)


# -- reference: the Verma actions as written before ``KernelContext.pbw_terms`` --


def _reference_verma_actions(ctx, lam):
    """F by collection, E pushed through the F part and evaluated at lam."""
    from uzeta.linalg import vec_add_term

    fexps = sorted(itertools.product(range(ctx.cap), repeat=ctx.n))
    index = {a: i for i, a in enumerate(fexps)}
    acts = {}
    for j in range(ctx.rank):
        mat = {}
        for a in fexps:
            col = {index[a2]: c for a2, c in ctx.lmul_rv("F", ctx.simple_pos[j], a).items()}
            if col:
                mat[index[a]] = col
        acts[("F", j)] = mat
    if ctx.r:
        nn = ctx.ell
        mat = {}
        for a in fexps:
            c = ctx.gauss_binom(a[0] + nn, nn, ctx.d_gamma[0])
            if a[0] + nn < ctx.cap and c:
                mat[index[a]] = {index[(a[0] + nn,)]: c}
        acts[("Fd0", 0)] = mat
        lam_hat = lam[0] * ctx.d_gamma[0]
        for gen, m_e in ((("E", 0), 1), (("Ed0", 0), ctx.ell)):
            mat = {}
            for a in fexps:
                col = {}
                for f_t, c_off, t, e_t in ctx.mixed_rank1_terms(m_e, a[0]):
                    if not e_t:
                        vec_add_term(col, index[(f_t,)], ctx.gauss_binom(lam_hat + c_off, t))
                if col:
                    mat[index[a]] = col
            acts[gen] = mat
        return acts
    for j in range(ctx.rank):
        mat = {}
        for a in fexps:
            col = {}
            for (a2, mu, has_e), c in ctx.push_E_through_F(j, a):
                if not has_e:  # E kills the highest vector
                    vec_add_term(col, index[a2], c * ctx.zeta_pow(ctx.datum.pair_weight_root(lam, mu)))
            if col:
                mat[index[a]] = col
        acts[("E", j)] = mat
    return acts


class TestVermaReference:
    @pytest.mark.parametrize(
        "label,ell,p,r,lam",
        [
            ("A2", 3, None, 0, (1, 2)),
            ("A2", 5, None, 0, (3, 1)),
            ("B2", 3, None, 0, (1, 1)),
            ("A1", 3, 7, 1, (4,)),
        ],
        ids=["A2-l3", "A2-l5", "B2-l3", "A1-l3-p7-r1"],
    )
    def test_actions_match_reference(self, ctxmaker, label, ell, p, r, lam):
        ctx = ctxmaker(label, ell, p=p, r=r)
        assert verma_module(ctx, lam).actions == _reference_verma_actions(ctx, lam)


class TestSerreRelatorsInField:
    def test_evaluated_once_per_context(self, monkeypatch):
        from uzeta.genericuq import UqGeneric
        from uzeta.kernelalg import KernelContext
        from uzeta.rootdata import convex_order, default_w0_word
        from uzeta.scalars import make_field

        ctx = KernelContext(convex_order("A2", default_w0_word("A2")), make_field(3))
        asked = []
        real = UqGeneric.serre_relators

        def counting(uq):
            asked.append(uq)
            return real(uq)

        monkeypatch.setattr(UqGeneric, "serre_relators", counting)
        verma_module(ctx, (0, 0)).check()
        verma_module(ctx, (1, 0)).check()
        assert len(asked) == 1
        want = [
            [(w, ctx.field.eval_fraction(c)) for w, c in rel.items()]
            for _, rel in real(ctx.uq)
        ]
        assert [list(rel) for rel in ctx.serre_relators()] == want

    def test_wrong_relator_is_caught(self, ctxmaker, monkeypatch):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (0, 0))
        vm.check()
        first, *rest = ctx.serre_relators()
        monkeypatch.setattr(ctx, "_serre", (first[1:],) + tuple(rest))
        with pytest.raises(ModuleCheckError, match="Serre relator acts"):
            vm.check()
