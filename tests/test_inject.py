import pytest

from uzeta.inject import (
    BudgetExceeded,
    free_over_local,
    free_over_root,
    highest_root_test,
    module_generators,
    projective_split_test,
    record_to_line,
    support_skeleton,
    verify_borel_criterion,
    verify_reduction_borel,
    verify_root_criterion,
)
from uzeta.qmodules import (
    dual_module,
    quot_module,
    randsub_module,
    simple_module,
    sum_module,
    tensor_module,
    trivial_module,
    verma_module,
)


class TestLocalFreeness:
    def test_trivial_over_truncated_line(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        rep = free_over_local(trivial_module(ctx), "root:1:-")
        assert not rep.verdict and rep.top_dim == 1

    def test_regular_is_free_rank_one(self, ctxmaker):
        # the induced module restricted to the full unipotent layer
        ctx = ctxmaker("A1", 3)
        rep = free_over_local(verma_module(ctx, (1,)), "Am:1")
        assert rep.verdict and rep.rank == 1

    def test_verma_free_over_every_layer(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        vm = verma_module(ctx, (1, 2))
        for m in [1, 2, 3]:
            rep = free_over_local(vm, f"Am:{m}")
            assert rep.verdict and rep.rank == 3 ** (3 - m)

    def test_cross_validation_with_split_test(self, ctxmaker):
        # the Nakayama verdict must match the cover-splitting verdict
        ctx = ctxmaker("A1", 3)
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0,)),
            simple_module(ctx, (1,)),
            simple_module(ctx, (2,)),
            randsub_module(verma_module(ctx, (1,)), 3),
        ]
        for m in corpus:
            for kind in ["u-", "Am:1", "root:1:-"]:
                assert free_over_local(m, kind).verdict == projective_split_test(m, kind)

    @staticmethod
    def _cross_validate(corpus, kinds, budget=200_000):
        verdicts = set()
        for m in corpus:
            for kind in kinds:
                nakayama = free_over_local(m, kind).verdict
                assert projective_split_test(m, kind, budget) == nakayama, (m.label, kind)
                verdicts.add(nakayama)
        # both verdicts occur, so neither route can pass by being constant
        assert verdicts == {True, False}

    def test_cross_validation_rank_two(self, ctxmaker):
        # position 2 of the A2 convex order holds the non-simple root vector,
        # where the plain root vector and the simple generator differ
        ctx = ctxmaker("A2", 3)
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0, 0)),
            simple_module(ctx, (1, 1)),
            simple_module(ctx, (2, 2)),
            dual_module(verma_module(ctx, (2, 0))),
        ]
        kinds = [f"Am:{m}" for m in (1, 2, 3)]
        kinds += [f"root:{s}:{side}" for s in (1, 2, 3) for side in "-+"]
        self._cross_validate(corpus, kinds)

    def test_cross_validation_higher_kernel(self, ctxmaker):
        # at r = 1 the root vector is remapped to F / E plus the divided F/E d0
        ctx = ctxmaker("A1", 3, p=7, r=1)
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0,)),
            simple_module(ctx, (5,)),
            simple_module(ctx, (20,)),
        ]
        self._cross_validate(corpus, ["Am:1", "root:1:-", "root:1:+"])


class TestRootFreeness:
    def test_rank_shortcut_agrees(self, ctxmaker):
        # asserted inside free_over_root on every call
        ctx = ctxmaker("A2", 3)
        for m in [trivial_module(ctx), verma_module(ctx, (0, 0)), simple_module(ctx, (1, 1))]:
            for pos in [1, 2, 3]:
                free_over_root(m, pos, "-")
                free_over_root(m, pos, "+")

    def test_steinberg_free_everywhere(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        st = simple_module(ctx, (2,))
        assert free_over_root(st, 1, "-").verdict
        assert free_over_root(st, 1, "+").verdict

    def test_verma_free_minus_not_plus(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))
        assert free_over_root(vm, 1, "-").verdict
        assert not free_over_root(vm, 1, "+").verdict


class TestSplitTest:
    def test_regular_module_is_projective(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))  # regular over u-
        assert projective_split_test(vm, "u-")
        assert projective_split_test(vm, "b-")

    def test_trivial_not_projective(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        assert not projective_split_test(trivial_module(ctx), "u-")
        assert not projective_split_test(trivial_module(ctx), "g")

    def test_steinberg_projective_over_g(self, ctxmaker):
        for label, lam in [("A1", (2,)), ("A2", (2, 2))]:
            ctx = ctxmaker(label, 3)
            assert projective_split_test(simple_module(ctx, lam), "g")

    def test_budget(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        with pytest.raises(BudgetExceeded):
            projective_split_test(verma_module(ctx, (0, 0)), "g", budget=10)

    def test_cover_not_closed_is_an_error(self, ctxmaker):
        # F at position 2 leaves the cover of the first root subalgebra;
        # dropping the product would give a wrong equivariance equation
        ctx = ctxmaker("A2", 3)
        zero = (0, 0, 0)
        for _ in range(2):
            # a build that raises caches nothing, so the second call raises too
            with pytest.raises(ArithmeticError, match="not closed"):
                ctx.pbw_terms("root:1:-", ("Frv", 1), zero, zero, (0, 0))

    def test_generators_greedy(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        vm = verma_module(ctx, (0,))
        assert module_generators(vm, "u-") == [0]
        assert len(module_generators(sum_module(vm, vm), "u-")) == 2


def _basis_order_generators(m, kind):
    """Greedy generating set with basis vectors offered in basis order."""
    from uzeta.linalg import Eliminator, mat_apply

    mats = [m.generator_matrix(g) for g in m.ctx.algebra_kind(kind).generators]
    one = m.ctx.field.one
    elim = Eliminator()
    gens = []
    for i in range(m.dim):
        if elim.contains({i: one}):
            continue
        gens.append(i)
        elim.add({i: one})
        frontier = [{i: one}]
        while frontier:
            v = frontier.pop()
            for mat in mats:
                red = elim.reduce(mat_apply(mat, v))
                if red and elim.add(red) is not None:
                    frontier.append(red)
    return gens


def _manifest_modules(ctxmaker, label, ell, p=None, r=0):
    from uzeta.cli import RunConfig, default_manifest
    from uzeta.qmodules import realize_text

    ctx = ctxmaker(label, ell, p=p, r=r)
    cfg = RunConfig(type_label=label, ell=ell, p=p, r=r)
    return [realize_text(ctx, case["spec"]) for case in default_manifest(cfg)]


class TestGeneratorChoice:
    @pytest.mark.parametrize("label,ell,p,r", [("A2", 3, None, 0), ("A1", 3, 7, 1)])
    def test_unipotent_generators_are_minimal(self, ctxmaker, label, ell, p, r):
        # rad(A) = sum g A over the generators g, so rad(A) M is spanned by
        # the columns of every generator matrix and M / rad(A) M counts the
        # fewest generators
        from uzeta.linalg import rank_of

        for m in _manifest_modules(ctxmaker, label, ell, p, r):
            for kind in ("u-", "u+", "b-", "b+", "Am:1", "root:1:+"):
                cols = [
                    col
                    for g in m.ctx.algebra_kind(kind).generators
                    for col in m.generator_matrix(g).values()
                ]
                top = m.dim - rank_of(cols)
                assert len(module_generators(m, kind)) == top, (m.label, kind)

    def test_big_algebra_never_more_than_basis_order(self, ctxmaker):
        fewer = 0
        for m in _manifest_modules(ctxmaker, "A2", 3):
            ours, ref = len(module_generators(m, "g")), len(_basis_order_generators(m, "g"))
            assert ours <= ref, m.label
            fewer += ours < ref
        assert fewer

    def test_verdicts_do_not_depend_on_generators(self, ctxmaker, monkeypatch):
        import uzeta.inject as inject
        from uzeta.qmodules import realize_text

        ctx = ctxmaker("A2", 3)
        specs = [
            "trivial",
            "verma(1,2)",
            "simple(2,2)",
            "dual(simple(0,1))",
            "tensor(simple(1,0),simple(0,1))",
        ]
        kinds = ("g", "u-", "u+")
        # fresh modules per route: a module keeps its verdicts
        ours = {(s, k): projective_split_test(realize_text(ctx, s), k) for s in specs for k in kinds}
        monkeypatch.setattr(inject, "module_generators", _basis_order_generators)
        ref = {(s, k): projective_split_test(realize_text(ctx, s), k) for s in specs for k in kinds}
        assert ours == ref
        assert set(ours.values()) == {True, False}
        smaller = [
            (s, k)
            for s in specs
            for k in kinds
            if len(module_generators(realize_text(ctx, s), k))
            < len(_basis_order_generators(realize_text(ctx, s), k))
        ]
        assert smaller

    def test_verdict_kept_per_kind_after_budget(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        m = verma_module(ctx, (1, 2))
        with pytest.raises(BudgetExceeded):
            projective_split_test(m, "u-", budget=10)
        assert m.split_verdicts == {}
        assert projective_split_test(m, "u-")
        assert m.split_verdicts == {"u-": True}
        # the budget is checked before the kept verdict is read
        with pytest.raises(BudgetExceeded):
            projective_split_test(m, "u-", budget=10)
        assert not projective_split_test(m, "u+")
        assert m.split_verdicts == {"u-": True, "u+": False}


class TestHarness:
    def test_root_criterion_corpus(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0,)),
            verma_module(ctx, (2,)),
            simple_module(ctx, (1,)),
            simple_module(ctx, (2,)),
            dual_module(verma_module(ctx, (1,))),
            tensor_module(simple_module(ctx, (2,)), simple_module(ctx, (2,))),
            randsub_module(verma_module(ctx, (1,)), 42),
            quot_module(verma_module(ctx, (0,)), 7),
        ]
        for m in corpus:
            rec = verify_root_criterion(m)
            assert rec["agree"], rec

    def test_borel_criterion_corpus(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0, 1)),
            simple_module(ctx, (2, 2)),
            quot_module(verma_module(ctx, (0, 0)), 7),
        ]
        for m in corpus:
            rec = verify_borel_criterion(m)
            assert rec["agree"], rec

    def test_reduction_corpus(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        st = simple_module(ctx, (2,))
        rec = verify_reduction_borel(st)
        assert rec["agree"] and rec["borel_minus"] and rec["borel_plus"] and rec["oracle"]
        rec = verify_reduction_borel(trivial_module(ctx))
        assert rec["agree"] and not rec["oracle"]
        # one-sided injectivity: verma is Borel-minus free but not plus
        rec = verify_reduction_borel(verma_module(ctx, (0,)))
        assert rec["agree"] and rec["borel_minus"] and not rec["borel_plus"] and not rec["oracle"]

    def test_skeletons(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        sk = support_skeleton(trivial_module(ctx), "minus")
        assert sk.roots_in_skeleton == sorted(ctx.datum.positive_roots)
        assert support_skeleton(simple_module(ctx, (2, 2)), "minus").is_empty()
        rec = sk.as_record()
        assert rec["side"] == "minus" and len(rec["per_root"]) == 3

    def test_highest_root(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        rec = highest_root_test(simple_module(ctx, (2, 2)))
        assert rec["agree"] and rec["oracle"] and rec["highest_root_free"]
        rec = highest_root_test(trivial_module(ctx))
        assert rec["agree"] and not rec["oracle"]
        assert [1, 1] in rec["skeleton"]

    def test_highest_root_reads_skeleton(self, ctxmaker, monkeypatch):
        # one freeness test per position, the highest root's read off the
        # skeleton; the records are the ones the separate call gave
        from uzeta import inject
        from uzeta.qmodules import realize_text

        calls = []
        real = inject.free_over_root

        def counting(m, pos, side):
            calls.append((pos, side))
            return real(m, pos, side)

        monkeypatch.setattr(inject, "free_over_root", counting)
        ctx = ctxmaker("A2", 3)
        every = [[0, 1], [1, 0], [1, 1]]
        for spec, free, skeleton in [("trivial", False, every), ("simple(2,2)", True, []), ("simple(1,1)", False, every)]:
            calls.clear()
            rec = highest_root_test(realize_text(ctx, spec))
            assert sorted(calls) == [(pos, "-") for pos in range(1, ctx.n + 1)]
            assert rec == {
                "suite": "highest", "spec": spec, "highest_root_free": free, "oracle": free,
                "skeleton": skeleton, "skeleton_contains_highest": True, "agree": True,
            }

    def test_highest_root_needs_big_lift(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        with pytest.raises(AssertionError):
            highest_root_test(verma_module(ctx, (0,)))

    def test_record_line_deterministic(self, ctxmaker):
        ctx = ctxmaker("A1", 3)
        rec = verify_root_criterion(trivial_module(ctx))
        assert record_to_line(rec) == record_to_line(dict(reversed(list(rec.items()))))


class TestHigherKernel:
    def test_r1_criterion(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        st = simple_module(ctx, (20,))
        assert free_over_root(st, 1, "-").verdict
        assert projective_split_test(st, "g", budget=300_000)
        rec = verify_root_criterion(st, budget=300_000)
        assert rec["agree"] and rec["oracle"]
        rec = verify_root_criterion(verma_module(ctx, (0,)), budget=300_000)
        assert rec["agree"] and not rec["oracle"]


# -- reference: the cover column as written before ``KernelContext.pbw_terms`` --


def _reference_cover_column(ctx, lam, keys, gen, key):
    """gen on F^{(f)} E^{(e)} e_lam, written out per generator kind; keys are the cover's."""
    from uzeta.linalg import vec_add_term

    kind, j = gen
    f, e = key
    out = {}
    wt = ctx.datum.root_to_weight(ctx.weight_of_fexp(e))
    lam_right = tuple(a + b for a, b in zip(lam, wt))

    def put(f2, e2, c):
        if not c:
            return
        k2 = (tuple(f2), tuple(e2))
        if k2 not in keys:
            raise ArithmeticError(f"not closed under {gen}: {key} goes to {k2}")
        vec_add_term(out, k2, c)

    def rank1_e(m_e):
        d0 = ctx.d_gamma[0]
        lam_hat = lam_right[0] * d0
        for f_t, c_off, t, e_t in ctx.mixed_rank1_terms(m_e, f[0]):
            val = ctx.gauss_binom(lam_hat + 2 * e_t + c_off, t)
            tot = e_t + e[0]
            if not val or tot >= ctx.cap:
                continue
            if e_t and e[0]:
                val = val * ctx.gauss_binom(tot, e_t, d0)
            put((f_t,), (tot,), val)

    if kind == "F":
        for f2, c in ctx.lmul_rv("F", ctx.simple_pos[j], f).items():
            put(f2, e, c)
    elif kind == "Frv":
        for f2, c in ctx.lmul_rv("F", j, f).items():
            put(f2, e, c)
    elif kind == "Erv":
        for e2, c in ctx.lmul_rv("E", j, e).items():
            put(f, e2, c)
    elif kind == "Fd0":
        nn = ctx.ell
        c = ctx.gauss_binom(f[0] + nn, nn, ctx.d_gamma[0])
        if f[0] + nn < ctx.cap and c:
            put((f[0] + nn,), e, c)
    elif kind == "E" and ctx.r:
        rank1_e(1)
    elif kind == "E" and any(f):
        alpha_j = ctx.datum.simple_roots[j]
        for (f2, mu, has_e), c in ctx.push_E_through_F(j, f):
            scal = c * ctx.zeta_pow(ctx.datum.pair_weight_root(lam_right, mu))
            if has_e:
                scal = scal * ctx.zeta_pow(ctx.pair(mu, alpha_j))
                for e2, ce in ctx.lmul_rv("E", ctx.simple_pos[j], e).items():
                    put(f2, e2, scal * ce)
            else:
                put(f2, e, scal)
    elif kind == "E":
        for e2, ce in ctx.lmul_rv("E", ctx.simple_pos[j], e).items():
            put(f, e2, ce)
    elif kind == "Ed0":
        rank1_e(ctx.ell)
    else:
        raise ValueError(gen)
    return out


_ALL_KINDS = ["g", "b-", "b+", "u-", "u+"]


def _cover_cases(ctx):
    """(kind, gen, f, e, keys): every generator of every algebra kind on every cover key."""
    kinds = _ALL_KINDS + [f"Am:{m}" for m in range(1, ctx.n + 1)]
    kinds += [f"root:{s}:{side}" for s in range(1, ctx.n + 1) for side in "-+"]
    for kind in kinds:
        desc = ctx.algebra_kind(kind)
        keys = {(f, e) for f in desc.exponents("F") for e in desc.exponents("E")}
        for gen in desc.generators:
            for f, e in sorted(keys):
                yield kind, gen, f, e, keys


def _assert_columns_match(ctx, lam):
    zero = (0,) * ctx.rank
    seen = set()
    for kind, gen, f, e, keys in _cover_cases(ctx):
        seen.add(gen[0])
        want = _reference_cover_column(ctx, lam, keys, gen, (f, e))
        got = ctx.pbw_terms(kind, gen, f, e, lam)
        assert got == {(f2, zero, e2): c for (f2, e2), c in want.items()}, (kind, lam, gen, f, e)
    assert seen >= ({"Fd0", "Ed0"} if ctx.r else {"F", "E", "Frv", "Erv"})


class TestCoverColumns:
    @pytest.mark.parametrize(
        "label,ell,p,r,lams",
        [
            ("A2", 3, None, 0, [(0, 0), (2, 1)]),
            ("A1", 5, None, 0, [(0,), (3,)]),
            ("A1", 3, 7, 1, [(0,), (4,), (-5,)]),
            # two root lengths: the torus pairing scales kv by the d_j
            ("B2", 3, None, 0, [(1, 2)]),
        ],
        ids=["A2-l3", "A1-l5", "A1-l3-p7-r1", "B2-l3"],
    )
    def test_columns_match_reference(self, ctxmaker, label, ell, p, r, lams):
        ctx = ctxmaker(label, ell, p=p, r=r)
        for lam in lams:
            _assert_columns_match(ctx, lam)

    @pytest.mark.parametrize(
        "label,ell,p,r,lams",
        [("A2", 3, None, 0, [(0, 0), (2, 1)]), ("A1", 3, 7, 1, [(4,), (-5,)])],
        ids=["A2-l3", "A1-l3-p7-r1"],
    )
    def test_warm_context_matches_reference(self, label, ell, p, r, lams):
        # the terms are kept per context without lam: columns read back at a
        # second weight equal the ones written out at it, in either order
        from uzeta.kernelalg import KernelContext
        from uzeta.rootdata import convex_order, default_w0_word
        from uzeta.scalars import make_field

        order = convex_order(label, default_w0_word(label))
        for lams_in_order in (lams, lams[::-1]):
            ctx = KernelContext(order, make_field(ell, p), r=r)
            for lam in lams_in_order:
                _assert_columns_match(ctx, lam)
