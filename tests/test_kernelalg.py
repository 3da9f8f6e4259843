import functools
import itertools
import random

import pytest

from reference import find_isomorphism, omega_mirror_kind
from uzeta.kernelalg import KernelAlgebra, KernelContext, parse_kind, specialize_table
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

    @pytest.mark.parametrize(
        "label,ell,p,r,kind", [("A2", 3, None, 0, "g"), ("A1", 3, 7, 1, "u-")], ids=["A2-l3-g", "A1-l3-p7-r1-u-"]
    )
    def test_monomial_times_one_is_the_key(self, ctxmaker, label, ell, p, r, kind):
        ctx = ctxmaker(label, ell, p=p, r=r)
        alg = ctx.algebra(kind)
        one = alg.one()
        for key in alg.basis:
            assert alg.lmul_monomial(key, one) == {key: ctx.field.one}, key

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
        assert two == {((2,), (0,), (0,)): ctx.gauss_binom(2, 1)}
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

    @pytest.mark.parametrize("label,ell,p,r,ms", [("A1", 3, 7, 1, [1]), ("A2", 3, None, 0, [1, 2, 3])])
    def test_each_side_is_the_integral_line(self, ctxmaker, label, ell, p, r, ms):
        ctx = ctxmaker(label, ell, p=p, r=r)
        for m in ms:
            alg = ctx.algebra(f"Am:{m}")
            ((key, _),) = alg.integral_element().items()
            for side in ("l", "r"):
                (vec,) = alg.invariants(side)
                assert {k for k, c in vec.items() if c} == {key}, (m, side)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_each_side_decides(self, freshctx, monkeypatch, side):
        # on the A_m kinds the left and right invariants agree, so a check
        # that read one side only would pass; a second invariant planted
        # on either side must fail it, the two-sided dimension staying 1
        alg = freshctx("A2", 3).algebra("Am:2")
        real = KernelAlgebra.invariants

        def planted(self, s):
            basis = real(self, s)
            return basis + [self.one()] if s == side else basis

        monkeypatch.setattr(KernelAlgebra, "invariants", planted)
        assert alg.socle_check() == (1, False)

    def test_right_invariants_read_right_products(self, freshctx, monkeypatch):
        # v.x for a basis monomial v is lmul_monomial(v, x); with every such
        # product zero, every vector is right invariant and none more is left
        alg = freshctx("A2", 3).algebra("Am:2")
        monkeypatch.setattr(KernelAlgebra, "lmul_monomial", lambda self, key, vec: {})
        assert len(alg.invariants("r")) == alg.dim
        assert len(alg.invariants("l")) == 1
        assert alg.socle_check() == (1, False)

    @pytest.mark.parametrize("m", [1, 2])
    def test_normality(self, ctxmaker, m):
        ctx = ctxmaker("A2", 3)
        assert ctx.algebra(f"Am:{m}").normality_check()


class TestOmegaMirror:
    def test_mirror_kinds(self, ctxmaker):
        ctx = ctxmaker("A2", 3)
        assert omega_mirror_kind(ctx.algebra("u-")) == "u+"
        assert omega_mirror_kind(ctx.algebra("u+")) == "u-"
        assert omega_mirror_kind(ctx.algebra("g")) == "g"
        assert omega_mirror_kind(ctx.algebra("root:2:-")) == "root:2:+"

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
        units = [ctx.field.eval_fraction(u) for u in ctx.uq.structure_table(ctx.order).omega_units]
        for (i, j), tail in ctx.tables["E"].items():
            for exp, c in tail.items():
                expect = c
                for t, a in enumerate(exp):
                    for _ in range(a):
                        expect = expect * units[t]
                expect = expect / (units[i - 1] * units[j - 1])
                assert ctx.tables["F"][(i, j)][exp] == expect


class TestGaussBinom:
    def test_integer_values(self, freshctx):
        # [m choose t]_{q^d} at zeta for integer m matches the Laurent
        # evaluation, past the q-Pascal entries below the order e of zeta^d
        # that the quantum Lucas theorem reads; zeta^3 is not primitive at
        # ell = 3 (e = 1) or ell = 9 (e = 3)
        from uzeta.scalars import q_binom

        for ell, p, r in ((3, None, 0), (5, None, 0), (7, None, 0), (9, None, 0), (3, 7, 1)):
            ctx = freshctx("A1", ell, p, r)
            for d in (1, 2, 3):
                for m in range(3 * ctx.cap + 1):
                    for t in range(2 * ell + 2):
                        assert ctx.gauss_binom(m, t, d) == ctx.field.eval_laurent(q_binom(m, t, d)), (ell, m, t, d)

    def test_negative_top(self, ctxmaker):
        ctx = ctxmaker("A1", 3, p=7, r=1)
        # [-1 choose t] = (-1)^t q^{-t(t+1)/2}-type unit; just check nonzero
        assert ctx.gauss_binom(-1, 1)
        assert ctx.gauss_binom(0, 1) == ctx.field.zero

    def test_laurent_product_formula(self, ctxmaker):
        # [m choose t] = prod_{s=1..t} (q^(m-s+1) - q^-(m-s+1)) / (q^s - q^-s)
        # over Z[q, 1/q], evaluated at zeta, for negative m too; a factor
        # with m - s + 1 = 0 makes it zero.  [m choose t]_{q^d} is the same
        # polynomial at q^d, so it is evaluated at zeta^d.
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
                    for d in (2, 3):
                        at_d = sum(
                            (ctx.zeta_pow(d * (poly.lo + i)) * c for i, c in enumerate(poly.c) if c),
                            ctx.field.zero,
                        )
                        assert ctx.gauss_binom(m, t, d) == at_d, (m, t, d)

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
        with pytest.raises(ValueError, match="negative"):
            KernelContext(convex_order("A1", (1,)), GaloisField(7, 3), r=-1)


# -- simple-word reference for the one-letter recursion ----------------------


def _simple_words(ctx, side, exp):
    """X^{(exp)} as words of simple letters: each root vector expanded."""
    terms = {(): ctx.field.one}
    for i, a in enumerate(exp):
        for _ in range(a):
            nxt = {}
            for w, c in terms.items():
                for w2, c2 in ctx.rv_words[side][i]:
                    nxt[w + w2] = nxt.get(w + w2, ctx.field.zero) + c * c2
            terms = nxt
        inv = ctx.qfact_inv(a, ctx.d_gamma[i])
        terms = {w: c * inv for w, c in terms.items()}
    return terms


@functools.lru_cache(maxsize=None)
def _straighten(ctx, side, word):
    positions = tuple(ctx.simple_pos[i] for i in word)
    return tuple(ctx.plain_to_divided(ctx.reduce_word(side, positions)).items())


def _word_pushes(ctx, exp):
    """{j: E_j F^{(exp)}}, by words.

    Every simple word of F^{(exp)} is straightened as it stands (E_j passes
    through) and once without each letter j, with K_j^{+-1} moved past the
    letters right of it.
    """
    from uzeta.linalg import vec_add_term

    zero_kv = (0,) * ctx.rank
    pushes = {}
    words = _simple_words(ctx, "F", exp)
    for j in range(ctx.rank):
        alpha_j = ctx.datum.simple_roots[j]
        dj = ctx.datum.d[j]
        denom = ctx.zeta_pow(dj) - ctx.zeta_pow(-dj)
        acc = {}
        for word, c in words.items():
            for x, cw in _straighten(ctx, "F", word):
                vec_add_term(acc, (x, zero_kv, 1), c * cw)
            for t, i in enumerate(word):
                if i != j:
                    continue
                passed = [0] * ctx.rank
                for i2 in word[t + 1:]:
                    passed[i2] += 1
                pairing = ctx.pair(alpha_j, tuple(passed))
                for sign in (1, -1):
                    kv = ctx.kmod(tuple(sign * x for x in alpha_j))
                    scal = ctx.zeta_pow(-sign * pairing) / denom
                    scal = scal if sign > 0 else -scal
                    for x, cw in _straighten(ctx, "F", word[:t] + word[t + 1:]):
                        vec_add_term(acc, (x, kv, 0), c * scal * cw)
        pushes[j] = tuple(sorted(acc.items()))
    return pushes


def _word_gram(m):
    """Gram blocks with sigma(F^{(a)}) applied as its simple words, reversed."""
    ctx = m.ctx
    fexps = sorted(itertools.product(range(ctx.cap), repeat=ctx.n))
    top = fexps.index((0,) * ctx.n)
    blocks = {}
    for i, lam in enumerate(m.weights):
        blocks.setdefault(lam, []).append(i)
    out = {}
    for lam, idxs in blocks.items():
        gram = [[ctx.field.zero] * len(idxs) for _ in idxs]
        for ai, a in enumerate(idxs):
            words = _simple_words(ctx, "F", fexps[a])
            for bi, b in enumerate(idxs):
                for word, c in words.items():
                    cur = {b: c}
                    for j in word:
                        cur = m.act_gen(("E", j), cur)
                    gram[ai][bi] = gram[ai][bi] + cur.get(top, ctx.field.zero)
        out[lam] = (idxs, gram)
    return out


class TestOneLetterRecursion:
    @pytest.mark.parametrize("label,ell", [("A1", 3), ("A1", 5), ("A2", 3), ("A2", 5), ("B2", 3)])
    def test_pushes_match_word_reference(self, ctxmaker, label, ell):
        ctx = ctxmaker(label, ell)
        for exp in itertools.product(range(ctx.cap), repeat=ctx.n):
            ef = _word_pushes(ctx, exp)
            for j in range(ctx.rank):
                assert ctx.push_E_through_F(j, exp) == ef[j], (j, exp)

    @pytest.mark.parametrize(
        "label,ell,lam",
        [("A2", 3, (1, 1)), ("A2", 3, (2, 0)), ("A2", 5, (1, 1)), ("B2", 3, (1, 1)), ("B2", 3, (0, 2))],
    )
    def test_gram_matches_word_reference(self, ctxmaker, label, ell, lam):
        # the simple head is Z(lam) modulo the radical of the contravariant
        # form, whose Gram blocks _word_gram builds from simple words
        from uzeta.linalg import kernel_basis
        from uzeta.qmodules import quotient_module, simple_module, verma_module

        ctx = ctxmaker(label, ell)
        vm = verma_module(ctx, lam)
        rows = []
        for idxs, gram in _word_gram(vm).values():
            size = len(idxs)
            cols = [(idxs[t], {s: gram[s][t] for s in range(size) if gram[s][t]}) for t in range(size)]
            rows.extend(kernel_basis(cols, one=ctx.field.one))
        ref = quotient_module(vm, rows, "reference")
        head = simple_module(ctx, lam)
        assert (head.weights, head.actions) == (ref.weights, ref.actions)

    def test_letter_terms_recompose(self, ctxmaker):
        # F^{(a)} = sum c F_j F^{(e)}
        ctx = ctxmaker("B2", 3)
        for exp in itertools.product(range(ctx.cap), repeat=ctx.n):
            if not any(exp):
                continue
            total = {}
            for (letter, e), c in ctx.letter_terms(exp).items():
                for x, c2 in ctx.letter_times(letter, e).items():
                    total[x] = total.get(x, ctx.field.zero) + c * c2
            assert {x: c for x, c in total.items() if c} == {exp: ctx.field.one}


# -- the coinduced module from its definition ---------------------------------


def _coinduced_reference(ctx, lam):
    """Hom_{u<=0}(u, k_lam) on the functions f_c dual to E^{(c)}, built by hand.

    x acts by (x f)(E^{(c2)}) = f(E^{(c2)} x), so the column of f_c holds the
    E^{(c)} coordinate of E^{(c2)} x at row c2; f_c has weight lam - wt(c).
    At r = 0 E^{(c2)} is expanded into simple words: E^{(c2)} E_j is each
    word with j appended, straightened, and in E^{(c2)} F_j the F_j passes
    left to act by 0 on k_lam, leaving the commutator
    (K_j - K_j^-1)/(q_j - q_j^-1) at each letter j, its K moved left past
    the letters before it and evaluated at lam.  At r = 1 (rank one)
    E^{(a)} E^{(b)} = [a+b over b] E^{(a+b)}, and E^{(a)} F^{(n)} keeps the
    term of ``mixed_rank1_terms`` without F, its K-binomial evaluated at lam.
    """
    from uzeta.linalg import vec_add_term
    from uzeta.qmodules import WeightedModule

    exps = sorted(itertools.product(range(ctx.cap), repeat=ctx.n))
    index = {c: i for i, c in enumerate(exps)}
    acts = {gen: {} for gen in ctx.algebra_kind("g").generators}

    def put(gen, c, c2, val):
        if c in index and val:
            vec_add_term(acts[gen].setdefault(index[c], {}), index[c2], val)

    if ctx.r:
        lam_hat = lam[0] * ctx.d_gamma[0]
        for (a,) in exps:
            for kind, b in (("", 1), ("d0", ctx.ell)):
                put(("E" + kind, 0), (a + b,), (a,), ctx.gauss_binom(a + b, b, ctx.d_gamma[0]))
                for f_t, c_off, t, e_t in ctx.mixed_rank1_terms(a, b):
                    if not f_t:
                        put(("F" + kind, 0), (e_t,), (a,), ctx.gauss_binom(lam_hat + c_off, t))
    else:
        for c2 in exps:
            words = _simple_words(ctx, "E", c2)
            for j in range(ctx.rank):
                alpha_j, dj = ctx.datum.simple_roots[j], ctx.datum.d[j]
                lam_j = ctx.datum.pair_weight_root(lam, alpha_j)
                denom = ctx.zeta_pow(dj) - ctx.zeta_pow(-dj)
                for word, cw in words.items():
                    for c, x in _straighten(ctx, "E", word + (j,)):
                        put(("E", j), c, c2, cw * x)
                    for t, i in enumerate(word):
                        if i != j:
                            continue
                        passed = [0] * ctx.rank
                        for i2 in word[:t]:
                            passed[i2] += 1
                        pairing = ctx.pair(alpha_j, tuple(passed))
                        kval = (ctx.zeta_pow(lam_j - pairing) - ctx.zeta_pow(pairing - lam_j)) / denom
                        for c, x in _straighten(ctx, "E", word[:t] + word[t + 1:]):
                            put(("F", j), c, c2, cw * kval * x)
    weights = tuple(
        tuple(a - b for a, b in zip(lam, ctx.datum.root_to_weight(ctx.weight_of_fexp(c)))) for c in exps
    )
    return WeightedModule(ctx, weights, acts, False, f"coinduced{lam}")


class TestCoinducedModule:
    @pytest.mark.parametrize(
        "label,ell,p,r,lam",
        [
            ("A1", 3, None, 0, (1,)),
            ("A1", 3, None, 0, (4,)),
            ("A1", 5, None, 0, (2,)),
            ("A1", 5, None, 0, (-1,)),
            ("A2", 3, None, 0, (1, 2)),
            ("A2", 3, None, 0, (3, -1)),
            ("B2", 3, None, 0, (1, 0)),
            ("B2", 3, None, 0, (2, 4)),
            ("A1", 3, 7, 1, (4,)),
            ("A1", 3, 7, 1, (25,)),
        ],
        ids=lambda v: str(v) if isinstance(v, tuple) else None,
    )
    def test_coverma_is_the_coinduced_module(self, ctxmaker, label, ell, p, r, lam):
        # coverma is built as an omega-twisted Verma module; the module it
        # must be is built here from the definition, without verma_module
        from uzeta.qmodules import coverma_module

        ctx = ctxmaker(label, ell, p=p, r=r)
        ref = _coinduced_reference(ctx, lam)
        ref.check()
        assert find_isomorphism(ref, coverma_module(ctx, lam)) is not None


# -- word reference for the cached root-vector columns -----------------------


def _word_apply_rv(alg, side, pos, vec):
    """Plain root vector on an algebra element, applied without column caches.

    F side: ``lmul_rv`` on the F part; E side: every simple word of the
    root vector, letter by letter through the simple E generators.
    """
    from uzeta.linalg import vec_add_term

    ctx = alg.ctx
    out = {}
    if side == "F":
        for (f, k, e), c in vec.items():
            for fexp, cf in ctx.lmul_rv("F", pos, f).items():
                vec_add_term(out, (fexp, k, e), c * cf)
        return out
    for word, c in ctx.rv_words["E"][pos]:
        cur = {key: x * c for key, x in vec.items()}
        for i in reversed(word):
            cur = alg.lmul_gen(("E", i), cur)
        for key, x in cur.items():
            vec_add_term(out, key, x)
    return out


class TestRootVectorColumns:
    @pytest.mark.parametrize(
        "label,ell,kind", [("A2", 3, "u+"), ("A2", 3, "b+"), ("A2", 3, "g"), ("A2", 5, "u+")]
    )
    def test_columns_match_word_reference(self, ctxmaker, label, ell, kind):
        # the cached Frv / Erv columns that lmul_monomial applies
        ctx = ctxmaker(label, ell)
        alg = ctx.algebra(kind)
        one = ctx.field.one
        sides = [s for s, caps in (("F", alg.desc.f_caps), ("E", alg.desc.e_caps)) if any(caps)]
        mixed = {key: ctx.field.from_int(i % 5 + 1) for i, key in enumerate(alg.basis)}
        for side in sides:
            for pos in range(ctx.n):
                gen = (side + "rv", pos)
                for key in alg.basis:
                    got = alg.lmul_gen(gen, {key: one})
                    assert got == _word_apply_rv(alg, side, pos, {key: one}), (gen, key)
                assert alg.lmul_gen(gen, mixed) == _word_apply_rv(alg, side, pos, mixed)

    def test_every_kind_times_every_generator(self, ctxmaker):
        # a plain non-simple Erv on root:2:+ once left the algebra through
        # its simple-E words; every product must stay inside its kind and
        # agree with the same product in g
        ctx = ctxmaker("A2", 3)
        one = ctx.field.one
        g = ctx.algebra("g")
        kinds = ["g", "b-", "b+", "u-", "u+"] + [f"Am:{m}" for m in range(1, ctx.n + 1)]
        kinds += [f"root:{s}:{side}" for s in range(1, ctx.n + 1) for side in "-+"]
        for kind in kinds:
            alg = ctx.algebra(kind)
            for gen in alg.generator_keys():
                for key in alg.basis:
                    col = alg.lmul_gen(gen, {key: one})
                    assert all(k in alg.index for k in col), (kind, gen, key)
                    assert col == g.lmul_gen(gen, {key: one}), (kind, gen, key)
