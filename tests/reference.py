"""Reference routes that only the tests read.

Each is a cross-check on the package: an independent computation of
something ``uzeta`` decides another way, or a check of an input the
package trusts (weight-space dimensions against Kostant counts, convex
orders against separating functionals).  They live here rather than in
``src/uzeta`` so that no ``uzeta`` process compiles them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from uzeta.genericuq import AbstractWord, Elt, SideElt, UqGeneric, q_power, qf
from uzeta.inject import module_generators
from uzeta.kernelalg import KernelAlgebra
from uzeta.linalg import (
    Eliminator,
    LinearSystem,
    Mat,
    Vec,
    close_span,
    kernel_basis,
    mat_apply,
    vec_add_term,
)
from uzeta.qmodules import WeightedModule
from uzeta.rootdata import ConvexOrder, Root, RootDatum, Vector
from uzeta.scalars import Laurent, QFraction

# ---------------------------------------------------------------------------
# scalars


def bar(p: Laurent) -> Laurent:
    """The substitution q -> q^{-1}."""
    return Laurent(-p.hi, tuple(reversed(p.c)))


def fraction_divmod(a: Laurent, b: Laurent) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """``a.divmod_by(b)`` by schoolbook division with every coefficient a
    ``Fraction``: the quotient and the remainder as {exponent: coefficient}
    without zeros, q-power factors ignored as there."""
    num = [Fraction(x) for x in a.c]
    den = [Fraction(x) for x in b.c]
    quo: Dict[int, Fraction] = {}
    while len(num) >= len(den):
        if num[-1]:
            k = len(num) - len(den)
            f = quo[a.lo + k - b.lo] = num[-1] / den[-1]
            for i, y in enumerate(den):
                num[k + i] -= f * y
        num.pop()
    return quo, {a.lo + i: x for i, x in enumerate(num) if x}


# ---------------------------------------------------------------------------
# linear algebra


def rank_of(vectors: Iterable[Vec]) -> int:
    e = Eliminator()
    for v in vectors:
        e.add(v)
    return e.rank


# ---------------------------------------------------------------------------
# root data and convex orders


def describe(datum: RootDatum) -> str:
    lines = [f"type {datum.label}  rank {datum.rank}  N = {datum.n_positive}"]
    lines.append("cartan: " + "; ".join(" ".join(f"{x:3d}" for x in row) for row in datum.cartan))
    lines.append("d: " + " ".join(str(x) for x in datum.d))
    for r in datum.positive_roots:
        mark = " (highest)" if r == datum.highest_root else ""
        lines.append(
            "root " + "+".join(f"{c}a{i+1}" for i, c in enumerate(r) if c)
            + f"  len2={datum.pair_roots(r, r)}{mark}"
        )
    return "\n".join(lines)


def reflect_root(datum: RootDatum, r: Root, v: Sequence) -> Tuple:
    """s_r(v) for an arbitrary root r, exact rational arithmetic."""
    num = 2 * datum.pair_roots(v, r)
    den = datum.pair_roots(r, r)
    c = Fraction(num, den)
    out = [Fraction(x) - c * ri for x, ri in zip(v, r)]
    if all(x.denominator == 1 for x in out):
        return tuple(int(x) for x in out)
    return tuple(out)


def all_reduced_w0_words(datum: RootDatum) -> List[Tuple[int, ...]]:
    """Exhaustive depth-first enumeration of reduced w_0 expressions."""
    n = datum.n_positive
    out: List[Tuple[int, ...]] = []

    def walk(word: List[int], gammas: List[Root]):
        if len(word) == n:
            out.append(tuple(word))
            return
        for j in range(1, datum.rank + 1):
            beta = datum.simple_roots[j - 1]
            g = datum.weyl_apply(word, beta)
            if all(x >= 0 for x in g):  # length goes up
                word.append(j)
                gammas.append(g)
                walk(word, gammas)
                word.pop()
                gammas.pop()

    walk([], [])
    return out


@dataclass(frozen=True)
class OrderFunctional:
    """Rational vector v with (v, gamma_i) > 0 iff i <= m, nonzero on all roots."""

    order: ConvexOrder
    m: int
    vector: Vector

    def sign_of(self, r: Root) -> int:
        val = self.order.datum.pair_roots(self.vector, r)
        if val > 0:
            return 1
        if val < 0:
            return -1
        return 0

    def check(self) -> None:
        datum = self.order.datum
        for i, g in enumerate(self.order.gammas):
            s = self.sign_of(g)
            want = 1 if i < self.m else -1
            if s != want:
                raise AssertionError(f"sign pattern fails at gamma_{i+1}: {s} != {want}")
        for r in datum.positive_roots:
            if self.sign_of(r) == 0:
                raise AssertionError(f"functional vanishes on root {r}")

    def positive_system(self) -> Tuple[Root, ...]:
        """Roots positive for the functional, as a sorted tuple."""
        datum = self.order.datum
        pos = []
        for r in datum.positive_roots:
            pos.append(r if self.sign_of(r) > 0 else tuple(-x for x in r))
        return tuple(sorted(pos))


def order_functional(order: ConvexOrder, m: int) -> OrderFunctional:
    """Constructive separating functional: flip -rho by the first m reflections.

    v_m = s_{gamma_m} ... s_{gamma_1}(-rho); the positive system of v_m
    meets Phi+ exactly in {gamma_1, ..., gamma_m}.
    """
    datum = order.datum
    if not (0 <= m <= datum.n_positive):
        raise ValueError(f"m must lie in 0..{datum.n_positive}")
    v = tuple(-x for x in datum.rho)
    for i in range(m):
        v = reflect_root(datum, order.gammas[i], v)
    v = tuple(Fraction(x) for x in v)
    fun = OrderFunctional(order, m, v)
    fun.check()
    return fun


# ---------------------------------------------------------------------------
# the generic algebra U_q(g)


def weights_up_to_height(datum: RootDatum, bound: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def rec(idx: int, cur: List[int], left: int):
        if idx == datum.rank:
            if any(cur):
                out.append(tuple(cur))
            return
        for c in range(left + 1):
            rec(idx + 1, cur + [c], left - c)

    rec(0, [], bound)
    return sorted(out, key=lambda nu: (sum(nu), nu))


def k_elt(mu: Tuple[int, ...]) -> Elt:
    return {(("K", mu),): qf(1)}


def tau(elt: Elt) -> Elt:
    """Word-reversing anti-automorphism fixing E_i, F_i; K_mu -> K_{-mu}."""
    out: Elt = {}
    for w, c in elt.items():
        nw = []
        for l in reversed(w):
            if l[0] == "K":
                nw.append(("K", tuple(-x for x in l[1])))
            else:
                nw.append(l)
        vec_add_term(out, tuple(nw), c)
    return out


def omega(elt: Elt) -> Elt:
    """E_i <-> F_i, K_mu -> K_{-mu}; an algebra automorphism."""
    swap = {"E": "F", "F": "E"}
    out: Elt = {}
    for w, c in elt.items():
        nw = tuple((swap[l[0]], l[1]) if l[0] in swap else ("K", tuple(-x for x in l[1])) for l in w)
        out[nw] = c
    return out


def kostant_partitions(uq: UqGeneric, nu: Tuple[int, ...]) -> int:
    roots = uq.datum.positive_roots

    @cache
    def count(idx: int, rem: Tuple[int, ...]) -> int:
        if all(x == 0 for x in rem):
            return 1
        if idx >= len(roots):
            return 0
        r = roots[idx]
        total = 0
        cur = rem
        while all(x >= 0 for x in cur):
            total += count(idx + 1, cur)
            cur = tuple(x - y for x, y in zip(cur, r))
        return total

    return count(0, tuple(nu))


def weight_basis(uq: UqGeneric, nu: Tuple[int, ...], height_bound: Optional[int] = None) -> List[AbstractWord]:
    """Basis words of the weight-nu component of the one-sided algebra.

    The dimension is asserted to equal the Kostant partition count,
    which simultaneously validates the Serre relator input.
    """
    if height_bound is not None and sum(nu) > height_bound:
        raise ValueError(f"height {sum(nu)} above bound {height_bound}")
    ws = uq.weight_space(nu)
    expect = kostant_partitions(uq, nu)
    if ws.dim != expect:
        raise AssertionError(
            f"weight {nu}: dim {ws.dim} != Kostant count {expect}"
        )
    return ws.basis_words


def comultiply_word(uq: UqGeneric, word: AbstractWord) -> Dict[Tuple[Tuple[int, ...], AbstractWord, AbstractWord], QFraction]:
    """Delta of an E-word as sum K_{wt(right)} E-left (x) E-right.

    Keys are (k weight vector, left word, right word).
    """
    datum = uq.datum
    n = len(word)
    out: Dict[Tuple[Tuple[int, ...], AbstractWord, AbstractWord], QFraction] = {}
    for mask in range(1 << n):
        left = tuple(word[s] for s in range(n) if not (mask >> s) & 1)
        right = tuple(word[s] for s in range(n) if (mask >> s) & 1)
        power = 0
        for t in range(n):
            if (mask >> t) & 1:
                for s in range(t):
                    if not (mask >> s) & 1:
                        power -= datum.pair_roots(uq.alpha(word[t]), uq.alpha(word[s]))
        kv = uq.word_weight(right)
        vec_add_term(out, (kv, left, right), q_power(power))
    return out


def comultiply_E(uq: UqGeneric, order: ConvexOrder, m: int):
    """Delta(E_{gamma_m}) in PBW (x) PBW coordinates, grouped by bi-weight.

    Returns {(mu, nu): {(expL, expR): coeff}} with mu + nu = gamma_m.
    """
    rv = uq.root_vectors(order, "E")[m - 1]
    grouped: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict] = {}
    for w, c in rv.items():
        for (kv, left, right), c2 in comultiply_word(uq, w).items():
            mu = uq.word_weight(left)
            nu = kv
            vec_add_term(grouped.setdefault((mu, nu), {}), (left, right), c * c2)
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict] = {}
    for (mu, nu), terms in grouped.items():
        ctxL = uq.pbw_context(order, "E", mu)
        ctxR = uq.pbw_context(order, "E", nu)
        mat: Dict = {}
        # expand left and right words in PBW coordinates
        for (left, right), c in terms.items():
            el = ctxL.expand({left: qf(1)})
            er = ctxR.expand({right: qf(1)})
            for eL, cL in el.items():
                for eR, cR in er.items():
                    vec_add_term(mat, (eL, eR), c * cL * cR)
        if mat:
            out[(mu, nu)] = mat
    return out


def coideal_membership(uq: UqGeneric, order: ConvexOrder, m: int) -> bool:
    """Delta(E_{gamma_m}) in V_m (x) W_m: support condition on PBW blocks.

    V_m is spanned (in each E-weight) by PBW monomials supported on
    positions <= m; W_m by monomials supported on positions >= m.
    """
    for (mu, nu), mat in comultiply_E(uq, order, m).items():
        for (eL, eR), c in mat.items():
            if not c:
                continue
            if any(a and (idx + 1) > m for idx, a in enumerate(eL)):
                return False
            if any(a and (idx + 1) < m for idx, a in enumerate(eR)):
                return False
    return True


def reorder_basis_check(uq: UqGeneric, order: ConvexOrder, perm: Sequence[int], height_bound: int) -> bool:
    """Monomials in permuted root-vector order still form bases.

    perm is a permutation of 1..N; monomials are taken in the order
    gamma_{perm(1)}, ..., gamma_{perm(N)} with exponents summing to
    each weight of height <= height_bound.
    """
    datum = uq.datum
    n = datum.n_positive
    assert sorted(perm) == list(range(1, n + 1))
    rvs = uq.root_vectors(order, "E")
    weights = weights_up_to_height(datum, height_bound)
    for nu in weights:
        exps = uq.pbw_monomials(order, nu)
        ws = uq.weight_space(nu)
        elim = Eliminator()
        rank = 0
        for exp in exps:
            term: SideElt = {(): qf(1)}
            for pos in perm:
                a = exp[pos - 1]
                for _ in range(a):
                    nxt: SideElt = {}
                    for w, c in term.items():
                        for w2, c2 in rvs[pos - 1].items():
                            vec_add_term(nxt, w + w2, c * c2)
                    term = nxt
            red = ws.reduce(term)
            if elim.add(red) is not None:
                rank += 1
        if rank != len(exps) or rank != ws.dim:
            return False
    return True


# ---------------------------------------------------------------------------
# kernel algebras


def omega_mirror_kind(alg: KernelAlgebra) -> str:
    flip = {"u-": "u+", "u+": "u-", "b-": "b+", "b+": "b-", "g": "g"}
    if alg.kind in flip:
        return flip[alg.kind]
    if alg.desc.base == "root":
        side = "+" if alg.desc.side == "-" else "-"
        return f"root:{alg.desc.m}:{side}"
    raise ValueError(f"omega mirror of {alg.kind} undefined")


@dataclass
class ResolutionStep:
    """One step of ``resolution_steps``: the kernel K of the previous
    differential, the weights of the previous free module's generators,
    and the weights of the minimal generators picked from K."""

    prev_weights: List[Tuple[int, ...]]
    kernel: List[Vec]
    gen_weights: List[Tuple[int, ...]]


def resolution_steps(alg: KernelAlgebra, n_max: int) -> List[ResolutionStep]:
    """Minimal resolution of k over a one-sided algebra, step by step, by
    two separate eliminations per step.

    The radical rad(A) K is the span of every image g.v of a kernel vector
    v under an algebra generator g, and the kernel vectors independent of
    it and of each other are the generators h.  The next kernel is
    ker d, solved by ``kernel_basis`` on each weight block of the columns
    a.h = ``lmul_monomial(a, h)`` over every basis monomial a.
    """
    ctx = alg.ctx
    one = ctx.field.one
    (unit,) = alg.one()

    def weight(prev, key):
        i, akey = key
        return tuple(a + b for a, b in zip(alg.weight_of_key(akey), prev[i]))

    prev = [(0,) * ctx.rank]
    kernel: List[Vec] = [{(0, key): one} for key in alg.basis if key != unit]
    steps: List[ResolutionStep] = []
    for step in range(1, n_max + 1):
        rad: Dict[Tuple[int, ...], Eliminator] = {}
        for vec in kernel:
            for gen in alg.generator_keys():
                img: Vec = {}
                for (i, akey), c in vec.items():
                    for k2, c2 in alg.lmul_gen(gen, {akey: c}).items():
                        vec_add_term(img, (i, k2), c2)
                if img:
                    rad.setdefault(weight(prev, min(img)), Eliminator()).add(img)
        gens: List[Tuple[Tuple[int, ...], Vec]] = []
        for vec in kernel:
            block = rad.setdefault(weight(prev, min(vec)), Eliminator())
            red = block.reduce(vec)
            if red:
                block.insert(red)
                gens.append((weight(prev, min(vec)), red))
        gens.sort(key=lambda t: (sum(t[0]), t[0]))
        steps.append(ResolutionStep(prev, kernel, [wt for wt, _ in gens]))
        if step == n_max:
            break
        blocks: Dict[Tuple[int, ...], List[Tuple[Tuple[int, Tuple], Vec]]] = {}
        for gj, (wt, h) in enumerate(gens):
            for akey in alg.basis:
                col: Vec = {}
                for i in {i for i, _ in h}:
                    part = {bk: c for (j, bk), c in h.items() if j == i}
                    col.update({(i, bk): c for bk, c in alg.lmul_monomial(akey, part).items()})
                cw = tuple(a + b for a, b in zip(alg.weight_of_key(akey), wt))
                blocks.setdefault(cw, []).append(((gj, akey), col))
        kernel = [rel for cols in blocks.values() for rel in kernel_basis(cols, one=one)]
        prev = [wt for wt, _ in gens]
    return steps


# ---------------------------------------------------------------------------
# modules


def verma_radical(vm: WeightedModule, lam: Tuple[int, ...]) -> List[Vec]:
    """Rows spanning rad Z(lam), from its definition: the vectors v whose
    lam-coordinate every u+ PBW monomial E^{(e)} leaves at 0, found one
    weight space at a time.  vm is ``verma_module(ctx, lam)``."""
    ctx = vm.ctx
    top = vm.weights.index(tuple(lam))
    one = ctx.field.one
    no_f, no_k = (0,) * ctx.n, (0,) * ctx.rank
    exps = ctx.algebra_kind("u+").exponents("E")
    rows: List[Vec] = []
    for idxs in vm.weight_spaces().values():
        cols = []
        for b in idxs:
            coords = {e: vm.act_monomial((no_f, no_k, e), {b: one}).get(top) for e in exps}
            cols.append((b, {e: c for e, c in coords.items() if c}))
        rows.extend(kernel_basis(cols, one=one))
    return rows


def single_generators(m: WeightedModule, kind: str) -> List[int]:
    """Every basis vector that generates M alone over the algebra kind: the
    span of its images under words in the generators, each built on its
    own, is all of M."""
    mats = [m.generator_matrix(g) for g in m.ctx.algebra_kind(kind).generators]
    one = m.ctx.field.one
    out = []
    for i in range(m.dim):
        elim = Eliminator()
        elim.add({i: one})
        frontier = [{i: one}]
        while frontier:
            v = frontier.pop()
            for mat in mats:
                w = mat_apply(mat, v)
                if elim.add(w) is not None:
                    frontier.append(w)
        if elim.rank == m.dim:
            out.append(i)
    return out


def full_split_exists(m: WeightedModule, kind: str) -> bool:
    """The split test with every equation, as one system solved once:
    pi . s(v_j) = v_j and x s(v_j) = s(x v_j) for every generator x at
    every basis vector v_j.  ``inject._split_exists`` builds the same
    cover and unknowns but, over g after the first source, imposes the
    E-type equations only on the support of u+ . span(G); the two must
    give one verdict."""
    ctx = m.ctx
    gens = module_generators(m, kind)
    by_degree: Dict[Tuple[int, ...], List] = {}
    for t, i in enumerate(gens):
        for shift, keys in ctx.cover_keys(kind):
            degree = tuple(a + b for a, b in zip(m.weights[i], shift))
            by_degree.setdefault(degree, []).extend((t, key) for key in keys)
    if any(mu not in by_degree for mu in m.weights):
        return False
    one, zero = ctx.field.one, ctx.field.zero
    no_k = (0,) * ctx.rank
    system = LinearSystem()
    for j, mu in enumerate(m.weights):
        # the unknown s(v_j) at cover key (t, key) is (dim - 1 - j, t, key)
        rows: Dict[int, Vec] = {}
        for t, (f, e) in by_degree[mu]:
            for row, c in m.act_monomial((f, no_k, e), {gens[t]: one}).items():
                rows.setdefault(row, {})[(m.dim - 1 - j, t, (f, e))] = c
        for row in range(m.dim):
            system.add(rows.get(row, {}), one if row == j else zero)
        for gen in ctx.algebra_kind(kind).generators:
            eqs: Dict[Tuple, Vec] = {}
            for j2, c in m.generator_matrix(gen).get(j, {}).items():
                for t, key2 in by_degree[m.weights[j2]]:
                    vec_add_term(eqs.setdefault((t, key2), {}), (m.dim - 1 - j2, t, key2), -c)
            for t, (f, e) in by_degree[mu]:
                for (f2, _, e2), c in ctx.pbw_terms(kind, gen, f, e, m.weights[gens[t]]).items():
                    vec_add_term(eqs.setdefault((t, (f2, e2)), {}), (m.dim - 1 - j, t, (f, e)), c)
            for coeffs in eqs.values():
                system.add(coeffs, zero)
    return system.solve()


def am_weight_basis(m: WeightedModule, level: int) -> Optional[List[Vec]]:
    """Weight-vector basis of M as a free module over the m-th unipotent layer.

    Implements the peel-off argument: pick a weight vector not killed by
    the layer integral modulo the span already built, adjoin its cyclic
    span, recurse.  Returns None when M is not free over the layer.
    """
    ctx = m.ctx
    layer = ctx.algebra_kind(f"Am:{level}")
    top_exp = tuple(c - 1 if c else 0 for c in layer.f_caps)
    mats = [m.generator_matrix(g) for g in layer.generators]

    def act_integral(vec: Vec) -> Vec:
        return m.act_monomial((top_exp, (0,) * ctx.rank, (0,) * ctx.n), vec)

    elim = Eliminator()
    chosen: List[Vec] = []
    while elim.rank < m.dim:
        found = None
        for i in range(m.dim):
            if i in elim.pivots:
                continue
            cand = elim.reduce({i: ctx.field.one})
            if not cand:
                continue
            img = elim.reduce(act_integral(cand))
            if img:
                found = cand
                break
        if found is None:
            return None
        chosen.append(found)
        # adjoin the A_m-cyclic span of the found vector
        close_span(elim, [found], mats)
    if len(chosen) * layer.dim != m.dim:
        return None
    # final certification: monomial translates of the chosen vectors form a basis
    conf = Eliminator()
    count = 0
    for v in chosen:
        for full in layer.exponents("F"):
            w = m.act_monomial((full, (0,) * ctx.rank, (0,) * ctx.n), v)
            if conf.add(w) is not None:
                count += 1
    if count != m.dim:
        return None
    return chosen


def hom_space(a: WeightedModule, b: WeightedModule) -> List[Mat]:
    """Graded intertwiners a -> b (equivariant for all shared generators)."""
    ctx = a.ctx
    gens = sorted(set(a.generator_kinds()) & set(b.generator_kinds()))
    by_weight: Dict = {}
    for i, lam in enumerate(b.weights):
        by_weight.setdefault(lam, []).append(i)
    unknowns = []
    for j, lam in enumerate(a.weights):
        for i in by_weight.get(lam, ()):
            unknowns.append((i, j))
    columns = []
    for (i, j) in unknowns:
        col: Vec = {}
        # constraints rho_b(g) T - T rho_a(g) = 0, equations keyed by
        # (g, target row, source column)
        for g in gens:
            for row, c in b.act_gen(g, {i: ctx.field.one}).items():
                col[(g, row, j)] = c
            for c_src, column in a.actions.get(g, {}).items():
                c = column.get(j)
                if c:
                    vec_add_term(col, (g, i, c_src), -c)
        columns.append(((i, j), col))
    rels = kernel_basis(columns, one=ctx.field.one)
    mats = []
    for rel in rels:
        mat: Mat = {}
        for (i, j), c in rel.items():
            if c:
                mat.setdefault(j, {})[i] = c
        mats.append(mat)
    return mats


def find_isomorphism(a: WeightedModule, b: WeightedModule) -> Optional[Mat]:
    """Invertible graded intertwiner, or None (tests check ``is_verma`` by it)."""
    if a.dim != b.dim or a.character() != b.character():
        return None
    mats = hom_space(a, b)
    if not mats:
        return None
    rng = random.Random(11)

    def invertible(mat: Mat) -> bool:
        elim = Eliminator()
        cnt = 0
        for col in mat.values():
            if elim.add(col) is not None:
                cnt += 1
        return cnt == a.dim

    for mat in mats:
        if invertible(mat):
            return mat
    for _ in range(24):  # random combinations of the Hom basis; a miss reads as None
        mat: Mat = {}
        for t, basis_mat in enumerate(mats):
            c = a.ctx.field.from_int(rng.randint(-3, 3))
            if not c:
                continue
            for colk, col in basis_mat.items():
                tgt = mat.setdefault(colk, {})
                for row, v in col.items():
                    vec_add_term(tgt, row, c * v)
        if mat and invertible(mat):
            return mat
    return None
