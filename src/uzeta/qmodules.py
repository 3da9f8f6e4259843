"""Finite-dimensional X-graded modules over the kernel algebras.

A module is a list of basis weights (integer fundamental-weight
coordinates) together with sparse action matrices for the E and F
generators (plus divided-power generators at higher kernel levels).
The torus action is never stored: K_mu acts on a weight-lam vector by
zeta^{(lam, mu)}, and every constructor and operation preserves that
normalization (the grading/relation checker enforces it).

A simple head L(lam) is the baby Verma module Z(lam) modulo its radical,
the vectors from which no path of the Verma module's own raising
operators reaches the highest weight line; the quotient is certified
after the fact: its highest weight line is one-dimensional, spans the
vectors that u+ kills, and generates it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .kernelalg import BasisKey, ConfigError, GenKey, KernelContext
from .linalg import (
    Eliminator, Mat, Vec, close_span, kernel_basis, mat_apply, memoized, vec_add_term, vec_iadd_scaled, vec_isub_scaled,
)

Weight = Tuple[int, ...]


class ModuleCheckError(AssertionError):
    pass


class SpecSyntaxError(ConfigError):
    """A module spec that does not parse, or whose arguments no module has."""


class WeightedModule:
    def __init__(self, ctx: KernelContext, weights: Tuple[Weight, ...], actions: Dict[GenKey, Mat], lifts: bool,
                 label: str = "module"):
        self.ctx = ctx
        self.weights = weights
        self.actions = actions
        self.lifts = lifts  # restricts from a module over the full quantized algebra
        self.label = label
        # plain root vector matrices by generator key, filled by generator_matrix
        self.rv_mats: Dict[GenKey, Mat] = {}
        # check() has passed; set by cli.checked_module before the first verdict
        self.checked = False

    @property
    def dim(self) -> int:
        return len(self.weights)

    def content_key(self) -> Tuple:
        """The weights and the action matrices as one exact, hashable value.

        Each matrix is a sorted ``(gen, ((col, ((row, coeff), ...)), ...))``
        tuple.  Only generator keys, columns and rows are sorted, so no
        coefficient is ever compared; ``lifts`` and ``label`` stay out.
        Two modules with equal keys over one context are the same module
        in the same basis.
        """
        def frozen(mat: Mat) -> Tuple:
            return tuple(
                (col, tuple((row, mat[col][row]) for row in sorted(mat[col]))) for col in sorted(mat)
            )

        return self.weights, tuple((gen, frozen(self.actions[gen])) for gen in sorted(self.actions))

    # -- actions ----------------------------------------------------------

    def act_gen(self, gen: GenKey, vec: Vec) -> Vec:
        return mat_apply(self.generator_matrix(gen), vec)

    def generator_matrix(self, gen: GenKey) -> Mat:
        """Column matrix of an algebra generator key (see ``AlgebraKind``).

        A stored action, or a plain root vector ``Frv`` / ``Erv`` at a
        convex-order position.  A root vector's matrix is built once from its
        simple-letter words and kept in ``rv_mats``, so ``actions`` must not
        be edited after the first root-vector action.
        """
        mat = self.actions.get(gen)
        if mat is None:
            mat = self.rv_mats.get(gen)
        if mat is not None:
            return mat
        kind, pos = gen
        if kind not in ("Frv", "Erv"):
            raise KeyError(f"{self.label} carries no action of {gen}")
        mat = self.rv_mats[gen] = {}
        for j in range(self.dim):
            col = self.ctx.root_vector(kind[0], pos, {j: self.ctx.field.one}, self.act_gen)
            if col:
                mat[j] = col
        return mat

    def act_k(self, kvec: Sequence[int], vec: Vec) -> Vec:
        ctx = self.ctx
        out: Vec = {}
        for i, c in vec.items():
            # kvec is also the root-lattice element of K^kvec
            e = ctx.datum.pair_weight_root(self.weights[i], kvec)
            out[i] = c * ctx.zeta_pow(e)
        return out

    def act_divided(self, side: str, pos: int, n: int, vec: Vec) -> Vec:
        """Divided power X_{gamma_pos}^{(n)}."""
        return self.ctx.divided(side, pos, n, vec, self.act_gen)

    def act_monomial(self, key: BasisKey, vec: Vec) -> Vec:
        """Basis monomial F^{(f)} K^k E^{(e)} acting on a module vector."""
        return self.ctx.monomial(key, vec, self.act_gen, self.act_k)

    # -- invariants ---------------------------------------------------------

    def character(self) -> Counter:
        return Counter(self.weights)

    def weight_spaces(self) -> Dict[Weight, List[int]]:
        """The basis indices of each weight, the weights in the order they
        first occur."""
        out: Dict[Weight, List[int]] = {}
        for i, lam in enumerate(self.weights):
            out.setdefault(lam, []).append(i)
        return out

    @memoized
    def socle_dim(self, kind: str) -> int:
        """dim soc M over a local algebra kind: the joint kernel of its
        generators, counted once per module and kind."""
        return len(joint_kernel(self, self.ctx.algebra_kind(kind).generators))

    def generator_kinds(self) -> List[GenKey]:
        return sorted(self.actions.keys())

    def check(self) -> None:
        """Grading compatibility and the relations on every basis vector v.

        Each generator word acts on v once: the words of the relations and
        their suffixes act shortest first, each on the image of its suffix,
        so the brackets and the Serre words share F_j v and E_i v, the Serre
        words share their suffixes, and at r = 1 so do the divided powers.
        The two sides of a relation are compared as vectors; equal field
        elements are one object, so the comparison takes no arithmetic.
        """
        ctx = self.ctx
        one = ctx.field.one

        def scaled(vec: Vec, c) -> Vec:
            return vec if c is one else {k: x * c for k, x in vec.items()}

        shifts = {"E": 1, "F": -1}
        for (kind, j), mat in self.actions.items():
            shift = shifts[kind[0]] * (1 if len(kind) == 1 else ctx.ell)
            alpha_w = ctx.datum.root_to_weight(ctx.datum.simple_roots[j])
            for col, column in mat.items():
                want = tuple(a + shift * b for a, b in zip(self.weights[col], alpha_w))
                if any(self.weights[row] != want for row in column):
                    raise ModuleCheckError(f"{self.label}: {kind}_{j+1} breaks the grading")
        # a word is a tuple of generator keys, its last letter acting first
        brackets = [
            (i, j, (("E", i), ("F", j)), (("F", j), ("E", i)))
            for i in range(ctx.rank) for j in range(ctx.rank)
        ]
        serre = [
            (kind, [(tuple((kind, j) for j in word), c) for word, c in rel])
            for rel in ctx.serre_relators() for kind in ("E", "F")
        ]
        # r = 1: E^{(m)} F^{(n)} = c * word for (m, n, word, c) in divided,
        # and E^{(a)} = c * word for e_words[a] = (word, c)
        divided, e_words = [], {}
        if ctx.r:
            for m, nn in [(1, ctx.ell), (ctx.ell, 1), (ctx.ell, ctx.ell)]:
                (e_word, ce), (f_word, cf) = self._divided_word("E", m), self._divided_word("F", nn)
                divided.append((m, nn, e_word + f_word, ce * cf))
            e_words = {a: self._divided_word("E", a) for a in range(ctx.ell + 1)}
        words = [w for *_, lhs, rhs in brackets for w in (lhs, rhs)]
        words += [w for _, rel in serre for w, _ in rel]
        words += [w for _, _, w, _ in divided] + [w for w, _ in e_words.values()]
        plan = sorted({w[k:] for w in words for k in range(len(w) - 1)}, key=lambda w: (len(w), w))
        mats = {gen: self.generator_matrix(gen) for gen in sorted({gen for w in words for gen in w})}
        for idx in range(self.dim):
            # a generator on v = e_idx is its column
            img: Dict[Tuple[GenKey, ...], Vec] = {(gen,): mat.get(idx, {}) for gen, mat in mats.items()}
            img[()] = {idx: one}
            for w in plan:
                inner = img[w[1:]]
                img[w] = mat_apply(mats[w[0]], inner) if inner else inner
            for i, j, lhs, rhs in brackets:
                lhs, rhs = img[lhs], img[rhs]
                if i == j:
                    # [K_i; 0] acts on v by [lam_i]_{q^{d_i}}
                    rhs = dict(rhs)
                    vec_add_term(rhs, idx, ctx.gauss_binom(self.weights[idx][i], 1, ctx.datum.d[i]))
                if lhs != rhs:
                    raise ModuleCheckError(f"{self.label}: [E_{i+1}, F_{j+1}] relation fails")
            for kind, rel in serre:
                acc: Vec = {}
                for w, c in rel:
                    vec_iadd_scaled(acc, img[w], c)
                if acc:
                    raise ModuleCheckError(f"{self.label}: {kind}-Serre relator acts")
            e_powers = {a: scaled(img[w], c) for a, (w, c) in e_words.items()}
            for m, nn, w, c in divided:
                # E^{(m)} F^{(n)} = sum_t F^{(n-t)} [K; 2t-m-n over t] E^{(m-t)}
                rhs: Vec = {}
                for f_t, c_off, t, e_t in ctx.mixed_rank1_terms(m, nn):
                    ev: Vec = {}
                    for k, x in e_powers[e_t].items():
                        val = ctx.gauss_binom(self.weights[k][0] * ctx.d_gamma[0] + c_off, t)
                        if val:
                            ev[k] = x * val
                    if ev:
                        for k, x in self.act_divided("F", 0, f_t, ev).items():
                            vec_add_term(rhs, k, x)
                if scaled(img[w], c) != rhs:
                    raise ModuleCheckError(f"{self.label}: divided mixed relation E^({m}) F^({nn}) fails")

    def _divided_word(self, side: str, a: int) -> Tuple[Tuple[GenKey, ...], object]:
        """(word, c) with X^{(a)} = c * word at rank one, the word's last
        letter acting first (``KernelContext.divided_chain``)."""
        gens, c = self.ctx.divided_chain(side, 0, a)
        return gens[::-1], c


# --------------------------------------------------------------------------
# constructors


def _fexp_list(ctx: KernelContext) -> List[Tuple[int, ...]]:
    return sorted(itertools.product(range(ctx.cap), repeat=ctx.n))


def _weights_below(ctx: KernelContext, lam: Weight, exps: List[Tuple[int, ...]]) -> Tuple[Weight, ...]:
    """lam - wt(a) for each exponent a, in fundamental-weight coordinates."""
    top = (0,) * ctx.n
    out = []
    for a in exps:
        wt_a = ctx.datum.root_to_weight(ctx.pbw_weight(a, top))
        out.append(tuple(x + y for x, y in zip(lam, wt_a)))
    return tuple(out)


def trivial_module(ctx: KernelContext) -> WeightedModule:
    zero = (0,) * ctx.rank
    acts: Dict[GenKey, Mat] = {("E", j): {} for j in range(ctx.rank)}
    acts.update({("F", j): {} for j in range(ctx.rank)})
    if ctx.r:
        acts.update({("Ed0", 0): {}, ("Fd0", 0): {}})
    return WeightedModule(ctx, (zero,), acts, True, "trivial")


def onedim_module(ctx: KernelContext, lam: Weight) -> WeightedModule:
    m = trivial_module(ctx)
    period = ctx.cap
    if any((lam[j] * ctx.datum.d[j]) % period for j in range(ctx.rank)):
        raise SpecSyntaxError(f"onedim weight {lam} does not kill the kernel algebra")
    return WeightedModule(ctx, (tuple(lam),), m.actions, not any(lam), f"onedim({_lam_str(lam)})")


def verma_module(ctx: KernelContext, lam: Weight) -> WeightedModule:
    """Induced highest-weight module Z(lam), free of rank one over the F side.

    Z(lam) = u e_lam / u u+_{>0} e_lam, so each generator acts as on the g
    cover at e = 0 (``KernelContext.pbw_terms``) with every term that keeps
    an E dropped.
    """
    lam = tuple(lam)
    fexps = _fexp_list(ctx)
    index = {a: i for i, a in enumerate(fexps)}
    top = (0,) * ctx.n
    acts: Dict[GenKey, Mat] = {}
    for gen in ctx.algebra_kind("g").generators:
        mat: Mat = {}
        for a in fexps:
            terms = ctx.pbw_terms("g", gen, a, top, lam)
            col = {index[a2]: c for (a2, _, e2), c in terms.items() if not any(e2)}
            if col:
                mat[index[a]] = col
        acts[gen] = mat
    return WeightedModule(
        ctx, _weights_below(ctx, lam, fexps), acts, False, f"verma({_lam_str(lam)})",
    )


def coverma_module(ctx: KernelContext, lam: Weight) -> WeightedModule:
    """Coinduced module Hom_{u<=0}(u, k_lam), socle weight lam on top.

    It is Z(nu)^omega (``omega_twist``) with nu = 2(cap-1)rho - lam.  The
    function dual to E^{(top)} has weight mu = lam - 2(cap-1)rho and no F
    lowers it, and the Frobenius form of u+ makes its E-translates a basis,
    so the module is u (x)_{u<=0} k_mu = Z(-mu)^omega.
    """
    lam = tuple(lam)
    m = omega_twist(verma_module(ctx, tuple(2 * (ctx.cap - 1) - x for x in lam)))
    m.label = f"coverma({_lam_str(lam)})"
    return m


def omega_twist(m: WeightedModule) -> WeightedModule:
    """M twisted by the Chevalley involution omega: E <-> F, K -> K^-1 (Jantzen,
    Lectures on Quantum Groups, 4.6): the E and F matrices, divided powers
    included, swap and the weights are negated.  Twisting twice gives M."""
    swap = {"E": "F", "F": "E"}
    acts = {(swap[kind[0]] + kind[1:], j): mat for (kind, j), mat in m.actions.items()}
    weights = tuple(tuple(-x for x in w) for w in m.weights)
    return WeightedModule(m.ctx, weights, acts, m.lifts, f"omega({m.label})")


def dual_module(m: WeightedModule) -> WeightedModule:
    """Antipode-twisted dual: g acts on f by f(S(g) . -)."""
    ctx = m.ctx
    weights = tuple(tuple(-x for x in lam) for lam in m.weights)
    acts: Dict[GenKey, Mat] = {}
    for (kind, j), mat in m.actions.items():
        letter = kind[0]
        nn = 1 if len(kind) == 1 else ctx.ell
        dj = ctx.datum.d[j]
        # S(E^{(n)}) = (-1)^n q^{d n(n-1)} K^{-n} E^{(n)},
        # S(F^{(n)}) = (-1)^n q^{-d n(n-1)} F^{(n)} K^{n}
        sign = ctx.field.from_int(-1) if nn % 2 else ctx.field.one
        tw = ctx.zeta_pow(dj * nn * (nn - 1)) if letter == "E" else ctx.zeta_pow(-dj * nn * (nn - 1))
        smat: Mat = {}
        for col, column in mat.items():
            for row, c in column.items():
                if letter == "E":
                    # K^{-n} after E^{(n)}: eigenvalue at the TARGET weight
                    lam = m.weights[row]
                    keig = ctx.zeta_pow(-nn * lam[j] * dj)
                else:
                    lam = m.weights[col]
                    keig = ctx.zeta_pow(nn * lam[j] * dj)
                val = sign * tw * keig * c
                # transpose
                smat.setdefault(row, {})[col] = val
        acts[(kind, j)] = smat
    return WeightedModule(ctx, weights, acts, m.lifts, f"dual({m.label})")


def tensor_module(a: WeightedModule, b: WeightedModule) -> WeightedModule:
    ctx = a.ctx
    one = ctx.field.one
    dim_b = b.dim
    weights = tuple(
        tuple(x + y for x, y in zip(la, lb)) for la in a.weights for lb in b.weights
    )

    def pair(i, k):
        return i * dim_b + k

    acts: Dict[GenKey, Mat] = {}
    kinds = set(a.actions) | set(b.actions)
    for (kind, j) in sorted(kinds):
        side = kind[0]
        nn = 1 if len(kind) == 1 else ctx.ell
        dj = ctx.datum.d[j]
        pos = ctx.simple_pos[j]
        # Delta(E^{(n)}) = sum q^{-d na nb} K^{nb} E^{(na)} (x) E^{(nb)}
        # Delta(F^{(n)}) = sum q^{+d na nb} F^{(na)} (x) F^{(nb)} K^{-na}
        # Each factor's divided powers act on each of its basis vectors once;
        # the scalar and the K eigenvalue of a term fold into the factor they
        # depend on: the target weight of the E^{(na)} side, the source
        # weight of the F^{(nb)} side.
        a_terms, b_terms = [], []
        for na in range(nn + 1):
            nb = nn - na
            scal = ctx.zeta_pow((-1 if side == "E" else 1) * dj * na * nb)
            va = [a.act_divided(side, pos, na, {i: one}) for i in range(a.dim)]
            vb = [b.act_divided(side, pos, nb, {k: one}) for k in range(b.dim)]
            if side == "E":
                va = [{ia: scal * ctx.zeta_pow(nb * a.weights[ia][j] * dj) * ca for ia, ca in v.items()} for v in va]
            else:
                vb = [{ib: scal * ctx.zeta_pow(-na * b.weights[k][j] * dj) * cb for ib, cb in v.items()}
                      for k, v in enumerate(vb)]
            a_terms.append(va)
            b_terms.append(vb)
        mat: Mat = {}
        for i in range(a.dim):
            for k in range(b.dim):
                col = pair(i, k)
                for va, vb in zip(a_terms, b_terms):
                    for ia, ca in va[i].items():
                        for ib, cb in vb[k].items():
                            vec_add_term(mat.setdefault(col, {}), pair(ia, ib), ca * cb)
        acts[(kind, j)] = mat
    return WeightedModule(ctx, weights, acts, a.lifts and b.lifts, f"tensor({a.label},{b.label})")


def sum_module(a: WeightedModule, b: WeightedModule) -> WeightedModule:
    ctx = a.ctx
    weights = a.weights + b.weights
    off = a.dim
    acts: Dict[GenKey, Mat] = {}
    for kind in set(a.actions) | set(b.actions):
        mat: Mat = {}
        for col, column in a.actions.get(kind, {}).items():
            mat[col] = dict(column)
        for col, column in b.actions.get(kind, {}).items():
            mat[col + off] = {row + off: c for row, c in column.items()}
        acts[kind] = mat
    return WeightedModule(ctx, weights, acts, a.lifts and b.lifts, f"sum({a.label},{b.label})")


def twist_module(m: WeightedModule, mu: Weight) -> WeightedModule:
    ctx = m.ctx
    period = ctx.cap
    if any((mu[j] * ctx.datum.d[j]) % period for j in range(ctx.rank)):
        raise SpecSyntaxError(f"twist weight {mu} is not in {period}X")
    weights = tuple(tuple(x + y for x, y in zip(lam, mu)) for lam in m.weights)
    # nontrivial grading shifts do not extend upstairs
    lifts = m.lifts and not any(mu)
    return WeightedModule(ctx, weights, m.actions, lifts, f"twist({m.label},{_lam_str(mu)})")


# --------------------------------------------------------------------------
# submodules, quotients, simples


def cyclic_span(m: WeightedModule, seeds: List[Vec]) -> List[Vec]:
    """Graded basis (echelon rows) of the submodule generated by seeds."""
    elim = Eliminator()
    close_span(elim, seeds, [m.generator_matrix(g) for g in m.generator_kinds()])
    return sorted(elim.pivots.values(), key=lambda row: min(row))


def submodule(m: WeightedModule, rows: List[Vec], label: str) -> WeightedModule:
    """Module structure on the span of homogeneous rows in reduced echelon
    form (``cyclic_span``): each row is one at its pivot, its least key, and
    has no entry at any other pivot, so a vector of the span has its
    coordinates at the pivots."""
    one = m.ctx.field.one
    pivot = {min(row): t for t, row in enumerate(rows)}
    assert len(pivot) == len(rows) and all(
        row[p] == one and pivot.keys() & row.keys() == {p} for p, row in zip(pivot, rows)
    ), "rows must be in reduced echelon form"
    weights = []
    for row in rows:
        lam = m.weights[min(row)]
        assert all(m.weights[k] == lam for k in row), "rows must be homogeneous"
        weights.append(lam)
    acts: Dict[GenKey, Mat] = {}
    for g in m.generator_kinds():
        mat: Mat = {}
        for t, row in enumerate(rows):
            img = m.act_gen(g, row)
            if not img:
                continue
            col = {pivot[k]: c for k, c in img.items() if k in pivot}
            for u, c in col.items():
                vec_isub_scaled(img, rows[u], c)
            if img:
                raise ModuleCheckError(f"{label}: span is not {g}-stable")
            mat[t] = col
        acts[g] = mat
    return WeightedModule(m.ctx, tuple(weights), acts, m.lifts, label)


def quotient_module(m: WeightedModule, rows: List[Vec], label: str) -> WeightedModule:
    """Quotient by the submodule that homogeneous rows span; the rows are
    echelonized here, so any spanning set gives the same module."""
    elim = Eliminator()
    for row in rows:
        elim.add(row)
    keep = [i for i in range(m.dim) if i not in elim.pivots]
    pos = {i: t for t, i in enumerate(keep)}
    weights = tuple(m.weights[i] for i in keep)
    acts: Dict[GenKey, Mat] = {}
    for g in m.generator_kinds():
        mat: Mat = {}
        for t, i in enumerate(keep):
            img = m.act_gen(g, {i: m.ctx.field.one})
            red = elim.reduce(img)
            col = {}
            for k, c in red.items():
                col[pos[k]] = c
            if col:
                mat[t] = col
        acts[g] = mat
    return WeightedModule(m.ctx, weights, acts, m.lifts, label)


def random_weight_vector(m: WeightedModule, seed: int) -> Vec:
    """Deterministic nonzero vector inside one weight space."""
    rng = random.Random(seed)
    by_weight = m.weight_spaces()
    lam = rng.choice(sorted(by_weight))
    idxs = by_weight[lam]
    vec: Vec = {}
    while not vec:
        for i in idxs:
            c = rng.randint(-2, 2)
            if c:
                vec[i] = m.ctx.field.from_int(c)
    return vec


def randsub_module(m: WeightedModule, seed: int) -> WeightedModule:
    rows = cyclic_span(m, [random_weight_vector(m, seed)])
    sub = submodule(m, rows, f"randsub({m.label},{seed})")
    # stability under the divided powers upstairs is not certified
    sub.lifts = False
    return sub


def quot_module(m: WeightedModule, seed: int) -> WeightedModule:
    rows = cyclic_span(m, [random_weight_vector(m, seed)])
    quo = quotient_module(m, rows, f"quot({m.label},{seed})")
    quo.lifts = False
    return quo


def simple_module(ctx: KernelContext, lam: Weight) -> WeightedModule:
    """Head of the baby Verma module Z(lam): Z(lam) modulo its radical.

    rad Z(lam) is the largest submodule that misses v_lam, the vectors from
    which no raising path reaches the lam-line (Jantzen, Lectures on
    Quantum Groups, ch. 5).  It is computed weight by weight from the top
    down, with R_lam = 0: R_mu is the set of w in Z(lam)_mu that every u+
    letter x (E_j, and E^{(ell)} at r = 1) sends into R at the weight of
    x w, the kernel of w -> (x w reduced modulo R).  The letters generate
    u+, so a w in R_mu has x w in R for every x in u+, and none reaches
    v_lam.
    """
    lam = tuple(lam)
    if any(not (0 <= lam[j] < ctx.cap) for j in range(ctx.rank)):
        raise SpecSyntaxError(f"simple({_lam_str(lam)}) needs a restricted weight")
    vm = verma_module(ctx, lam)
    raising = [vm.actions[g] for g in ctx.algebra_kind("u+").generators]
    # rows of different weights share no key, so one echelon form holds R
    radical = Eliminator()
    blocks = vm.weight_spaces()
    # a letter raises (mu, 2 rho), so each target weight comes before mu
    two_rho = ctx.weight_of_fexp((1,) * ctx.n)
    top_down = sorted(blocks, key=lambda mu: ctx.datum.pair_weight_root(mu, two_rho), reverse=True)
    for mu in top_down[1:]:
        cols = [(i, {(t, k): c for t, mat in enumerate(raising)
                     for k, c in radical.eliminate(dict(mat.get(i, {}))).items()})
                for i in blocks[mu]]
        for row in kernel_basis(cols, one=ctx.field.one):
            radical.add(row)
    simple = quotient_module(vm, list(radical.pivots.values()), f"simple({_lam_str(lam)})")
    _certify_simple(simple, lam)
    # restricted simple heads restrict from the full quantized algebra
    simple.lifts = True
    return simple


def _certify_simple(m: WeightedModule, lam: Weight) -> None:
    """M is simple: its highest weight line is one-dimensional, the joint
    kernel of the u+ generators is that line, and one vector of it
    generates M.

    The augmentation ideal of u+ is nilpotent, so every nonzero submodule
    N holds a nonzero vector that every u+ generator kills (E^{(ell)} too,
    at r = 1).  By the second check it is a multiple of v_lam, and by the
    third N is then all of M.
    """
    top = [i for i, w in enumerate(m.weights) if w == tuple(lam)]
    if len(top) != 1:
        raise ModuleCheckError(f"{m.label}: highest weight line has dim {len(top)}")
    primitive = joint_kernel(m, m.ctx.algebra_kind("u+").generators)
    # a kernel vector lies in one weight space
    if len(primitive) != 1 or top[0] not in primitive[0]:
        raise ModuleCheckError(f"{m.label}: the vectors u+ kills are not the highest weight line")
    if not _generates(m, top[0]):
        raise ModuleCheckError(f"{m.label}: the highest weight vector fails to generate")


def _generates(m: WeightedModule, i: int) -> bool:
    """The basis vector i generates M."""
    return len(cyclic_span(m, [{i: m.ctx.field.one}])) == m.dim


def is_verma(m: WeightedModule, nu: Weight) -> bool:
    """M is Z(nu): M has the character of Z(nu) and its nu-line generates it.

    A vector of M_nu that u+ kills is the image of 1 (x) 1 under a map
    Z(nu) = u (x)_{u>=0} k_nu -> M, onto iff it generates M, and then an
    isomorphism.  u+ (E^{(ell)} too, at r = 1) kills M_nu: nu is the top
    weight of char Z(nu), so the grading sends M_nu to weights M lacks.
    """
    if m.character() != Counter(_weights_below(m.ctx, nu, _fexp_list(m.ctx))):
        return False
    return _generates(m, m.weights.index(nu))


# --------------------------------------------------------------------------
# module spec DSL
#
# ``CONSTRUCTORS`` maps each head to its signature and its constructor.
# ``parse_module_spec`` reads the signature, ``ModuleSpec.__str__`` prints it
# and ``realize`` calls the constructor with the arguments in signature order,
# sub-specs realized, and the context first when no argument is a module.  A
# signature lists the kinds of the arguments; each kind is the ``ModuleSpec``
# field it fills: a sub-spec (``args``), a weight (``lam``) or a seed (``seed``).
# The printed text is canonical (no spaces), and ``KernelContext.realized``,
# the one module store, is keyed by it: ``simple(1, 0)`` and ``simple(1,0)``
# are one module, built once per context, whether nested or not.

SPEC, WEIGHT, SEED = "args", "lam", "seed"
MAX_SPEC_DEPTH = 100
# a spec longer than this is quoted in a syntax error by a window of this
# many characters around the position, with "..." at each cut end
SPEC_QUOTE_WIDTH = 80
CONSTRUCTORS = {
    "trivial": ((), trivial_module),
    "onedim": ((WEIGHT,), onedim_module),
    "verma": ((WEIGHT,), verma_module),
    "coverma": ((WEIGHT,), coverma_module),
    "simple": ((WEIGHT,), simple_module),
    "dual": ((SPEC,), dual_module),
    "tensor": ((SPEC, SPEC), tensor_module),
    "sum": ((SPEC, SPEC), sum_module),
    "twist": ((SPEC, WEIGHT), twist_module),
    "randsub": ((SPEC, SEED), randsub_module),
    "quot": ((SPEC, SEED), quot_module),
}


# the one dataclass of the package: uzbench/workloads.py::_reseed calls
# dataclasses.replace on a spec, which a NamedTuple or plain class refuses
@dataclass(frozen=True)
class ModuleSpec:
    head: str
    lam: Optional[Tuple[int, ...]] = None
    args: Tuple["ModuleSpec", ...] = ()
    seed: Optional[int] = None

    def arguments(self) -> List[object]:
        """The head's arguments in signature order."""
        subs = iter(self.args)
        return [next(subs) if kind == SPEC else getattr(self, kind) for kind in CONSTRUCTORS[self.head][0]]

    def __str__(self) -> str:
        sig = CONSTRUCTORS[self.head][0]
        texts = [_lam_str(v) if kind == WEIGHT else str(v) for kind, v in zip(sig, self.arguments())]
        return f"{self.head}({','.join(texts)})" if texts else self.head


def _lam_str(lam) -> str:
    return ",".join(str(x) for x in lam)


def parse_module_spec(text: str, rank: int) -> ModuleSpec:
    """The spec of text.  Sub-specs nest at most MAX_SPEC_DEPTH levels deep,
    well within the recursion limit of parsing, ``realize`` and printing."""
    pos = 0
    s = text.replace(" ", "")

    def fail(msg):
        quote = repr(text)
        if len(text) > SPEC_QUOTE_WIDTH:
            # cut from s, the spaceless text that pos indexes
            lo = max(0, min(pos - SPEC_QUOTE_WIDTH // 2, len(s) - SPEC_QUOTE_WIDTH))
            hi = lo + SPEC_QUOTE_WIDTH
            quote = ("..." if lo else "") + repr(s[lo:hi]) + ("..." if hi < len(s) else "")
        raise SpecSyntaxError(f"{msg} at position {pos} in {quote}")

    def parse_int():
        nonlocal pos
        start = pos
        if pos < len(s) and s[pos] == "-":
            pos += 1
        digits = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == digits:
            fail("expected integer")
        return int(s[start:pos])

    def expect(ch):
        nonlocal pos
        if pos >= len(s) or s[pos] != ch:
            fail(f"expected {ch!r}")
        pos += 1

    def parse_lam():
        out = [parse_int()]
        while pos < len(s) and s[pos] == ",":
            if not (pos + 1 < len(s) and (s[pos + 1].isdigit() or s[pos + 1] == "-")):
                break
            expect(",")
            out.append(parse_int())
        if len(out) != rank:
            fail(f"weight needs {rank} coordinates")
        return tuple(out)

    def parse_spec(depth):
        nonlocal pos
        if depth > MAX_SPEC_DEPTH:
            fail(f"spec nests deeper than {MAX_SPEC_DEPTH} levels")
        start = pos
        while pos < len(s) and s[pos].isalpha():
            pos += 1
        head = s[start:pos]
        if head not in CONSTRUCTORS:
            fail(f"unknown constructor {head!r}")
        sig = CONSTRUCTORS[head][0]
        args, fields = [], {}
        for k, kind in enumerate(sig):
            expect("," if k else "(")
            if kind == SPEC:
                args.append(parse_spec(depth + 1))
            else:
                fields[kind] = parse_lam() if kind == WEIGHT else parse_int()
        if sig:
            expect(")")
        return ModuleSpec(head, args=tuple(args), **fields)

    out = parse_spec(0)
    if pos != len(s):
        fail("trailing input")
    return out


def realize(ctx: KernelContext, spec: ModuleSpec) -> WeightedModule:
    """The module of spec over ctx, built once per context: it and every
    sub-spec are looked up in ``ctx.realized`` by their canonical text
    before they are built, and kept there."""
    key = str(spec)
    m = ctx.realized.get(key)
    if m is None:
        sig, build = CONSTRUCTORS[spec.head]
        values = [realize(ctx, v) if kind == SPEC else v for kind, v in zip(sig, spec.arguments())]
        m = ctx.realized[key] = build(*values) if SPEC in sig else build(ctx, *values)
    return m


def realize_text(ctx: KernelContext, text: str) -> WeightedModule:
    return realize(ctx, parse_module_spec(text, ctx.rank))


# --------------------------------------------------------------------------
# characters and structural tests


def verma_character_test(m: WeightedModule) -> bool:
    """char(M) lies in the N-span of highest-weight-module characters.

    Greedy peeling from the top: the base character is unitriangular with
    highest term the top weight, so feasibility has a unique candidate.
    """
    ctx = m.ctx
    base = Counter(_weights_below(ctx, (0,) * ctx.rank, _fexp_list(ctx)))
    two_rho = ctx.weight_of_fexp((1,) * ctx.n)

    def height(lam: Weight):
        return (ctx.datum.pair_weight_root(lam, two_rho), lam)

    rem = Counter(m.character())
    while rem:
        lam = max(rem, key=height)
        mult = rem[lam]
        if mult <= 0:
            return False
        for mu, k in base.items():
            key = tuple(a + b for a, b in zip(lam, mu))
            rem[key] -= mult * k
            if rem[key] == 0:
                del rem[key]
            elif rem[key] < 0:
                return False
    return True


def joint_kernel(m: WeightedModule, gens: Sequence[GenKey]) -> List[Vec]:
    """Basis of the vectors of M that every generator in gens kills.

    Each generator moves weights by a fixed amount, so the joint kernel is
    the sum of its pieces in the weight spaces; it is computed one weight
    space at a time, in the order the weights first occur.  Over the F (E)
    generators of u- (u+) it is the socle of M over that algebra.
    """
    mats = [m.generator_matrix(g) for g in gens]
    out: List[Vec] = []
    for idxs in m.weight_spaces().values():
        cols = [(i, {(t, row): c for t, mat in enumerate(mats) for row, c in mat.get(i, {}).items()})
                for i in idxs]
        out.extend(kernel_basis(cols, one=m.ctx.field.one))
    return out


def zdual_check(ctx: KernelContext, lam: Weight) -> Dict[str, object]:
    """Which of Z(nu) and coverma(nu) the duals of Z(lam) and coverma(lam)
    are, at the reflected weight nu = 2(cap-1)rho - lam.  A dual M is tested
    by ``is_verma`` against Z(nu), and against coverma(nu) = Z(lam)^omega
    through its omega-twist: M is coverma(nu) iff M^omega is Z(lam)."""
    lam = tuple(lam)
    reflected = tuple(2 * (ctx.cap - 1) - x for x in lam)  # 2(p^r ell - 1) rho - lam
    report: Dict[str, object] = {"lambda": lam, "reflected": reflected}
    for name, build in (("dual_verma", verma_module), ("dual_coverma", coverma_module)):
        dualmod = dual_module(build(ctx, lam))
        hits = (("verma", is_verma(dualmod, reflected)), ("coverma", is_verma(omega_twist(dualmod), lam)))
        report[name] = [tname for tname, hit in hits if hit]
    return report
