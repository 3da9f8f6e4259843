"""Graded minimal free resolutions over the one-sided local algebras and
cohomology dimensions of the Borel subalgebras.

The trivial module is resolved by weight-graded syzygies: each step picks
homogeneous minimal generators of the kernel K of the previous
differential, a basis of K / rad(A) K (minimality means the differentials
land in the radical, which is checked explicitly).  Every differential
column is homogeneous, so each kernel is solved one weight block at a
time; that gives the same kernel vectors, in the same order, as one
elimination over the whole free module.  The radical is spanned block by
block too, and a block whose rank reaches dim K_w is full: it holds no
generator, so no image aimed at it is built and no kernel vector of its
weight is reduced.  Each column a.h is built with one root-vector step,
X^{(a)} h = X (X^{(a-1)} h) / [a], from the column of the monomial with
one less in a's outermost exponent.  Borel cohomology dimensions are read
off by torus-weight selection: a resolution generator of weight mu
contributes to H^n(borel, k) exactly when the torus acts trivially on mu,
i.e. (mu, alpha_j) = 0 mod cap for every simple root, where cap = ell p^r
is the torus period of the kernel (the period ``onedim`` weights obey).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .kernelalg import BasisKey, KernelAlgebra, KernelContext
from .linalg import Eliminator, Vec, kernel_basis, vec_add_term

RootVec = Tuple[int, ...]


@dataclass
class GradedBetti:
    degrees: List[List[RootVec]]  # generator weights (root coordinates) per step

    def betti(self) -> List[int]:
        return [len(ws) for ws in self.degrees]


def minimal_resolution(ctx: KernelContext, kind: str, n_max: int) -> GradedBetti:
    """Weight-graded minimal free resolution of k over a one-sided algebra.

    Elements of the n-th free module are dicts {(gen index, algebra basis
    key): coefficient}; differential columns are cached per step.
    """
    if kind not in ("u-", "u+"):
        raise ValueError("resolutions are over the one-sided local algebras")
    if n_max < 0:
        raise ValueError(f"resolution degree {n_max} is negative")
    alg = ctx.algebra(kind)
    (unit,) = alg.one()
    # each algebra generator g with its weight, that of the monomial g.1
    gens = [(g, alg.weight_of_key(min(alg.gen_column(g, unit)))) for g in alg.generator_keys()]
    field = ctx.field

    # step 0: P_0 = A -> k; kernel = augmentation ideal
    degrees: List[List[RootVec]] = [[(0,) * ctx.rank]]
    kernel: List[Vec] = [
        {(0, key): field.one} for key in alg.basis if key != unit
    ]
    gen_weights = [(0,) * ctx.rank]

    for step in range(1, n_max + 1):
        # minimal homogeneous generators: a basis of K / rad(A) K, with K the
        # kernel and rad(A) K = sum of g K over the algebra generators g
        # (rad(A) = sum g A, and A K = K).  The block of weight w of
        # rad(A) K lies in K_w, so once its rank reaches dim K_w (room) it
        # holds no generator: no image g.v of weight wt(v) + wt(g) = w is
        # built after that, and no kernel vector of weight w is reduced.
        # A block below its room receives every image, so its reduced
        # echelon form, and with it each generator, is that of the whole span.
        wts = [_vec_weight(alg, gen_weights, vec) for vec in kernel]
        room = Counter(wts)
        rad: Dict[RootVec, Eliminator] = defaultdict(Eliminator)

        def full(wt: RootVec) -> bool:
            return rad[wt].rank >= room[wt]

        for vec, wt in zip(kernel, wts):
            for gen, gwt in gens:
                target = tuple(a + b for a, b in zip(wt, gwt))
                if not full(target):
                    rad[target].add(_apply_gen(alg, gen, vec))
        # each block is kept fully reduced with min-key pivots, so kernel
        # vectors are reduced against it directly and the survivors join it
        new_gens: List[Tuple[RootVec, Vec]] = []
        for vec, wt in zip(kernel, wts):
            if full(wt):
                continue
            red = rad[wt].reduce(vec)
            if red:
                rad[wt].insert(red)
                new_gens.append((wt, red))
                # minimality: the generator has no unit coordinate
                if any(key == unit for (_, key) in red):
                    raise AssertionError("non-minimal generator: unit coordinate")
        new_gens.sort(key=lambda t: (sum(t[0]), t[0]))
        degrees.append([wt for wt, _ in new_gens])
        if step == n_max:
            break
        kernel = _next_kernel(alg, new_gens, field.one)
        gen_weights = [wt for wt, _ in new_gens]

    res = GradedBetti(degrees)
    _check_strict_grading(res)
    return res


def _next_kernel(alg: KernelAlgebra, new_gens: List[Tuple[RootVec, Vec]], one) -> List[Vec]:
    """ker(P_step -> P_{step-1}) for the generators h of P_step, by weight block.

    The column a.h has the weight of a plus that of h, and columns of
    different weights share no row key, so each block is eliminated alone.
    Column keys (generator, a) increase, so sorting the relations by their
    largest key gives the order of one elimination over all columns.
    """
    blocks: Dict[RootVec, List[Tuple[Tuple[int, BasisKey], Vec]]] = {}
    for gj, (wt, h) in enumerate(new_gens):
        parts: Dict[int, Vec] = {}
        for (i, bkey), c in h.items():
            parts.setdefault(i, {})[bkey] = c
        by_part = [(i, _columns(alg, part)) for i, part in parts.items()]
        for akey in alg.basis:
            img = {(i, bk): c for i, cols in by_part for bk, c in cols[akey].items()}
            cw = tuple(a + b for a, b in zip(alg.weight_of_key(akey), wt))
            blocks.setdefault(cw, []).append(((gj, akey), img))
    return sorted((rel for cols in blocks.values() for rel in kernel_basis(cols, one=one)), key=max)


def _columns(alg: KernelAlgebra, part: Vec) -> Dict[BasisKey, Vec]:
    """a.part for every basis monomial a, each from the column of a shorter one.

    The divided factor X^{(a)} that ``KernelContext.monomial`` applies last
    (the F factor at the first nonzero position, else K^k, else the E factor
    there) takes one step of ``KernelContext.divided_step`` from the column
    of the monomial with a lower exponent there; K^k is one factor, applied
    to the column with no K part.  Either column sorts before a in the
    basis, which starts at the unit.
    """
    ctx = alg.ctx
    one = ctx.field.one
    (unit,) = alg.one()
    cols: Dict[BasisKey, Vec] = {unit: part}
    for key in alg.basis[1:]:
        s = next(s for s, t in enumerate(key) if any(t))
        if s == 1:
            cols[key] = alg.lmul_k(key[1], cols[(key[0], (0,) * len(key[1]), key[2])])
            continue
        i = next(i for i, x in enumerate(key[s]) if x)
        gen, drop, c = ctx.divided_step("F" if s == 0 else "E", i, key[s][i])
        prev = list(key)
        prev[s] = key[s][:i] + (key[s][i] - drop,) + key[s][i + 1:]
        img = alg.lmul_gen(gen, cols[tuple(prev)])
        cols[key] = img if c == one else {k: x * c for k, x in img.items()}
    return cols


def _apply_gen(alg: KernelAlgebra, gen, vec: Vec) -> Vec:
    """Left action of an algebra generator on a free-module element, read
    off the algebra's cached generator columns."""
    out: Vec = {}
    for (i, key), c in vec.items():
        for k2, c2 in alg.gen_column(gen, key).items():
            vec_add_term(out, (i, k2), c * c2)
    return out


def _key_weight(alg: KernelAlgebra, gen_weights: List[RootVec], key: Tuple[int, BasisKey]) -> RootVec:
    i, akey = key
    return tuple(a + b for a, b in zip(alg.weight_of_key(akey), gen_weights[i]))


def _vec_weight(alg: KernelAlgebra, gen_weights: List[RootVec], vec: Vec) -> RootVec:
    wts = {_key_weight(alg, gen_weights, key) for key in vec}
    if len(wts) != 1:
        raise AssertionError(f"syzygy vector is not homogeneous: {sorted(wts)}")
    return next(iter(wts))


def _check_strict_grading(res: GradedBetti) -> None:
    for n, ws in enumerate(res.degrees):
        for w in ws:
            height = abs(sum(w))
            if height < n:
                raise AssertionError(
                    f"degree-{n} generator of weight {w} has height {height} < {n}"
                )


def weight_has_trivial_character(ctx: KernelContext, mu: RootVec) -> bool:
    """Whether the torus of the kernel acts trivially on the root-lattice
    weight mu: (mu, alpha_j) = 0 mod cap for every simple root alpha_j.

    At r = 1 the torus of the kernel has period cap = ell p, the period
    ``onedim_module`` and ``twist_module`` use; the K-eigenvalue
    zeta^{(mu, alpha_j)} alone has period ell and cannot see it.
    """
    return all(
        ctx.pair(mu, ctx.datum.simple_roots[j]) % ctx.cap == 0
        for j in range(ctx.rank)
    )


def borel_dims(ctx: KernelContext, res: GradedBetti) -> List[int]:
    """dim H^n(borel, k) for each degree n of a finished resolution: the
    number of its degree-n generators of torus-trivial weight."""
    return [
        sum(1 for w in ws if weight_has_trivial_character(ctx, w))
        for ws in res.degrees
    ]


def borel_cohomology_dims(ctx: KernelContext, side: str, n_max: int) -> List[int]:
    """dim H^n(borel, k) for n = 0..n_max via torus-invariant generators."""
    return borel_dims(ctx, minimal_resolution(ctx, "u+" if side == "plus" else "u-", n_max))


def polynomial_hilbert(n_gens: int, half_degree: int) -> int:
    """Dimension count C(m + N - 1, N - 1) for N polynomial generators."""
    from math import comb

    return comb(half_degree + n_gens - 1, n_gens - 1)
