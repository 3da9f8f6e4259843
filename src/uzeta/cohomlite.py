"""Graded minimal free resolutions over the one-sided local algebras and
cohomology dimensions of the Borel subalgebras.

The trivial module is resolved by weight-graded syzygies, degree by
degree, as Bruner computes minimal resolutions over a graded algebra
("Calculation of large Ext modules", Computers in Geometry and Topology,
1989).  Each step picks homogeneous minimal generators h of the kernel K
of the previous differential, a basis of K / rad(A) K (minimality means
the differentials land in the radical, which is checked explicitly).
Every differential column is homogeneous, so each step works one weight
block at a time, and the blocks are visited in order of |height|: the
weights of u+ (u-) are positive (negative), so every monomial a other
than 1 moves |height| strictly, and when block w is reached every column
a.h with a != 1 that lands in w has already been built, from a generator
h of a block visited before.

Below the last degree those columns are the next differential's.  They
span rad(A) K, since K = A h and rad(A) is spanned by the monomials
a != 1, so the one elimination of block w serves twice: the kernel
vectors of weight w that stay independent of it are the generators, and
a column that depends on the columns before it yields, through its
companion {(h, a): 1}, a vector of the next kernel.  At the last degree
no next kernel is needed, and the radical is spanned by the images g.v
of the kernel vectors under the algebra generators g instead, which
costs fewer products than every column a.h.  Either way a block whose
rank reaches dim K_w is full: it holds no generator, so no kernel vector
of its weight is reduced (and at the last degree no image aimed at it is
built).  Each column a.h is built with one root-vector step,
X^{(a)} h = X (X^{(a-1)} h) / [a], from the column of the monomial with
one less in a's outermost exponent.  Borel cohomology dimensions are read
off by torus-weight selection: a resolution generator of weight mu
contributes to H^n(borel, k) exactly when the torus acts trivially on mu,
i.e. (mu, alpha_j) = 0 mod cap for every simple root, where cap = ell p^r
is the torus period of the kernel (the period ``onedim`` weights obey).

Free-module elements are dicts over flat integer coordinates
x = gi * dim + i, for the free generator gi and the algebra basis index i,
and the columns come from ``KernelAlgebra.gen_column`` in those indices.
The algebra basis is sorted with the unit at index 0, so x orders exactly
like the pair (gi, basis[i]): every min-key pivot, and with it every
generator and every weight reported, is the one that pairs of keys would
give, while a dict operation hashes one int instead of a nested tuple.
The unit coordinates are the x with x % dim == 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from .kernelalg import GenKey, KernelAlgebra, KernelContext
from .linalg import Eliminator, Vec, vec_add_term

RootVec = Tuple[int, ...]
Blocks = Dict[RootVec, List[Vec]]  # kernel vectors by weight
Plan = List[Tuple[int, GenKey, object]]  # (prev, gen, c) for basis indices 1, 2, ...


class GradedBetti:
    def __init__(self, degrees: List[List[RootVec]]):
        self.degrees = degrees  # generator weights (root coordinates) per step

    def betti(self) -> List[int]:
        return [len(ws) for ws in self.degrees]


def minimal_resolution(ctx: KernelContext, kind: str, n_max: int) -> GradedBetti:
    """Weight-graded minimal free resolution of k over a one-sided algebra.

    Elements of the n-th free module are dicts {gi * dim + i: coefficient}
    over its generators gi and the algebra basis indices i; each kernel is
    kept as its weight blocks.
    """
    if kind not in ("u-", "u+"):
        raise ValueError("resolutions are over the one-sided local algebras")
    if n_max < 0:
        raise ValueError(f"resolution degree {n_max} is negative")
    alg = ctx.algebra(kind)
    weights = [alg.weight_of_key(key) for key in alg.basis]
    plan = _plan(alg)

    # step 0: P_0 = A -> k; kernel = augmentation ideal
    gen_weights = [(0,) * ctx.rank]
    degrees: List[List[RootVec]] = [gen_weights]
    kernel: Blocks = defaultdict(list)
    for i in range(1, alg.dim):
        kernel[weights[i]].append({i: ctx.field.one})

    for step in range(1, n_max + 1):
        gen_weights, kernel = _step(alg, plan, weights, gen_weights, kernel, last=step == n_max)
        degrees.append(sorted(gen_weights, key=lambda wt: (sum(wt), wt)))

    res = GradedBetti(degrees)
    _check_strict_grading(res)
    return res


def _step(
    alg: KernelAlgebra, plan: Plan, weights: List[RootVec], gen_weights: List[RootVec], kernel: Blocks, last: bool
) -> Tuple[List[RootVec], Blocks]:
    """Minimal generators of a kernel K, and below the last degree the
    kernel of the differential they define, one block per weight.

    Returns the weights of the generators, in the order they are found
    (the order of their indices in the next free module), and the next
    kernel by weight (empty at the last degree).  Each block of K is
    released once it is visited.
    """
    ctx, dim = alg.ctx, alg.dim
    one = ctx.field.one
    gens = []
    if last:
        # the simple letter X_j is X^{(1)} at its root's position, so its
        # column is the one the plan's first divided steps read (the plain
        # root vector at r = 0) and is built once
        for name, j in alg.generator_keys():
            gen = ctx.divided_step(name, ctx.simple_pos[j], 1)[0] if name in ("E", "F") else (name, j)
            gens.append((gen, weights[min(alg.gen_column(gen, 0))]))
    sizes = {wt: len(vecs) for wt, vecs in kernel.items()}
    blocks: Dict[RootVec, Eliminator] = defaultdict(Eliminator)
    found: List[RootVec] = []
    syzygies: Blocks = defaultdict(list)
    for wt in sorted(sizes, key=lambda w: (abs(sum(w)), w)):
        vecs = kernel.pop(wt)
        for vec in vecs:
            if _vec_weight(weights, gen_weights, dim, vec) != wt:
                raise AssertionError(f"syzygy vector filed under weight {wt} has another weight")
        # the block holds rad(A) K_w; each block is kept fully reduced with
        # min-key pivots, so kernel vectors are reduced against it directly
        # and the survivors join it, until its rank reaches dim K_w
        block = blocks[wt]
        for vec in vecs:
            if block.rank >= len(vecs):
                break
            h = block.reduce(vec)
            if not h:
                continue
            # minimality: the generator has no unit coordinate
            if any(x % dim == 0 for x in h):
                raise AssertionError("non-minimal generator: unit coordinate")
            base = len(found) * dim
            found.append(wt)
            if last:
                block.insert(h)
                continue
            # h is the column 1.h; a column that depends on those before it
            # is a syzygy, its companion the relation
            block.insert(h, {base: one})
            cols = _columns(alg, plan, h)
            for a in range(1, dim):
                target = tuple(x + y for x, y in zip(weights[a], wt))
                comp = {base + a: one}
                if blocks[target].add(cols[a], comp) is None:
                    syzygies[target].append(comp)
        del blocks[wt]  # no column or image lands at a visited weight
        if last:
            # rad(A) K = sum of g K over the algebra generators g (rad(A) =
            # sum g A, and A K = K); a full block receives no image
            for vec in vecs:
                for gen, gwt in gens:
                    target = tuple(a + b for a, b in zip(wt, gwt))
                    if blocks[target].rank < sizes.get(target, 0):
                        blocks[target].add(_apply_gen(alg, gen, vec))
    return found, syzygies


def _plan(alg: KernelAlgebra) -> Plan:
    """(prev, gen, c) for every basis index a >= 1, in index order: the
    monomial a is c * gen * prev, with prev < a.

    The divided factor X^{(a)} that ``KernelContext.monomial`` applies last
    (the F factor at the first nonzero position, else K^k, else the E factor
    there) takes one step of ``KernelContext.divided_step`` down to a lower
    exponent there; K^k = K_j K^{k - e_j} at its first nonzero position j.
    Either lower monomial sorts before a in the basis, which starts at the
    unit.
    """
    ctx, index = alg.ctx, alg.index
    plan: Plan = []
    for f, k, e in alg.basis[1:]:
        if any(f) or not any(k):
            side, exps = ("F", f) if any(f) else ("E", e)
            i = next(i for i, x in enumerate(exps) if x)
            gen, drop, c = ctx.divided_step(side, i, exps[i])
            lower = exps[:i] + (exps[i] - drop,) + exps[i + 1:]
            prev = (lower, k, e) if side == "F" else (f, k, lower)
        else:
            j = next(j for j, x in enumerate(k) if x)
            gen, c = ("K", j), ctx.field.one
            prev = (f, k[:j] + (k[j] - 1,) + k[j + 1:], e)
        plan.append((index[prev], gen, c))
    return plan


def _columns(alg: KernelAlgebra, plan: Plan, h: Vec) -> List[Vec]:
    """a.h for every basis index a, in index order, each from the column
    of a lower monomial by one step of the plan."""
    one = alg.ctx.field.one
    cols = [h]
    for prev, gen, c in plan:
        img = _apply_gen(alg, gen, cols[prev])
        cols.append(img if c == one else {x: y * c for x, y in img.items()})
    return cols


def _apply_gen(alg: KernelAlgebra, gen: GenKey, vec: Vec) -> Vec:
    """Left action of an algebra generator on a free-module element, read
    off the algebra's cached generator columns."""
    dim = alg.dim
    out: Vec = {}
    for x, c in vec.items():
        i = x % dim
        base = x - i
        for i2, c2 in alg.gen_column(gen, i).items():
            vec_add_term(out, base + i2, c * c2)
    return out


def _vec_weight(weights: List[RootVec], gen_weights: List[RootVec], dim: int, vec: Vec) -> RootVec:
    wts = {tuple(a + b for a, b in zip(weights[x % dim], gen_weights[x // dim])) for x in vec}
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


def borel_cohomology_dims(ctx: KernelContext, kind: str, n_max: int) -> List[int]:
    """dim H^n(borel, k) for n = 0..n_max via torus-invariant generators,
    for the Borel subalgebra over the one-sided algebra kind ("u+" or "u-")."""
    return borel_dims(ctx, minimal_resolution(ctx, kind, n_max))


def polynomial_hilbert(n_gens: int, half_degree: int) -> int:
    """Dimension count C(m + N - 1, N - 1) for N polynomial generators."""
    from math import comb

    return comb(half_degree + n_gens - 1, n_gens - 1)
