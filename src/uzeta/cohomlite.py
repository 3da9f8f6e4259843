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
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from .kernelalg import BasisKey, KernelAlgebra, KernelContext
from .linalg import Eliminator, Vec, vec_add_term

RootVec = Tuple[int, ...]
Blocks = Dict[RootVec, List[Vec]]  # kernel vectors by weight


class GradedBetti:
    def __init__(self, degrees: List[List[RootVec]]):
        self.degrees = degrees  # generator weights (root coordinates) per step

    def betti(self) -> List[int]:
        return [len(ws) for ws in self.degrees]


def minimal_resolution(ctx: KernelContext, kind: str, n_max: int) -> GradedBetti:
    """Weight-graded minimal free resolution of k over a one-sided algebra.

    Elements of the n-th free module are dicts {(gen index, algebra basis
    key): coefficient}; each kernel is kept as its weight blocks.
    """
    if kind not in ("u-", "u+"):
        raise ValueError("resolutions are over the one-sided local algebras")
    if n_max < 0:
        raise ValueError(f"resolution degree {n_max} is negative")
    alg = ctx.algebra(kind)
    (unit,) = alg.one()

    # step 0: P_0 = A -> k; kernel = augmentation ideal
    gen_weights = [(0,) * ctx.rank]
    degrees: List[List[RootVec]] = [gen_weights]
    kernel: Blocks = defaultdict(list)
    for key in alg.basis:
        if key != unit:
            kernel[alg.weight_of_key(key)].append({(0, key): ctx.field.one})

    for step in range(1, n_max + 1):
        gen_weights, kernel = _step(alg, gen_weights, kernel, last=step == n_max)
        degrees.append(sorted(gen_weights, key=lambda wt: (sum(wt), wt)))

    res = GradedBetti(degrees)
    _check_strict_grading(res)
    return res


def _step(alg: KernelAlgebra, gen_weights: List[RootVec], kernel: Blocks, last: bool) -> Tuple[List[RootVec], Blocks]:
    """Minimal generators of a kernel K, and below the last degree the
    kernel of the differential they define, one block per weight.

    Returns the weights of the generators, in the order they are found
    (the order of their indices in the next free module), and the next
    kernel by weight (empty at the last degree).
    """
    (unit,) = alg.one()
    one = alg.ctx.field.one
    gens = [(g, alg.weight_of_key(min(alg.gen_column(g, unit)))) for g in alg.generator_keys()] if last else []
    blocks: Dict[RootVec, Eliminator] = defaultdict(Eliminator)
    found: List[RootVec] = []
    syzygies: Blocks = defaultdict(list)
    for wt in sorted(kernel, key=lambda w: (abs(sum(w)), w)):
        vecs = kernel[wt]
        for vec in vecs:
            if _vec_weight(alg, gen_weights, vec) != wt:
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
            if any(key == unit for (_, key) in h):
                raise AssertionError("non-minimal generator: unit coordinate")
            gi = len(found)
            found.append(wt)
            if last:
                block.insert(h)
                continue
            # h is the column 1.h; a column that depends on those before it
            # is a syzygy, its companion the relation
            block.insert(h, {(gi, unit): one})
            for akey, col in _generator_columns(alg, h):
                target = tuple(a + b for a, b in zip(alg.weight_of_key(akey), wt))
                comp = {(gi, akey): one}
                if blocks[target].add(col, comp) is None:
                    syzygies[target].append(comp)
        del blocks[wt]  # no column or image lands at a visited weight
        if last:
            # rad(A) K = sum of g K over the algebra generators g (rad(A) =
            # sum g A, and A K = K); a full block receives no image
            for vec in vecs:
                for gen, gwt in gens:
                    target = tuple(a + b for a, b in zip(wt, gwt))
                    if blocks[target].rank < len(kernel.get(target, ())):
                        blocks[target].add(_apply_gen(alg, gen, vec))
    return found, syzygies


def _generator_columns(alg: KernelAlgebra, h: Vec):
    """The columns a.h of the generator h for every monomial a != 1, in
    basis order: h is split by free-module generator, and each part's
    columns are built by ``_columns``."""
    parts: Dict[int, Vec] = {}
    for (i, bkey), c in h.items():
        parts.setdefault(i, {})[bkey] = c
    by_part = [(i, _columns(alg, part)) for i, part in parts.items()]
    for akey in alg.basis[1:]:
        yield akey, {(i, bk): c for i, cols in by_part for bk, c in cols[akey].items()}


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


def borel_cohomology_dims(ctx: KernelContext, kind: str, n_max: int) -> List[int]:
    """dim H^n(borel, k) for n = 0..n_max via torus-invariant generators,
    for the Borel subalgebra over the one-sided algebra kind ("u+" or "u-")."""
    return borel_dims(ctx, minimal_resolution(ctx, kind, n_max))


def polynomial_hilbert(n_gens: int, half_degree: int) -> int:
    """Dimension count C(m + N - 1, N - 1) for N polynomial generators."""
    from math import comb

    return comb(half_degree + n_gens - 1, n_gens - 1)
