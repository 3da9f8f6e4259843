"""Freeness and projectivity oracles, and the theorem-verification harness.

Two independent routes decide whether a module is projective (equiv.
injective, the algebras being Frobenius):

* Nakayama counting over local algebras: M is free iff
  dim M = dim A * dim(M / rad(A) M), with a rank shortcut through the
  top divided power of each root vector;
* an explicit splitting of a projective cover, over every algebra kind
  (g, b±, u± and the local kinds Am:m, root:s:±).  For algebras with a
  torus the cover is a sum of idempotent summands A e_chi; the kinds
  without torus use copies of A itself, graded by the root lattice and
  shifted to the weight of a module generator.  Either way a splitting
  exists iff a weight-degree-zero splitting exists (the graded pieces
  of an equivariant map are equivariant), which keeps the linear
  systems small.

The harness compares per-root freeness against the cover-splitting
oracle over the big algebras, reports structured records, and never
hides a disagreement: a mismatch is data for a falsification report.
Over the local kinds the two routes cross-validate each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .kernelalg import KernelContext
from .linalg import Eliminator, LinearSystem, Vec, close_span, vec_add_term
from .qmodules import WeightedModule

Weight = Tuple[int, ...]


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class FreenessReport:
    algebra: str
    dim_m: int
    top_dim: int
    verdict: bool
    rank: Optional[int] = None


@dataclass
class SkeletonReport:
    side: str
    roots_in_skeleton: List[Weight]
    per_root: Dict[Tuple, FreenessReport]

    def is_empty(self) -> bool:
        return not self.roots_in_skeleton

    def as_record(self) -> Dict:
        return {
            "side": self.side,
            "skeleton": [list(r) for r in self.roots_in_skeleton],
            "per_root": {
                "+".join(f"{c}a{i+1}" for i, c in enumerate(root) if c): rep.verdict
                for (root, rep) in sorted(
                    ((r, rep) for r, rep in self.per_root.items())
                )
            },
        }


# ---------------------------------------------------------------------------
# local algebra freeness


def _generator_matrices(m: WeightedModule, kind: str):
    """Module matrices of the generators of an algebra kind."""
    return [m.generator_matrix(g) for g in m.ctx.algebra_kind(kind).generators]


def radical_span(m: WeightedModule, kind: str) -> Eliminator:
    """Echelon span of rad(A) M for a local (augmented) algebra kind."""
    mats = _generator_matrices(m, kind)
    elim = Eliminator()
    # rad is the ideal the generators make: close their images under the action
    close_span(elim, (mat.get(i, {}) for i in range(m.dim) for mat in mats), mats)
    return elim


def free_over_local(m: WeightedModule, kind: str) -> FreenessReport:
    """Nakayama freeness test over a local kernel algebra kind."""
    desc = m.ctx.algebra_kind(kind)
    if not desc.is_local:
        raise ValueError(f"{kind} is not in the local family")
    top = m.dim - radical_span(m, kind).rank
    verdict = m.dim == desc.dim * top
    return FreenessReport(kind, m.dim, top, verdict, rank=top if verdict else None)


def free_over_root(m: WeightedModule, pos: int, side: str) -> FreenessReport:
    """Freeness over one root subalgebra, two routes asserted equal.

    pos is the 1-based convex-order position; side '-' tests the F root
    vector, '+' the E one.  The integral-rank shortcut (cap * rank of the
    top divided power equals dim) must agree with the Nakayama count.
    """
    ctx = m.ctx
    kind = f"root:{pos}:{side}"
    rep = free_over_local(m, kind)
    sd = "F" if side == "-" else "E"
    top_power = {}
    for i in range(m.dim):
        img = m.act_divided(sd, pos - 1, ctx.cap - 1, {i: ctx.field.one})
        if img:
            top_power[i] = img
    elim = Eliminator()
    for col in top_power.values():
        elim.add(col)
    shortcut = m.dim == ctx.cap * elim.rank
    if shortcut != rep.verdict:
        raise AssertionError(
            f"rank shortcut and Nakayama disagree over {kind}: "
            f"{shortcut} vs {rep.verdict} on {m.label}"
        )
    return rep


# ---------------------------------------------------------------------------
# projective cover splitting


def module_generators(m: WeightedModule, kind: str) -> List[int]:
    """Basis indices of a small generating set of M over the algebra kind.

    Each candidate is greedy: basis vectors are offered in some order and
    kept when they lie outside the submodule the kept ones generate.  The
    orders are highest weight first (by height in the root lattice, ties
    by index), lowest weight first and basis order.
    Over the one-sided kinds (u±, b±, Am:m, root:s:±) the generators all
    move the weight one way, and offered from the end they move away
    from (highest first for side '-', lowest first for '+'), each weight
    space mu adds dim (M / rad M)_mu vectors: that one set is minimal.
    Over g all three are built and the first of the smallest wins, so no
    set is larger than the basis-order one; there it is a heuristic.
    """
    mats = _generator_matrices(m, kind)
    datum = m.ctx.datum
    height = {w: datum.height(datum.weight_to_root(w)) for w in set(m.weights)}
    basis = range(m.dim)
    highest = sorted(basis, key=lambda i: (-height[m.weights[i]], i))
    lowest = sorted(basis, key=lambda i: (height[m.weights[i]], i))
    side = m.ctx.algebra_kind(kind).side
    if side is not None:
        return _greedy_generators(m, mats, highest if side == "-" else lowest)
    return min((_greedy_generators(m, mats, order) for order in (highest, lowest, basis)), key=len)


def _greedy_generators(m: WeightedModule, mats, order: Iterable[int]) -> List[int]:
    """Basis vectors, in the given order, outside the span of the earlier ones."""
    one = m.ctx.field.one
    elim = Eliminator()
    gens: List[int] = []
    for i in order:
        rank = elim.rank
        close_span(elim, [{i: one}], mats)
        if elim.rank > rank:
            gens.append(i)
    assert elim.rank == m.dim, "generator closure must exhaust the module"
    return gens


def projective_split_test(m: WeightedModule, kind: str, budget: int = 200_000) -> bool:
    """Existence of a splitting of a projective cover over the algebra kind.

    Every kind that ``parse_kind`` accepts is handled; ``AlgebraKind``
    gives the cover keys, the generators and the dimension.  The cover is a
    direct sum of summands indexed by a generating set of weight vectors
    (``module_generators``): idempotent summands A e_chi for kinds with a
    torus, and A itself, graded by the root lattice, for the torus-free
    kinds (u±, Am:m, root:s:±).  A degree-zero A-linear section s with
    pi . s = id is sought by sparse elimination; since A and M are graded,
    any splitting has a degree-zero component that is again a splitting.
    True iff M is projective (equivalently injective: the kernels are
    Frobenius).  Which generating set is used changes only the size of the
    linear system: M is projective iff every surjection from a projective
    onto M splits, so the covers of any two generating sets split together.

    The equations come in one batch per basis vector v_j of M, in basis
    order: pi . s(v_j) = v_j and, for every generator g, g s(v_j) =
    s(g v_j).  ``LinearSystem.solve`` runs after each batch and eliminates
    only its rows.  A batch that makes the equations so far inconsistent
    ends the test with False, since more equations cannot restore a
    solution; the verdict is the one the whole system gives, and a
    negative test usually stops before its last batch.

    The verdict is kept on the module per kind; the budget is checked
    before that, and a call that raises keeps nothing.
    """
    desc = m.ctx.algebra_kind(kind)
    if desc.dim * m.dim > budget:
        raise BudgetExceeded(
            f"split test over {kind}: {desc.dim} x {m.dim} exceeds budget {budget}"
        )
    verdict = m.split_verdicts.get(kind)
    if verdict is None:
        verdict = _split_exists(m, kind)
        m.split_verdicts[kind] = verdict
    return verdict


def _split_exists(m: WeightedModule, kind: str) -> bool:
    ctx = m.ctx
    desc = ctx.algebra_kind(kind)
    gens = module_generators(m, kind)
    # summand t is A e_lam at lam = the weight of generator t (A itself without
    # torus); its key F^{(f)} E^{(e)} has degree lam + wt e - wt f
    by_degree: Dict[Weight, List[Tuple[int, Tuple]]] = {}
    for t, i in enumerate(gens):
        lam = m.weights[i]
        for shift, keys in ctx.cover_keys(kind):
            degree = tuple(a + b for a, b in zip(lam, shift))
            by_degree.setdefault(degree, []).extend((t, key) for key in keys)
    # quick necessary check: enough cover keys in every degree
    if any(mu not in by_degree for mu in m.weights):
        return False

    pi_cache: Dict[Tuple[int, Tuple], Vec] = {}

    def pi(t: int, key) -> Vec:
        hit = pi_cache.get((t, key))
        if hit is None:
            f, e = key
            hit = m.act_monomial((f, (0,) * ctx.rank, e), {gens[t]: ctx.field.one})
            pi_cache[(t, key)] = hit
        return hit

    # gen on F^{(f)} E^{(e)} e_lam in summand t, torus evaluated
    columns: Dict[Tuple, Vec] = {}

    def column(t: int, gen, key) -> Vec:
        hit = columns.get((t, gen, key))
        if hit is None:
            terms = ctx.pbw_terms(kind, gen, key[0], key[1], m.weights[gens[t]])
            hit = columns[(t, gen, key)] = {(f2, e2): c for (f2, _, e2), c in terms.items()}
        return hit

    # The unknown s(v_j)'s coordinate at cover key (t, key) is keyed
    # (last - j, t, key): the solver pivots on the least key, so elimination
    # starts at the last basis vector, which keeps fill-in low.  One batch of
    # rows per source v_j; the first inconsistent batch decides.
    last = m.dim - 1
    one, zero = ctx.field.one, ctx.field.zero
    mats = [(gen, m.generator_matrix(gen)) for gen in desc.generators]
    system = LinearSystem()
    for j, mu in enumerate(m.weights):
        support = by_degree[mu]
        # pi . s = id on v_j
        rows: Dict[int, Vec] = {}
        for (t, key) in support:
            for row, c in pi(t, key).items():
                rows.setdefault(row, {})[(last - j, t, key)] = c
        for row in range(m.dim):
            system.add(rows.get(row, {}), one if row == j else zero)
        # equivariance on v_j for each generator: g s(v_j) - s(g v_j) = 0 read
        # off in each cover coordinate (t, key2); the cover coefficients enter
        # as they are, the module column negated once
        for gen, mat in mats:
            eqs: Dict[Tuple, Vec] = {}
            for j2, c in mat.get(j, {}).items():
                # s(v_{j2}) contributes -c on its unknown at (t, key2)
                neg = -c
                for (t, key2) in by_degree[m.weights[j2]]:
                    eqs.setdefault((t, key2), {})[(last - j2, t, key2)] = neg
            for (t, key) in support:
                for key2, c in column(t, gen, key).items():
                    vec_add_term(eqs.setdefault((t, key2), {}), (last - j, t, key), c)
            for coeffs in eqs.values():
                system.add(coeffs, zero)
        if system.solve() is None:
            return False
    return True


# ---------------------------------------------------------------------------
# theorem-level verifications


def support_skeleton(m: WeightedModule, side: str) -> SkeletonReport:
    """Roots whose subalgebra fails freeness: the rank-variety shadow."""
    ctx = m.ctx
    per_root = {}
    skeleton = []
    for pos in range(1, ctx.n + 1):
        root = ctx.order.gammas[pos - 1]
        rep = free_over_root(m, pos, "-" if side == "minus" else "+")
        per_root[root] = rep
        if not rep.verdict:
            skeleton.append(root)
    return SkeletonReport(side, sorted(skeleton), per_root)


def verify_root_criterion(m: WeightedModule, budget: int = 200_000) -> Dict:
    """Per-root freeness on both sides against the big-algebra oracle."""
    ctx = m.ctx
    all_free = True
    per_root: Dict[str, bool] = {}
    for side in ("-", "+"):
        for pos in range(1, ctx.n + 1):
            rep = free_over_root(m, pos, side)
            name = _root_name(ctx, pos, side)
            per_root[name] = rep.verdict
            all_free = all_free and rep.verdict
    oracle = projective_split_test(m, "g", budget)
    if oracle and not all_free:
        # unconditional direction: injective over the big algebra forces
        # freeness over every root subalgebra
        raise AssertionError(f"{m.label}: oracle injective but some root fails")
    return {
        "suite": "rootcrit",
        "spec": m.label,
        "per_root": per_root,
        "roots_free": all_free,
        "oracle": oracle,
        "agree": all_free == oracle,
    }


def verify_borel_criterion(m: WeightedModule, budget: int = 200_000) -> Dict:
    """Positive-root freeness against the unipotent split oracle.

    Over a torus-graded module the Borel oracle is the same question:
    the torus group algebra is semisimple (ell is invertible in the
    field), so M is projective over b- iff it is over u-.  The two split
    tests also build the same linear system: the summands A e_chi of b-
    carry the keys F^{(f)} of u-, the equivariance generators are the F_j
    in both, and a weight-degree-zero section commutes with K by
    construction.  Only the budget's algebra dimension differs, so only
    the u- test runs.
    """
    ctx = m.ctx
    per_root = {}
    all_free = True
    for pos in range(1, ctx.n + 1):
        rep = free_over_root(m, pos, "-")
        per_root[_root_name(ctx, pos, "-")] = rep.verdict
        all_free = all_free and rep.verdict
    oracle = projective_split_test(m, "u-", budget)
    return {
        "suite": "borel",
        "spec": m.label,
        "per_root": per_root,
        "roots_free": all_free,
        "oracle": oracle,
        "agree": all_free == oracle,
    }


def verify_reduction_borel(m: WeightedModule, budget: int = 200_000) -> Dict:
    """Pair of Borel verdicts against the big-algebra verdict."""
    minus = projective_split_test(m, "u-", budget)
    plus = projective_split_test(m, "u+", budget)
    oracle = projective_split_test(m, "g", budget)
    return {
        "suite": "reduction",
        "spec": m.label,
        "borel_minus": minus,
        "borel_plus": plus,
        "oracle": oracle,
        "agree": (minus and plus) == oracle,
    }


def highest_root_test(m: WeightedModule, budget: int = 200_000) -> Dict:
    """Single-root detection at the highest root, plus skeleton closure.

    Only meaningful for modules restricting from the full quantized
    algebra; the skeleton closure property needs that lift.
    """
    ctx = m.ctx
    assert "big" in m.flags, "highest-root test needs a full lift"
    h = ctx.datum.highest_root
    skel = support_skeleton(m, "minus")
    rep = skel.per_root[h]
    oracle = projective_split_test(m, "g", budget)
    closure_ok = skel.is_empty() or (h in skel.roots_in_skeleton)
    return {
        "suite": "highest",
        "spec": m.label,
        "highest_root_free": rep.verdict,
        "oracle": oracle,
        "skeleton": [list(r) for r in skel.roots_in_skeleton],
        "skeleton_contains_highest": closure_ok,
        "agree": (rep.verdict == oracle) and closure_ok,
    }


def _root_name(ctx: KernelContext, pos: int, side: str) -> str:
    root = ctx.order.gammas[pos - 1]
    name = "+".join(f"{c}a{i+1}" for i, c in enumerate(root) if c)
    return ("f:" if side == "-" else "e:") + name


def record_to_line(record: Dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
