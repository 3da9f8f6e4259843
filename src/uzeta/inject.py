"""Freeness and projectivity oracles, and the theorem-verification harness.

Over a local algebra A (u±, Am:m, root:s:±; each is Frobenius, so
projective and injective modules agree) two counts decide whether M is
free:

* the Nakayama (top) count: M is free iff dim M = dim A * dim(M / rad(A) M),
  with a rank shortcut through the top divided power of each root vector;
* the socle count: M is free iff dim M = dim A * dim soc M, with soc M the
  joint kernel of the generator matrices.  M embeds in its injective hull
  A^{dim soc M}, and the dimensions agree iff M is that hull.

Over g the oracle is an explicit splitting of a projective cover.  The
cover is a sum of idempotent summands A e_chi for algebras with a torus,
and of copies of A itself, graded by the root lattice and shifted to the
weight of a module generator, for the kinds without torus.  Either way a
splitting exists iff a weight-degree-zero splitting exists (the graded
pieces of an equivariant map are equivariant), which keeps the linear
systems small.  The system has one block of unknowns per summand, so the
generators are chosen few (``module_generators``): over g a single basis
vector is sought before any weight-ordered greedy set, since whether one
vector generates M is a cheap closure (the "spin" test of the Meat-Axe).
The equations are few as well.  A section must commute with the F-type
generators at every basis vector, but over g, by the triangular
decomposition u = u- u0 u+, with the E-type ones only on the support of
N = u+ . span(G), for G a generating set of M over u- (the lemma of
``_split_exists``); the first source keeps every equation, so a test
that fails there stops as early as before.  The split test handles every
kind and is the reference the counts are tested against.  Its verdicts
live on the context, keyed on the kind and the module's exact content
(weights and action matrices), so modules that differ only in label or
lift share one run.

The harness compares per-root freeness (the top count over each root
subalgebra) with the oracle of a bigger algebra: the split test over g,
the socle count over u±.  It reports structured records and never hides
a disagreement: a mismatch is data for a falsification report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cli
from .kernelalg import DEFAULT_BUDGET
from .linalg import Eliminator, LinearSystem, Vec, close_span, vec_add_term
from .qmodules import WeightedModule, verma_character_test
from .rootdata import RootDatum

Weight = Tuple[int, ...]


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# local algebra freeness


def _generator_matrices(m: WeightedModule, kind: str):
    """Module matrices of the generators of an algebra kind."""
    return [m.generator_matrix(g) for g in m.ctx.algebra_kind(kind).generators]


def radical_span(m: WeightedModule, kind: str) -> Eliminator:
    """Echelon span of rad(A) M for a local (augmented) algebra kind.

    rad(A) = sum g A over the generators g, so rad(A) M is spanned by the
    columns of the generator matrices.
    """
    elim = Eliminator()
    for mat in _generator_matrices(m, kind):
        for col in mat.values():
            elim.add(col)
    return elim


def free_over_local(m: WeightedModule, kind: str) -> bool:
    """Nakayama freeness test over a local kernel algebra kind."""
    desc = m.ctx.algebra_kind(kind)
    if desc.torus:
        raise ValueError(f"{kind} is not in the local family")
    top = m.dim - radical_span(m, kind).rank
    return m.dim == desc.dim * top


def free_over_root(m: WeightedModule, pos: int, side: str) -> bool:
    """Freeness over one root subalgebra, two routes asserted equal.

    pos is the 1-based convex-order position; side '-' tests the F root
    vector, '+' the E one.  The integral-rank shortcut (cap * rank of the
    top divided power equals dim) must agree with the Nakayama count.
    """
    ctx = m.ctx
    kind = f"root:{pos}:{side}"
    verdict = free_over_local(m, kind)
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
    if shortcut != verdict:
        raise AssertionError(
            f"rank shortcut and Nakayama disagree over {kind}: "
            f"{shortcut} vs {verdict} on {m.label}"
        )
    return verdict


# ---------------------------------------------------------------------------
# projective cover splitting


def module_generators(m: WeightedModule, kind: str) -> List[int]:
    """Basis indices of a small generating set of M over the algebra kind.

    A greedy set offers basis vectors in some order and keeps each one
    that lies outside the submodule the kept ones generate.  The orders
    are highest weight first (by height in the root lattice, ties by
    index), lowest weight first and basis order.
    Over the one-sided kinds (u±, b±, Am:m, root:s:±) the generators all
    move the weight one way, and offered from the end they move away
    from (highest first for side '-', lowest first for '+'), each weight
    space mu adds dim (M / rad M)_mu vectors: that one set is minimal.
    Over g single basis vectors are probed first (``_single_generator``):
    the first vector of the highest-first order, then that of the
    lowest-first order (each greedy set is that one vector exactly when
    it generates M), then every vector from the middle of the weight range
    outward, since a cyclic module such as a tensor square is often
    generated by a middle weight vector alone.  Only when no basis vector
    generates M do the three greedy sets run, and the first of the
    smallest wins, so no set is larger than the basis-order one.  A single
    vector is the fewest there are, so the cover has one summand exactly
    when some basis vector generates M.
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
    # a greedy set is one vector exactly when its first vector generates M
    middle = max(height.values(), default=0) + min(height.values(), default=0)
    outward = sorted(basis, key=lambda i: (abs(2 * height[m.weights[i]] - middle), i))
    single = _single_generator(m, mats, highest[:1] + lowest[:1] + outward)
    if single is not None:
        return [single]
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


def _single_generator(m: WeightedModule, mats, order: Iterable[int]) -> Optional[int]:
    """The first basis vector, in the given order, that generates M alone,
    or None.  A vector inside the submodule of an earlier failed probe
    generates no more than that proper submodule, so it is not probed."""
    one = m.ctx.field.one
    failed: List[Eliminator] = []
    for i in order:
        vec = {i: one}
        if any(sub.contains(vec) for sub in failed):
            continue
        sub = Eliminator()
        close_span(sub, [vec], mats)
        if sub.rank == m.dim:
            return i
        failed.append(sub)
    return None


def projective(m: WeightedModule, kind: str) -> bool:
    """Whether M is projective (equivalently injective) over a local
    algebra kind: the socle count (see the module docstring)."""
    desc = m.ctx.algebra_kind(kind)
    if desc.torus:
        raise ValueError(f"{kind} is not in the local family")
    return m.dim == desc.dim * m.socle_dim(kind)


def projective_split_test(m: WeightedModule, kind: str, budget: int = DEFAULT_BUDGET) -> bool:
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
    order: pi . s(v_j) = v_j and, for every F-type generator x, x s(v_j) =
    s(x v_j).  For an E-type generator X (E_j, and E^{(ell)} at r = 1)
    X s(v_j) = s(X v_j) enters at every v_j over the one-sided kinds, and
    over g at v_0 and at the v_j in the support S of N = u+ . span(G),
    with G = ``module_generators(m, "u-")``; ``_split_exists`` proves
    that these equations have the solutions of the full set.
    ``LinearSystem.solve`` runs after each batch and eliminates only its
    rows.  A batch that makes the equations so far inconsistent ends the
    test with False, since more equations cannot restore a solution; the
    verdict is the one the whole system gives, and a negative test usually
    stops before its last batch.

    The verdict is kept once per context, in ``ctx.split_verdicts``, keyed
    on the kind and the module's ``content_key``: a second module with the
    same weights and actions, such as Z(lambda) and L(lambda) at the
    Steinberg weight, reads it without a second run.  The budget is
    checked before the lookup, and a call that raises keeps nothing.
    """
    ctx = m.ctx
    desc = ctx.algebra_kind(kind)
    if desc.dim * m.dim > budget:
        raise BudgetExceeded(
            f"split test over {kind}: {desc.dim} x {m.dim} exceeds budget {budget}"
        )
    key = (kind, m.content_key())
    verdict = ctx.split_verdicts.get(key)
    if verdict is None:
        verdict = ctx.split_verdicts[key] = _split_exists(m, kind)
    return verdict


def _split_exists(m: WeightedModule, kind: str) -> bool:
    """The split test itself, with no budget and no memo.  It reads the
    module only through ``m.ctx``, ``m.weights`` and ``m.actions`` (also via
    ``generator_matrix``, the ``act_*`` methods and ``module_generators``),
    which is what makes the content key of ``projective_split_test`` exact;
    ``lifts`` and ``label`` never enter.

    Source v_0 gets every equation.  Once they are consistent, over g the
    E-type equations enter only at the sources in S, the support of
    N = u+ . span(G) with G a generating set of M over u-, and the E-type
    cover columns are built only at the weights of S.  Lemma: let s be
    weight-preserving, with pi . s = id, F-equivariant on all of M and
    E-equivariant on N; then s is u-linear, so the reduced equations have
    the solutions of the full set.
      * s is linear over u- u0: the F-type generators generate u-, and the
        torus acts on M and on the cover through the weights.
      * e s(g) = s(e g) for every e in u+ and g in N: by induction on a
        word in the E-type generators, since N is u+-stable.
      * For an E-type generator X and x in u-, X x = sum x_k h_k e_k with
        x_k in u-, h_k in u0 and e_k in u+ (u = u- u0 u+), so
        X s(x g) - s(X x g) = sum x_k h_k (e_k s(g) - s(e_k g)) = 0 for
        g in G, which lies in N.
      * Every element of M is a sum of terms x g, since M = u- . G.
    The proof needs no commutation formula beyond u = u- u0 u+.  With them
    G alone would do: E_j x = x E_j + (terms in u- u0), so E_j-equivariance
    spreads from G to M, and the E^{(a)}, a < ell, that E^{(ell)} F^{(n)}
    brings at r = 1 are E^a / [a]!.  v_0 keeps every equation all the
    same, so a test that fails at its first batch stops there."""
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

    mats = [(gen, m.generator_matrix(gen), gen[0][0] == "E") for gen in desc.generators]

    def cover_block(mu: Weight, raising: bool) -> List[Tuple[int, Tuple, Vec, List[Optional[Vec]]]]:
        """Each cover key (t, key) of degree mu with pi(F^{(f)} E^{(e)} e_lam)
        in M and, per generator, its action on that key in summand t (the
        torus evaluated); None for an E-type generator unless raising."""
        block = []
        for (t, key) in by_degree[mu]:
            f, e = key
            lam = m.weights[gens[t]]
            image = m.act_monomial((f, (0,) * ctx.rank, e), {gens[t]: ctx.field.one})
            columns = []
            for gen, _, is_e in mats:
                if is_e and not raising:
                    columns.append(None)
                    continue
                terms = ctx.pbw_terms(kind, gen, f, e, lam)
                columns.append({(f2, e2): c for (f2, _, e2), c in terms.items()})
            block.append((t, key, image, columns))
        return block

    # Only the basis vectors of weight mu read the cover keys of degree mu, so
    # a weight's block is built at its first basis vector and dropped after
    # its last.  The unknown s(v_j)'s coordinate at cover key (t, key) is keyed
    # (last - j, t, key): the solver pivots on the least key, so elimination
    # starts at the last basis vector, which keeps fill-in low.  One batch of
    # rows per source v_j; the first inconsistent batch decides.  The sources
    # in ``raised`` get the E-type equations: every one until v_0 is solved.
    last = m.dim - 1
    final = {mu: j for j, mu in enumerate(m.weights)}
    blocks: Dict[Weight, List] = {}
    one, zero = ctx.field.one, ctx.field.zero
    system = LinearSystem()
    raised, raised_weights = range(m.dim), set(m.weights)
    for j, mu in enumerate(m.weights):
        block = blocks.get(mu)
        if block is None:
            block = blocks[mu] = cover_block(mu, mu in raised_weights)
        if final[mu] == j:
            del blocks[mu]
        # pi . s = id on v_j
        rows: Dict[int, Vec] = {}
        for t, key, image, _ in block:
            for row, c in image.items():
                rows.setdefault(row, {})[(last - j, t, key)] = c
        for row in range(m.dim):
            system.add(rows.get(row, {}), one if row == j else zero)
        # equivariance on v_j for each generator: g s(v_j) - s(g v_j) = 0 read
        # off in each cover coordinate (t, key2); the cover coefficients enter
        # as they are, the module column negated once
        for g, (gen, mat, is_e) in enumerate(mats):
            if is_e and j not in raised:
                continue
            eqs: Dict[Tuple, Vec] = {}
            for j2, c in mat.get(j, {}).items():
                # s(v_{j2}) contributes -c on its unknown at (t, key2)
                neg = -c
                for (t, key2) in by_degree[m.weights[j2]]:
                    eqs.setdefault((t, key2), {})[(last - j2, t, key2)] = neg
            for t, key, _, columns in block:
                for key2, c in columns[g].items():
                    vec_add_term(eqs.setdefault((t, key2), {}), (last - j, t, key), c)
            for coeffs in eqs.values():
                system.add(coeffs, zero)
        if not system.solve():
            return False
        if j == 0 and desc.torus and desc.side is None:
            raised = _raised_support(m)
            raised_weights = {m.weights[i] for i in raised}
    return True


def _raised_support(m: WeightedModule) -> set:
    """The basis indices in the support of N = u+ . span(G), G a generating
    set of M over u-: the union of the supports of any basis of N."""
    one = m.ctx.field.one
    elim = Eliminator()
    close_span(elim, [{i: one} for i in module_generators(m, "u-")], _generator_matrices(m, "u+"))
    return {k for row in elim.pivots.values() for k in row}


# ---------------------------------------------------------------------------
# theorem-level verifications


def root_freeness(m: WeightedModule, side: str) -> Dict[Weight, bool]:
    """Freeness over the root subalgebra of each positive root, in convex
    order; side '-' tests the F root vectors, '+' the E ones.  The roots
    that fail form the support skeleton, the rank-variety shadow."""
    return {root: free_over_root(m, pos, side) for pos, root in enumerate(m.ctx.order.gammas, 1)}


def _per_root(m: WeightedModule, sides: Sequence[str]) -> Tuple[Dict[str, bool], bool]:
    """Freeness over each root subalgebra, side by side, by root name
    ("f:" or "e:" and ``root_label``); and whether every one is free."""
    per_root = {
        ("f:" if side == "-" else "e:") + root_label(root): free
        for side in sides
        for root, free in root_freeness(m, side).items()
    }
    return per_root, all(per_root.values())


def verify_root_criterion(m: WeightedModule, budget: int = DEFAULT_BUDGET) -> Dict:
    """Per-root freeness on both sides against the big-algebra oracle."""
    per_root, all_free = _per_root(m, ("-", "+"))
    oracle = projective_split_test(m, "g", budget)
    if oracle and not all_free:
        # unconditional direction: injective over the big algebra forces
        # freeness over every root subalgebra
        raise AssertionError(f"{m.label}: oracle injective but some root fails")
    return {
        "per_root": per_root,
        "roots_free": all_free,
        "oracle": oracle,
        "agree": all_free == oracle,
    }


def verify_borel_criterion(m: WeightedModule) -> Dict:
    """Positive-root freeness against the socle count over u-.

    Over a torus-graded module the Borel oracle is the same question:
    the torus group algebra is semisimple (ell is invertible in the
    field), so M is projective over b- iff it is over u-.  Over u-, a
    local algebra, M is projective iff dim M = dim u- * dim soc M, with
    soc M the joint kernel of the F generators; that count is the oracle.
    The per-root verdicts count tops over root subalgebras, so the two
    sides compute different things.
    """
    per_root, all_free = _per_root(m, ("-",))
    oracle = projective(m, "u-")
    return {
        "per_root": per_root,
        "roots_free": all_free,
        "oracle": oracle,
        "agree": all_free == oracle,
    }


def verify_reduction_borel(m: WeightedModule, budget: int = DEFAULT_BUDGET) -> Dict:
    """Pair of Borel verdicts against the big-algebra verdict."""
    minus = projective(m, "u-")
    plus = projective(m, "u+")
    oracle = projective_split_test(m, "g", budget)
    return {
        "borel_minus": minus,
        "borel_plus": plus,
        "oracle": oracle,
        "agree": (minus and plus) == oracle,
    }


def skeleton_shape_ok(datum: RootDatum, minus: Sequence[Weight], plus: Sequence[Weight]) -> bool:
    """Whether the skeletons of a lifting module, on the ``-`` and ``+``
    sides, have the shape its G-stable support variety forces: equal on
    both sides, a union of whole root-length classes and, unless empty,
    holding every long root (so the highest root).  Root vectors of one
    length are conjugate under N_G(T), and the closure of the short-root
    orbit contains the long-root one."""
    length = {r: datum.pair_roots(r, r) for r in datum.positive_roots}
    lengths = {length[r] for r in minus}
    whole = set(minus) == {r for r, n in length.items() if n in lengths}
    return set(minus) == set(plus) and whole and (not minus or max(length.values()) in lengths)


def highest_root_test(m: WeightedModule, budget: int = DEFAULT_BUDGET) -> Dict:
    """Single-root detection at the highest root, plus the skeleton shape.

    Only meaningful for modules restricting from the full quantized
    algebra; the shape of the skeleton (``skeleton_shape_ok``) needs that
    lift.
    """
    assert m.lifts, "highest-root test needs a full lift"
    h = m.ctx.datum.highest_root
    free = root_freeness(m, "-")
    skeleton = sorted(root for root, ok in free.items() if not ok)
    plus = [root for root, ok in root_freeness(m, "+").items() if not ok]
    oracle = projective_split_test(m, "g", budget)
    shape_ok = skeleton_shape_ok(m.ctx.datum, skeleton, plus)
    return {
        "highest_root_free": free[h],
        "oracle": oracle,
        "skeleton": [list(r) for r in skeleton],
        "skeleton_contains_highest": shape_ok,
        "agree": (free[h] == oracle) and shape_ok,
    }


def verify_highest_root(m: WeightedModule, budget: int = DEFAULT_BUDGET) -> Dict:
    """``highest_root_test``, or a benign skip for a module without a full lift."""
    if not m.lifts:
        return {"skipped": True, "reason": "no full lift", "agree": True}
    return highest_root_test(m, budget)


def verify_filtration(m: WeightedModule) -> Dict:
    """Projectivity over u+ against the Verma-filtration character test."""
    borel_plus = projective(m, "u+")
    passes = verma_character_test(m)
    return {"oracle": borel_plus, "character_test": passes, "agree": (not borel_plus) or passes}


def root_label(root: Tuple[int, ...]) -> str:
    """A root in simple-root coordinates as text, e.g. "1a1+1a2"."""
    return "+".join(f"{c}a{i+1}" for i, c in enumerate(root) if c)


# the verify report's line format, for callers that hold records of this module
record_to_line = cli.record_to_line
