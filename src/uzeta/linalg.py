"""Sparse exact linear algebra over arbitrary exact coefficient fields.

Coefficients are duck-typed: they must support +, -, *, /, unary -,
``1 / x``, ``bool`` (False iff zero) and ==.  A pivot is inverted once and
its row scaled by multiplication; elimination subtracts multiples of it
(``vec_isub_scaled``) instead of adding negated ones.  Vectors are dicts
mapping an index (any hashable, orderable key) to a nonzero coefficient;
matrices are dicts mapping a column key to a column vector.  Everything
is deterministic: pivots are chosen by key order, never by hash order.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

Vec = Dict[Hashable, Any]
Mat = Dict[Hashable, Vec]


def vec_add_term(u: Vec, k: Hashable, c) -> None:
    """u[k] += c in place, dropping the entry when it cancels."""
    y = u.get(k)
    if y is not None:
        c = y + c
    if c:
        u[k] = c
    else:
        u.pop(k, None)


def vec_iadd_scaled(u: Vec, v: Vec, c) -> Vec:
    """u += c*v in place (c may be zero); returns u."""
    if not c:
        return u
    for k, x in v.items():
        y = u.get(k)
        if y is None:
            u[k] = c * x
        else:
            y = y + c * x
            if y:
                u[k] = y
            else:
                del u[k]
    return u


def vec_isub_scaled(u: Vec, v: Vec, c) -> Vec:
    """u -= c*v in place (c nonzero); returns u.

    Entries already in u are subtracted; only fill-in needs -c, which is
    formed once.
    """
    neg = None
    for k, x in v.items():
        y = u.get(k)
        if y is None:
            if neg is None:
                neg = -c
            u[k] = neg * x
        else:
            y = y - c * x
            if y:
                u[k] = y
            else:
                del u[k]
    return u


def mat_apply(m: Mat, v: Vec) -> Vec:
    """Image of vector v under the column-indexed matrix m."""
    out: Vec = {}
    for j, c in v.items():
        col = m.get(j)
        if col:
            vec_iadd_scaled(out, col, c)
    return out


class Eliminator:
    """Incremental row echelon structure for span/rank/membership tests.

    Rows are reduced against stored pivot rows on insertion; each stored
    row is normalized so its pivot coefficient is one.  Pivot choice is
    the minimal key present in the reduced row, which keeps the whole
    computation deterministic.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Vec) -> Vec:
        row = dict(row)
        # Repeatedly kill the smallest reducible key to bound fill-in.
        while row:
            hit = [k for k in row if k in self.pivots]
            if not hit:
                break
            k = min(hit)
            vec_isub_scaled(row, self.pivots[k], row[k])
        return row

    def add(self, row: Vec) -> Optional[Hashable]:
        """Insert a row; returns its pivot key, or None if dependent."""
        red = self.reduce(row)
        if not red:
            return None
        p = min(red.keys())
        inv = 1 / red[p]
        red = {k: x * inv for k, x in red.items()}
        # Keep stored rows fully reduced: eliminate p from older rows.
        for q, prow in self.pivots.items():
            if p in prow:
                vec_isub_scaled(prow, red, prow[p])
        self.pivots[p] = red
        return p

    def contains(self, row: Vec) -> bool:
        return not self.reduce(row)


class SpanSolver:
    """Express vectors in terms of a generating family, tracking coordinates.

    Feed generators with ``add(key, vec)``; afterwards ``solve(target)``
    returns {key: coeff} with sum(coeff * vec) == target, or None.
    Dependent generators never enter the stored basis.  ``one`` is the
    unit of the coefficient field, the coordinate of a new generator.

    Invariant: every stored pivot row equals the combination of original
    generators recorded in ``_coords`` under the same pivot key.
    """

    def __init__(self, one):
        self.one = one
        self.pivots: Dict[Hashable, Vec] = {}
        self._coords: Dict[Hashable, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce_tracked(self, vec: Vec, comb: Vec) -> Tuple[Vec, Vec]:
        row = dict(vec)
        while row:
            hit = [k for k in row if k in self.pivots]
            if not hit:
                break
            k = min(hit)
            c = row[k]
            vec_isub_scaled(row, self.pivots[k], c)
            vec_isub_scaled(comb, self._coords[k], c)
        return row, comb

    def _insert(self, row: Vec, comb: Vec) -> None:
        """Store a reduced nonzero row with its coordinates."""
        p = min(row.keys())
        inv = 1 / row[p]
        row = {k: x * inv for k, x in row.items()}
        comb = {k: x * inv for k, x in comb.items()}
        for q in self.pivots:
            prow = self.pivots[q]
            if p in prow:
                c = prow[p]
                vec_isub_scaled(prow, row, c)
                vec_isub_scaled(self._coords[q], comb, c)
        self.pivots[p] = row
        self._coords[p] = comb

    def add(self, key: Hashable, vec: Vec) -> bool:
        """Returns True if vec enlarged the span."""
        row, comb = self._reduce_tracked(vec, {key: self.one})
        if not row:
            return False
        self._insert(row, comb)
        return True

    def solve(self, target: Vec) -> Optional[Vec]:
        row, comb = self._reduce_tracked(target, {})
        if row:
            return None
        return {k: -x for k, x in comb.items()}


class LinearSystem:
    """Solve a sparse linear system by forward elimination + back substitution.

    Unknown keys must be orderable.  ``solve`` returns one solution with
    all free unknowns set to zero, or None if inconsistent.
    """

    def __init__(self):
        self.rows: List[Tuple[Vec, Any]] = []

    def add(self, coeffs: Vec, rhs) -> None:
        if coeffs or rhs:
            self.rows.append((dict(coeffs), rhs))

    def solve(self, zero) -> Optional[Vec]:
        pivots: Dict[Hashable, Tuple[Vec, Any]] = {}
        order: List[Hashable] = []
        for row, rhs in self.rows:
            row = dict(row)
            while row:
                hit = [k for k in row if k in pivots]
                if not hit:
                    break
                k = min(hit)
                prow, prhs = pivots[k]
                c = row[k]
                vec_isub_scaled(row, prow, c)
                rhs = rhs - c * prhs
            if not row:
                if rhs:
                    return None
                continue
            p = min(row.keys())
            inv = 1 / row[p]
            row = {k: x * inv for k, x in row.items()}
            rhs = rhs * inv
            pivots[p] = (row, rhs)
            order.append(p)
        sol: Vec = {}
        for p in reversed(order):
            prow, prhs = pivots[p]
            acc = prhs
            for k, c in prow.items():
                if k != p and k in sol:
                    acc = acc - c * sol[k]
            if acc:
                sol[p] = acc
        return sol


def kernel_basis(columns: List[Tuple[Hashable, Vec]], one) -> List[Vec]:
    """Basis of {c : sum_j c_j * col_j = 0} for an ordered column family.

    One relation per column that depends on the columns before it, in
    column order; it has coefficient ``one`` on that column.  Each column
    is reduced once.
    """
    solver = SpanSolver(one)
    out: List[Vec] = []
    for key, col in columns:
        row, comb = solver._reduce_tracked(col, {})
        comb[key] = one
        if row:
            solver._insert(row, comb)
        else:
            out.append(comb)
    return out


def rank_of(vectors: Iterable[Vec]) -> int:
    e = Eliminator()
    for v in vectors:
        e.add(v)
    return e.rank
