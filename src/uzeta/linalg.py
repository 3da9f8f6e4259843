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

import functools
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

Vec = Dict[Hashable, Any]
Mat = Dict[Hashable, Vec]


def memoized(method):
    """Memoize a method per instance, keyed on its (hashable) arguments.

    The first call stores ``functools.cache(method.__get__(self))`` in the
    instance's ``__dict__``, which later lookups reach before the class:
    they go straight to the C-level cache, a class-level patch of the
    method no longer reaches them, and the memo dies with its instance.
    A call that raises caches nothing.
    """

    @functools.wraps(method)
    def first_call(self, *args, **kwargs):
        bound = self.__dict__[method.__name__] = functools.cache(method.__get__(self))
        return bound(*args, **kwargs)

    return first_call


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
    """Incremental sparse reduced row echelon form: the one elimination engine.

    ``eliminate`` reduces a row against the stored pivot rows; ``insert``
    stores a reduced nonzero row under its minimal key, scaled so that
    pivot coefficient is one, and eliminates the new pivot from every
    stored row that holds it.  Stored rows stay fully reduced, so
    ``pivots`` is the canonical reduced echelon basis of the span; pivots
    are chosen by key order, never by hash order.  A row may carry a
    companion vector that undergoes the same row operations: the
    coordinates of the row in terms of the generators (``solve``,
    ``kernel_basis``) or its right-hand side (``LinearSystem``).

    ``holders`` indexes the stored rows by the non-pivot keys they hold:
    a key's list names every stored row that holds it, and may name rows
    whose entry has since cancelled (each holder is checked), so that
    back-substitution visits only the rows that hold the new pivot
    instead of scanning them all.  A key leaves the index when it becomes
    a pivot, since reduced rows never bring a pivot key back.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Vec] = {}
        self.companions: Dict[Hashable, Vec] = {}
        self.holders: Dict[Hashable, List[Hashable]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def eliminate(self, row: Vec, comp: Optional[Vec] = None) -> Vec:
        """Reduce row in place (and comp along with it); returns row.

        A stored row holds no pivot but its own, so subtracting it leaves
        the other pivot coefficients of row as they are: one pass clears
        them all.
        """
        for k in [k for k in row if k in self.pivots]:
            c = row[k]
            vec_isub_scaled(row, self.pivots[k], c)
            if comp is not None:
                vec_isub_scaled(comp, self.companions[k], c)
        return row

    def insert(self, row: Vec, comp: Optional[Vec] = None) -> Hashable:
        """Store a reduced nonzero row (with its companion); returns its pivot."""
        p = min(row)
        inv = 1 / row[p]
        row = {k: x * inv for k, x in row.items()}
        if comp is not None:
            comp = {k: x * inv for k, x in comp.items()}
            self.companions[p] = comp
        holders = self.holders
        back = holders.pop(p, ())
        for k in row:
            if k != p:
                holders.setdefault(k, []).append(p)
        for q in back:
            prow = self.pivots[q]
            c = prow.get(p)
            if c is None:  # cancelled since it was listed, or listed twice
                continue
            for k in row:
                if k not in prow:
                    holders[k].append(q)  # fill-in; p itself is in prow
            vec_isub_scaled(prow, row, c)
            if comp is not None:
                vec_isub_scaled(self.companions[q], comp, c)
        self.pivots[p] = row
        return p

    def reduce(self, row: Vec) -> Vec:
        return self.eliminate(dict(row))

    def add(self, row: Vec, comp: Optional[Vec] = None) -> Optional[Hashable]:
        """Insert a row, reduced along with its companion; returns its pivot
        key, or None if dependent, and then comp holds the relation."""
        red = self.eliminate(dict(row), comp)
        return self.insert(red, comp) if red else None

    def solve(self, target: Vec) -> Optional[Vec]:
        """Coordinates of target over the companions, or None outside the span.

        Every stored row must carry a companion: the combination of
        generators (such as ``{key: one}`` at ``add``) that it equals.
        """
        comb: Vec = {}
        if self.eliminate(dict(target), comb):
            return None
        return {k: -x for k, x in comb.items()}

    def contains(self, row: Vec) -> bool:
        return not self.reduce(row)


def close_span(elim: Eliminator, seeds: Iterable[Vec], mats: Sequence[Mat]) -> None:
    """Grow elim by the seeds and their images under the matrices until closed.

    Each new row goes on a frontier; every matrix is applied to it, and each
    image is reduced once and kept when it enlarges the span.
    """
    frontier: List[Vec] = []
    for v in seeds:
        red = elim.reduce(v)
        if red:
            elim.insert(red)
            frontier.append(red)
    while frontier:
        v = frontier.pop()
        for mat in mats:
            red = elim.eliminate(mat_apply(mat, v))
            if red:
                elim.insert(red)
                frontier.append(red)


class LinearSystem:
    """Solve a sparse linear system by reduced row echelon form, in batches.

    Unknown keys must be orderable.  Rows may be added between calls to
    ``solve``; ``rows`` holds only the rows not yet solved.  Each call
    takes that pending batch, eliminates it against the echelon form the
    earlier calls left, which already holds all a later batch needs, and
    returns whether all rows so far are consistent: rows only add
    equations, so once they are not, no row is kept and every call
    returns False.  A caller that can stop at the first False need not
    assemble the rest of the system, and one that only asks whether a
    solution exists (the split test, whose E-type rows over g are already
    cut to the few that decide) never builds one.  ``solution`` reads the
    solution of the rows solved so far off the echelon form.

    Each batch is eliminated shortest row first (stable, so ties keep the
    order they were added in), the structured-elimination rule of
    LaMacchia and Odlyzko ("Solving large sparse linear systems over
    finite fields", 1990): it keeps fill-in low.  The result depends
    neither on the order nor on the batches: the pivots are the leading
    keys of the row space, and the solution that vanishes off them is
    unique.
    """

    def __init__(self):
        self.rows: List[Tuple[Vec, Any]] = []
        self._echelon: Optional[Eliminator] = Eliminator()

    def add(self, coeffs: Vec, rhs) -> None:
        if (coeffs or rhs) and self._echelon is not None:
            self.rows.append((dict(coeffs), rhs))

    def solve(self) -> bool:
        batch, self.rows = self.rows, []
        echelon = self._echelon
        if echelon is None:
            return False
        # the right-hand side is the companion {0: rhs}, empty when zero; the
        # rows are this system's own copies, so they are reduced in place
        for coeffs, rhs in sorted(batch, key=lambda r: len(r[0])):
            comp = {0: rhs} if rhs else {}
            if echelon.eliminate(coeffs, comp):
                echelon.insert(coeffs, comp)
            elif comp:
                self._echelon = None  # inconsistent for good: free the echelon form
                return False
        return True

    def solution(self) -> Optional[Vec]:
        """The solution of the rows solved so far with every free unknown
        zero, or None once they are inconsistent; pending rows are not read."""
        if self._echelon is None:
            return None
        # each stored row is its pivot unknown plus free unknowns
        return {p: comp[0] for p, comp in self._echelon.companions.items() if comp}


def kernel_basis(columns: List[Tuple[Hashable, Vec]], one) -> List[Vec]:
    """Basis of {c : sum_j c_j * col_j = 0} for an ordered column family.

    One relation per column that depends on the columns before it, in
    column order; it has coefficient ``one`` on that column.  Each column
    is reduced once.
    """
    echelon = Eliminator()
    out: List[Vec] = []
    for key, col in columns:
        comb = {key: one}
        if echelon.add(col, comb) is None:
            out.append(comb)
    return out
