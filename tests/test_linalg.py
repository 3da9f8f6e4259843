import random
from fractions import Fraction as QQ

import pytest

from uzeta import inject
from uzeta.linalg import LinearSystem, SpanSolver, kernel_basis, rank_of, vec_iadd_scaled, vec_isub_scaled
from uzeta.qmodules import randsub_module, simple_module, tensor_module, trivial_module, verma_module
from uzeta.scalars import CycloField, GaloisField


def _random_vec(rng, field, keys, density=0.5):
    out = {}
    for k in keys:
        if rng.random() < density:
            x = field.from_int(rng.randint(-3, 3)) / rng.randint(1, 4)
            if x:
                out[k] = x
    return out


def _old_kernel_basis(columns, one):
    """Solve each column against the span so far, then add it if independent."""
    solver = SpanSolver(one)
    out = []
    for key, col in columns:
        sol = solver.solve(col)
        if sol is not None:
            rel = {k: -x for k, x in sol.items()}
            rel[key] = one
            out.append(rel)
        else:
            solver.add(key, col)
    return out


class TestSubtractScaled:
    def test_matches_adding_the_negative(self):
        rng = random.Random(3)
        F = CycloField(5)
        for _ in range(200):
            u, v = _random_vec(rng, F, range(8)), _random_vec(rng, F, range(8))
            c = F.from_int(rng.randint(1, 4)) * F.zeta_power(rng.randint(0, 4))
            want = vec_iadd_scaled(dict(u), v, -c)
            assert vec_isub_scaled(dict(u), v, c) == want
            assert all(want.values())

    def test_cancels_and_fills_in(self):
        u = {0: QQ(2), 1: QQ(1)}
        assert vec_isub_scaled(u, {0: QQ(1), 2: QQ(1)}, QQ(2)) == {1: QQ(1), 2: QQ(-2)}


class TestKernelBasis:
    def test_relations_match_solve_then_add(self):
        rng = random.Random(5)
        F = CycloField(3)
        for _ in range(30):
            columns = [(j, _random_vec(rng, F, range(5), 0.4)) for j in range(9)]
            got = kernel_basis(columns, one=F.one)
            assert got == _old_kernel_basis(columns, F.one)
            assert len(got) == len(columns) - rank_of(col for _, col in columns)
            for rel in got:
                assert rel[max(rel)] == F.one
                total = {}
                for j, c in rel.items():
                    vec_iadd_scaled(total, dict(columns)[j], c)
                assert not total

    def test_zero_column(self):
        assert kernel_basis([("a", {}), ("b", {0: QQ(1)})], one=QQ(1)) == [{"a": QQ(1)}]



def _old_solve(rows, zero):
    """Forward elimination in the order the rows were added, then back substitution."""
    pivots = {}
    order = []
    for row, rhs in rows:
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
    sol = {}
    for p in reversed(order):
        prow, prhs = pivots[p]
        acc = prhs
        for k, c in prow.items():
            if k != p and k in sol:
                acc = acc - c * sol[k]
        if acc:
            sol[p] = acc
    return sol


def _check_solve(rows, zero):
    """solve() returns what the reference returns, and that solves every row.

    With the least key as pivot, the pivots are the leading keys of the
    row space whatever the row order, and the solution that vanishes off
    them is unique: so the two agree exactly, not only on consistency.
    """
    system = LinearSystem()
    for coeffs, rhs in rows:
        system.add(coeffs, rhs)
    sol = system.solve()
    assert sol == _old_solve(system.rows, zero)
    if sol is not None:
        for coeffs, rhs in rows:
            acc = zero
            for k, c in coeffs.items():
                if k in sol:
                    acc = acc + c * sol[k]
            assert acc == rhs
    return sol


def _random_element(rng, field):
    return field.from_int(rng.randint(-3, 3)) + field.from_int(rng.randint(-3, 3)) * field.zeta


FIELDS = [CycloField(3), CycloField(5), GaloisField(5, 3)]
FIELD_IDS = ["Q3", "Q5", "GF25"]


def _random_rows(rng, field, planted):
    """A random sparse system; with ``planted``, consistent by construction."""
    n_keys, n_rows = rng.randint(2, 9), rng.randint(1, 12)
    keys = [(rng.randint(0, 2), k) for k in range(n_keys)]
    rows = []
    for _ in range(n_rows):
        coeffs = {}
        for k in keys:
            if rng.random() < 0.35:
                x = _random_element(rng, field)
                if x:
                    coeffs[k] = x
        rows.append(coeffs)
    if planted:
        # the right-hand sides of a planted solution
        sol = {k: _random_element(rng, field) for k in keys}
        rhss = [sum((c * sol[k] for k, c in row.items()), field.zero) for row in rows]
    else:
        rhss = [_random_element(rng, field) if rng.random() < 0.4 else field.zero for _ in rows]
    return list(zip(rows, rhss))


class TestLinearSystem:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_order_independent_with_certificates(self, field):
        rng = random.Random(11)
        outcomes = set()
        for trial in range(60):
            sol = _check_solve(_random_rows(rng, field, planted=trial % 2), field.zero)
            outcomes.add(sol is not None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_batches_solve_like_one_call(self, field):
        rng = random.Random(13)
        outcomes = set()
        for trial in range(60):
            rows = _random_rows(rng, field, planted=trial % 2)
            system = LinearSystem()
            done = 0
            answers = []
            while done < len(rows):
                # batches of 0..4 rows: a call with nothing new is allowed too
                batch = rows[done:done + rng.randint(0, 4)]
                for coeffs, rhs in batch:
                    system.add(coeffs, rhs)
                done += len(batch)
                answers.append(system.solve())
                # every answer is the one-call answer of the rows so far
                assert answers[-1] == _check_solve(rows[:done], field.zero)
            if None in answers:
                assert set(answers[answers.index(None):]) == {None}
            whole = LinearSystem()
            for coeffs, rhs in rows:
                whole.add(coeffs, rhs)
            assert system.rows == whole.rows
            assert answers[-1] == whole.solve()
            outcomes.add(answers[-1] is not None)
        assert outcomes == {True, False}

    def test_inconsistent_stays_inconsistent(self):
        system = LinearSystem()
        system.add({0: QQ(1), 1: QQ(1)}, QQ(1))
        assert system.solve() == {0: QQ(1)}
        system.add({0: QQ(2), 1: QQ(2)}, QQ(1))
        assert system.solve() is None
        # more rows cannot restore a solution
        system.add({1: QQ(1)}, QQ(3))
        assert system.solve() is None
        assert system.solve() is None
        assert len(system.rows) == 3

    def test_empty_row_with_rhs_is_inconsistent(self):
        system = LinearSystem()
        system.add({0: QQ(1)}, QQ(1))
        system.add({}, QQ(2))
        system.add({}, QQ(0))
        assert len(system.rows) == 2
        assert system.solve() is None

    def test_row_order_does_not_change_the_solution(self):
        rows = [({0: QQ(1), 1: QQ(1), 2: QQ(1)}, QQ(1)), ({1: QQ(1), 2: QQ(2)}, QQ(3)), ({2: QQ(1), 3: QQ(1)}, QQ(0))]
        want = _check_solve(rows, QQ(0))
        assert want == {0: QQ(-2), 1: QQ(3)}
        for perm in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
            assert _check_solve([rows[i] for i in perm], QQ(0)) == want


def _split_cases(ctx, label):
    if label == "A1":
        corpus = [
            trivial_module(ctx),
            verma_module(ctx, (0,)),
            simple_module(ctx, (1,)),
            simple_module(ctx, (2,)),
            randsub_module(verma_module(ctx, (1,)), 3),
            tensor_module(simple_module(ctx, (1,)), simple_module(ctx, (1,))),
        ]
        kinds = ["u-", "u+", "Am:1", "root:1:-", "g"]
    else:
        corpus = [
            trivial_module(ctx),
            simple_module(ctx, (1, 0)),
            simple_module(ctx, (2, 2)),
            verma_module(ctx, (0, 1)),
        ]
        kinds = ["u-", "Am:2", "root:2:+", "g"]
    return [(m, kind) for m in corpus for kind in kinds]


class TestSplitSystems:
    @pytest.mark.parametrize("label", ["A1", "A2"])
    def test_split_systems_solve_like_the_reference(self, ctxmaker, monkeypatch, label):
        ctx = ctxmaker(label, 3)
        solved = []

        class Checked(LinearSystem):
            def solve(self):
                solved.append(_check_solve(self.rows, ctx.field.zero) is not None)
                return super().solve()

        monkeypatch.setattr(inject, "LinearSystem", Checked)
        verdicts = [inject._split_exists(m, kind) for m, kind in _split_cases(ctx, label)]
        assert len(solved) > 1 and set(solved) == {True, False}
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("label, ell, p, r", [("A1", 3, None, 0), ("A2", 3, None, 0), ("A1", 3, 7, 1)])
    def test_stopping_early_changes_no_verdict(self, ctxmaker, monkeypatch, label, ell, p, r):
        ctx = ctxmaker(label, ell, p, r)
        systems = []

        class Exhaustive(LinearSystem):
            """Never reports None, so the test assembles every row."""

            def __init__(self):
                super().__init__()
                systems.append(self)

            def solve(self):
                return {}

        calls = []

        class Counted(LinearSystem):
            def solve(self):
                calls.append(1)
                return super().solve()

        stopped_early = []
        for m, kind in _split_cases(ctx, label):
            monkeypatch.setattr(inject, "LinearSystem", Exhaustive)
            before = len(systems)
            assembled = inject._split_exists(m, kind)
            if len(systems) > before:
                assert assembled
                whole = LinearSystem()
                for coeffs, rhs in systems[-1].rows:
                    whole.add(coeffs, rhs)
                verdict = whole.solve() is not None
            else:
                # the degree check answered before any row was added
                verdict = assembled
                assert not verdict
            monkeypatch.setattr(inject, "LinearSystem", Counted)
            del calls[:]
            assert inject._split_exists(m, kind) == verdict
            if calls and len(calls) < m.dim:
                assert not verdict
                stopped_early.append(kind)
        assert stopped_early
        if label == "A2":
            assert "g" in stopped_early
