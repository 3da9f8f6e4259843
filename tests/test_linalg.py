import random
from fractions import Fraction as QQ

from uzeta.linalg import SpanSolver, kernel_basis, rank_of, vec_iadd_scaled, vec_isub_scaled
from uzeta.scalars import CycloField


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

