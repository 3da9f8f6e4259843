import itertools
import os

import pytest

from reference import (
    all_reduced_w0_words,
    coideal_membership,
    comultiply_E,
    k_elt,
    omega,
    reorder_basis_check,
    tau,
    weight_basis,
    weights_up_to_height,
)
from uzeta.genericuq import generic_uq, q_power, qf
from uzeta.rootdata import build_root_datum, convex_order, default_w0_word
from uzeta.scalars import Localized, QFraction

RUN_LONG = os.environ.get("UZETA_LONG_RUNNING") == "1"
long_running = pytest.mark.skipif(
    not RUN_LONG, reason="G2 jobs are gated; set UZETA_LONG_RUNNING=1"
)


def braid_word_pair(label):
    m = {"A2": 3, "B2": 4, "G2": 6}[label]
    return [0, 1] * (m // 2) + [0] * (m % 2), [1, 0] * (m // 2) + [1] * (m % 2)


class TestSerreRelators:
    def test_a1_empty(self):
        assert generic_uq("A1").serre_relators() == []

    def test_a2_shape(self):
        rels = generic_uq("A2").serre_relators()
        assert len(rels) == 2
        wt, r = rels[0]
        assert wt == (2, 1)
        # E1^2 E2 - (q + q^-1) E1 E2 E1 + E2 E1^2
        assert r[(0, 0, 1)] == qf(1) and r[(1, 0, 0)] == qf(1)
        from uzeta.scalars import q_int

        assert r[(0, 1, 0)] == -qf(q_int(2))

    def test_b2_degrees(self):
        rels = generic_uq("B2").serre_relators()
        lens = sorted(len(next(iter(r))) for _, r in rels)
        assert lens == [3, 4]  # 1 - a in {2, 3}


class TestWeightBasis:
    @pytest.mark.parametrize("label,bound", [("A2", 6), ("B2", 6)])
    def test_dimensions_match_kostant(self, label, bound):
        uq = generic_uq(label)
        for nu in weights_up_to_height(uq.datum, bound):
            weight_basis(uq, nu)  # raises when dim != Kostant count

    def test_examples(self):
        uq = generic_uq("A2")
        assert len(weight_basis(uq, (1, 1))) == 2
        assert len(weight_basis(uq, (1, 0))) == 1
        assert len(weight_basis(uq, (2, 1))) == 2

    def test_height_bound(self):
        uq = generic_uq("A2")
        with pytest.raises(ValueError):
            weight_basis(uq, (4, 3), height_bound=4)

    @long_running
    def test_g2_dimensions(self):
        uq = generic_uq("G2")
        for nu in weights_up_to_height(uq.datum, 4):
            weight_basis(uq, nu)


class TestBraid:
    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_braid_relations(self, label):
        uq = generic_uq(label)
        s1, s2 = braid_word_pair(label)
        for side in ["E", "F"]:
            for g in range(uq.datum.rank):
                lhs = uq.gen(side, g)
                rhs = uq.gen(side, g)
                for i in reversed(s1):
                    lhs = uq.braid_apply(i, lhs)
                for i in reversed(s2):
                    rhs = uq.braid_apply(i, rhs)
                assert uq.compress(lhs) == uq.compress(rhs)

    @long_running
    def test_braid_relations_g2(self):
        uq = generic_uq("G2")
        s1, s2 = braid_word_pair("G2")
        for side in ["E", "F"]:
            for g in range(2):
                lhs = uq.gen(side, g)
                rhs = uq.gen(side, g)
                for i in reversed(s1):
                    lhs = uq.braid_apply(i, lhs)
                for i in reversed(s2):
                    rhs = uq.braid_apply(i, rhs)
                assert uq.compress(lhs) == uq.compress(rhs)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_inverse_and_tau_conjugation(self, label):
        uq = generic_uq(label)
        for i in range(uq.datum.rank):
            for side in ["E", "F"]:
                for g in range(uq.datum.rank):
                    x = uq.gen(side, g)
                    roundtrip = uq.braid_apply(i, uq.braid_apply(i, x), inverse=True)
                    assert uq.compress(roundtrip) == uq.compress(x)
                    # tau T tau = T^{-1}
                    lhs = tau(uq.braid_apply(i, tau(x)))
                    rhs = uq.braid_apply(i, x, inverse=True)
                    assert uq.compress(lhs) == uq.compress(rhs)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_braid_kills_relators(self, label):
        uq = generic_uq(label)
        for i in range(uq.datum.rank):
            for _, rel in uq.serre_relators():
                x = {tuple(("E", n) for n in w): c for w, c in rel.items()}
                assert uq.braid_apply(i, x) == {}

    def test_mixed_image_flagged(self):
        # T_alpha(E_alpha) has an F K part: projecting to the E side must fail
        from uzeta.genericuq import NotOneSided

        uq = generic_uq("A2")
        img = uq.braid_apply(0, uq.gen("E", 0))
        with pytest.raises(NotOneSided):
            uq.project_side(img, "E")


class TestRootVectors:
    def test_a2_values(self):
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        rvs = uq.root_vectors(o, "E")
        assert rvs[0] == {(0,): qf(1)}
        assert rvs[2] == {(1,): qf(1)}
        assert rvs[1] == {(0, 1): qf(1), (1, 0): -q_power(-1)}

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_weights(self, label):
        uq = generic_uq(label)
        for w in all_reduced_w0_words(uq.datum):
            o = convex_order(label, w)
            for side in ["E", "F"]:
                for i, rv in enumerate(uq.root_vectors(o, side)):
                    for word in rv:
                        assert uq.word_weight(word) == o.gammas[i]


class TestNormalOrder:
    def test_commuting_case(self):
        uq = generic_uq("A2")
        no = uq.normal_order({(("E", 0), ("F", 1)): qf(1)})
        assert no == {((1,), (0, 0), (0,)): qf(1)}

    def test_ef_same_root(self):
        uq = generic_uq("A2")
        no = uq.normal_order({(("E", 0), ("F", 0)): qf(1)})
        from uzeta.scalars import Laurent

        denom = qf(Laurent.q_power(1) - Laurent.q_power(-1))
        assert no[((0,), (0, 0), (0,))] == qf(1)
        assert no[((), (1, 0), ())] == qf(1) / denom
        assert no[((), (-1, 0), ())] == -(qf(1) / denom)

    def test_idempotent_on_triangular(self):
        uq = generic_uq("A2")
        word = (("F", 0), ("K", (1, 0)), ("E", 1))
        no = uq.normal_order({word: qf(1)})
        assert no == {((0,), (1, 0), (1,)): qf(1)}

    def test_involutions(self):
        x = {(("E", 0), ("F", 1), ("K", (1, -1))): qf(3)}
        assert tau(tau(x)) == x
        assert omega(omega(x)) == x

    def test_tau_antihom_on_products(self):
        uq = generic_uq("A2")
        import random

        rng = random.Random(3)
        letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("K", (1, 0)), ("K", (0, -1))]
        for _ in range(25):
            wa = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            wb = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            a = {wa: qf(1)}
            b = {wb: qf(1)}
            from uzeta.genericuq import el_mul

            lhs = tau(el_mul(a, b))
            rhs = el_mul(tau(b), tau(a))
            assert uq.compress(lhs) == uq.compress(rhs)

    def test_omega_k(self):
        assert omega(k_elt((1, 0))) == k_elt((-1, 0))


class TestStructureTable:
    def test_a2_entries(self):
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        tab = uq.structure_table(o)
        assert tab.leading_exponent(1, 3) == -1
        assert tab.e_entries[(1, 2)] == {} and tab.e_entries[(2, 3)] == {}
        tail = tab.e_entries[(1, 3)]
        assert list(tail) == [(0, 1, 0)]
        assert tail[(0, 1, 0)].num == qf(1).num and not tail[(0, 1, 0)].denominator_nontrivial()
        assert tab.denominator_count() == 0

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_invariants_all_words(self, label):
        # leading coefficient, inner support and A-membership are asserted
        # inside the builder; nontrivial denominators appear iff two lengths
        uq = generic_uq(label)
        for w in all_reduced_w0_words(uq.datum):
            tab = uq.structure_table(convex_order(label, w))
            assert bool(tab.denominator_count()) == (label == "B2")

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_omega_route_equals_direct_f_side(self, label):
        uq = generic_uq(label)
        datum = uq.datum
        n = datum.n_positive
        for w in all_reduced_w0_words(datum):
            o = convex_order(label, w)
            tab = uq.structure_table(o)
            rvs_f = uq.root_vectors(o, "F")
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    prod = {}
                    for w1, c1 in rvs_f[j - 1].items():
                        for w2, c2 in rvs_f[i - 1].items():
                            ww = w1 + w2
                            prod[ww] = prod.get(ww, qf(0)) + c1 * c2
                    coords = uq.pbw_expand(o, prod, "F")
                    pairing = datum.pair_roots(o.gammas[i - 1], o.gammas[j - 1])
                    lead = coords.pop(tuple(1 if t in (i - 1, j - 1) else 0 for t in range(n)))
                    assert lead == q_power(-pairing)
                    got = {
                        e: Localized.from_fraction(-(q_power(pairing) * c), tab.s_keys)
                        for e, c in coords.items()
                        if c
                    }
                    assert got == tab.f_entries[(i, j)]

    def test_omega_units_shape(self):
        # omega(E_gamma) = +-q^a F_gamma
        uq = generic_uq("B2")
        tab = uq.structure_table(convex_order("B2", (1, 2, 1, 2)))
        for u in tab.omega_units:
            assert u.is_laurent() and u.num.is_unit()
            assert abs(u.num.c[0]) == 1

    @long_running
    def test_g2_table(self):
        uq = generic_uq("G2")
        tab = uq.structure_table(convex_order("G2", default_w0_word("G2")))
        assert tab.denominator_count()


class TestPBW:
    def test_expansion_of_monomial_is_itself(self):
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        vec = uq.monomial_words(o, "E", (1, 1, 0))
        assert uq.pbw_expand(o, vec, "E") == {(1, 1, 0): qf(1)}

    def test_descending_product_has_inner_tail(self):
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        rvs = uq.root_vectors(o, "E")
        from uzeta.genericuq import el_mul

        prod = {}
        for w1, c1 in rvs[2].items():
            for w2, c2 in rvs[0].items():
                prod[w1 + w2] = prod.get(w1 + w2, qf(0)) + c1 * c2
        coords = uq.pbw_expand(o, prod, "E")
        assert set(coords) == {(1, 0, 1), (0, 1, 0)}

    @pytest.mark.parametrize("perm", list(itertools.permutations((1, 2, 3))))
    def test_reorder_a2(self, perm):
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        assert reorder_basis_check(uq, o, perm, 4)

    def test_reorder_b2_swap(self):
        uq = generic_uq("B2")
        o = convex_order("B2", (1, 2, 1, 2))
        assert reorder_basis_check(uq, o, (4, 2, 3, 1), 4)


class TestComultiplication:
    def test_simple_root_case(self):
        # Delta(E_gamma_1) = E (x) 1 + K (x) E: memberships trivially hold
        uq = generic_uq("A2")
        o = convex_order("A2", (1, 2, 1))
        comps = comultiply_E(uq, o, 1)
        g1 = (1, 0)
        zero = (0, 0)
        assert set(comps) == {(g1, zero), (zero, g1)}

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_membership_all_orders(self, label):
        uq = generic_uq(label)
        for w in all_reduced_w0_words(uq.datum):
            o = convex_order(label, w)
            for m in range(1, uq.datum.n_positive + 1):
                assert coideal_membership(uq, o, m)
