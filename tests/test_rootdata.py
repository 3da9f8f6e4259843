from fractions import Fraction as QQ

import pytest

from reference import all_reduced_w0_words, describe, order_functional, reflect_root
from uzeta.rootdata import TYPES, ConvexOrder, UnsupportedType, build_root_datum, convex_order, default_w0_word

ALL_TYPES = ["A1", "A2", "B2", "G2", "A3"]


class TestRootDatum:
    @pytest.mark.parametrize(
        "label,n", [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)]
    )
    def test_positive_root_counts(self, label, n):
        assert build_root_datum(label).n_positive == n

    def test_unsupported(self):
        with pytest.raises(UnsupportedType):
            build_root_datum("E8")

    def test_a1(self):
        d = build_root_datum("A1")
        assert d.highest_root == (1,)
        assert d.pair_roots((1,), (1,)) == 2

    def test_a2_roots(self):
        d = build_root_datum("A2")
        assert set(d.positive_roots) == {(1, 0), (0, 1), (1, 1)}
        assert d.highest_root == (1, 1)

    def test_simple_roots_are_the_unit_vectors_built_once(self):
        d = build_root_datum("A3")
        assert d.simple_roots == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert d.simple_roots is d.simple_roots

    def test_b2_lengths(self):
        d = build_root_datum("B2")
        short = [r for r in d.positive_roots if d.pair_roots(r, r) == 2]
        long = [r for r in d.positive_roots if d.pair_roots(r, r) == 4]
        assert len(short) == 2 and len(long) == 2
        assert d.highest_root in long

    @pytest.mark.parametrize("label", ALL_TYPES)
    def test_highest_root_dominates(self, label):
        d = build_root_datum(label)
        h = d.highest_root
        for r in d.positive_roots:
            assert all(h[i] >= r[i] for i in range(d.rank))

    @pytest.mark.parametrize("label", ALL_TYPES)
    def test_cartan_consistency(self, label):
        d = build_root_datum(label)
        for i in range(d.rank):
            for j in range(d.rank):
                assert 2 * d.gram[i][j] == d.cartan[i][j] * d.gram[j][j]

    @pytest.mark.parametrize("label", ALL_TYPES)
    def test_weight_root_conversion(self, label):
        d = build_root_datum(label)
        for r in d.positive_roots:
            lam = d.root_to_weight(r)
            back = d.weight_to_root(lam)
            assert tuple(int(x) for x in back) == r

    def test_describe(self):
        text = describe(build_root_datum("B2"))
        assert "type B2" in text and "(highest)" in text


# label: (Coxeter number, bad primes, localization keys, default w0 word,
# positive roots in order, fundamental weights in root coordinates)
TYPE_FACTS = {
    "A1": (2, (), (), (1,), ((1,),), ((QQ(1, 2),),)),
    "A2": (3, (), (), (1, 2, 1), ((0, 1), (1, 0), (1, 1)),
           ((QQ(2, 3), QQ(1, 3)), (QQ(1, 3), QQ(2, 3)))),
    "B2": (4, (2,), (2,), (1, 2, 1, 2), ((0, 1), (1, 0), (1, 1), (1, 2)),
           ((QQ(1), QQ(1)), (QQ(1, 2), QQ(1)))),
    "G2": (6, (2, 3), (2, 3), (1, 2, 1, 2, 1, 2),
           ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)),
           ((QQ(2), QQ(1)), (QQ(3), QQ(2)))),
    "A3": (4, (), (), (1, 2, 1, 3, 2, 1),
           ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)),
           ((QQ(3, 4), QQ(1, 2), QQ(1, 4)), (QQ(1, 2), QQ(1), QQ(1, 2)),
            (QQ(1, 4), QQ(1, 2), QQ(3, 4)))),
}


@pytest.mark.parametrize("label", sorted(TYPE_FACTS))
def test_facts_derived_from_the_type_table(label):
    # the Coxeter number (2N / rank) and the bad primes (those dividing a
    # coefficient of the highest root) are computed from the defining data
    h, bad, keys, w0, roots, weights = TYPE_FACTS[label]
    d = build_root_datum(label)
    assert d.coxeter_number == h
    assert d.bad_primes == bad
    assert d.s_keys == keys
    assert default_w0_word(label) == w0
    assert d.positive_roots == roots
    assert d.fundamental_weights == weights
    assert all(type(x) is QQ for w in d.fundamental_weights for x in w)


def test_type_table_lists_every_type():
    assert list(TYPES) == ALL_TYPES


class TestWeyl:
    def test_simple_reflection(self):
        d = build_root_datum("A2")
        assert d.reflect_simple(0, (1, 0)) == (-1, 0)
        assert d.reflect_simple(0, (0, 1)) == (1, 1)

    @pytest.mark.parametrize("label", ALL_TYPES)
    def test_w0_negates_rho(self, label):
        d = build_root_datum(label)
        w0 = default_w0_word(label)
        assert d.weyl_apply(w0, d.rho) == tuple(-x for x in d.rho)

    def test_weyl_preserves_pairing(self):
        d = build_root_datum("G2")
        w = (1, 2, 1)
        for r in d.positive_roots:
            for s in d.positive_roots:
                assert d.pair_roots(d.weyl_apply(w, r), d.weyl_apply(w, s)) == d.pair_roots(r, s)


class TestConvexOrder:
    def test_a1(self):
        o = convex_order("A1", (1,))
        assert o.gammas == ((1,),)

    def test_a2_both_orders(self):
        assert convex_order("A2", (1, 2, 1)).gammas == ((1, 0), (1, 1), (0, 1))
        assert convex_order("A2", (2, 1, 2)).gammas == ((0, 1), (1, 1), (1, 0))

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            convex_order("A2", (1, 1, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            convex_order("B2", (1, 2, 1))

    @pytest.mark.parametrize("label,count", [("A1", 1), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 16)])
    def test_all_reduced_words(self, label, count):
        datum = build_root_datum(label)
        words = all_reduced_w0_words(datum)
        assert len(words) == count
        for w in words:
            o = convex_order(label, w)
            o.check_convexity()
            assert sorted(o.gammas) == sorted(datum.positive_roots)


class TestOrderFunctional:
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
    def test_sign_patterns_everywhere(self, label):
        datum = build_root_datum(label)
        for w in all_reduced_w0_words(datum):
            o = convex_order(label, w)
            for m in range(datum.n_positive + 1):
                order_functional(o, m).check()

    def test_endpoints(self):
        o = convex_order("A2", (1, 2, 1))
        d = o.datum
        assert order_functional(o, 0).vector == tuple(-x for x in d.rho)
        assert order_functional(o, 3).vector == tuple(QQ(x) for x in d.rho)

    def test_spec_vector_m1(self):
        # v_1 = s_{alpha_1}(-rho) equals w1 - 2*w2 in A2
        o = convex_order("A2", (1, 2, 1))
        d = o.datum
        w1, w2 = d.fundamental_weights
        assert order_functional(o, 1).vector == tuple(a - 2 * b for a, b in zip(w1, w2))

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_inductive_flip(self, label):
        # positive system at m+1 is s_{gamma_{m+1}} applied to the one at m
        datum = build_root_datum(label)
        for w in all_reduced_w0_words(datum):
            o = convex_order(label, w)
            for m in range(datum.n_positive):
                pm = order_functional(o, m).positive_system()
                pm1 = order_functional(o, m + 1).positive_system()
                g = o.gammas[m]
                flipped = tuple(
                    sorted(tuple(int(x) for x in reflect_root(datum, g, r)) for r in pm)
                )
                assert flipped == pm1

    def test_bounds(self):
        o = convex_order("A2", (1, 2, 1))
        with pytest.raises(ValueError):
            order_functional(o, 4)
