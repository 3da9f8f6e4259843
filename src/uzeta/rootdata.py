"""Root systems of rank <= 3, Weyl combinatorics and convex orderings.

Two exact coordinate systems are used throughout the package:

* root coordinates -- integer (or Fraction) tuples in the simple-root
  basis; all roots and ambient vectors live here;
* weight coordinates -- integer tuples in the fundamental-weight basis;
  module weights live here.

The inner product is normalized so short roots have squared length 2.
The Cartan matrix convention is cartan[i][j] = 2(a_i, a_j)/(a_j, a_j).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Sequence, Tuple

from .linalg import Eliminator
from .scalars import prime_factors

QQ = Fraction

Vector = Tuple[Fraction, ...]
Root = Tuple[int, ...]
Weight = Tuple[int, ...]

# The defining data of each type, one row per type: the Cartan matrix
# (cartan[i][j] = <a_i, a_j^vee>), d_j = (a_j, a_j)/2, the keys k of the
# localizing factors q^k - q^-k of its structure constants, and the default
# reduced word of w0 (1-based simple indices).  ``RootDatum`` derives the rest.
TYPES = {
    "A1": (((2,),), (1,), (), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1), (), (1, 2, 1)),
    "B2": (((2, -2), (-1, 2)), (2, 1), (2,), (1, 2, 1, 2)),
    "G2": (((2, -1), (-3, 2)), (1, 3), (2, 3), (1, 2, 1, 2, 1, 2)),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1), (), (1, 2, 1, 3, 2, 1)),
}


class UnsupportedType(ValueError):
    pass


class RootDatum:
    """A root system given by its row of ``TYPES``; the roots, weights and
    invariants below are derived from it on first use.  One instance per
    type (``build_root_datum``), so equality is identity."""

    def __init__(self, label: str, cartan: Tuple[Tuple[int, ...], ...], d: Tuple[int, ...],
                 s_keys: Tuple[int, ...], w0_word: Tuple[int, ...]):
        self.label = label
        self.cartan = cartan  # cartan[i][j] = <a_i, a_j^vee>
        self.d = d  # d_j = (a_j, a_j)/2
        self.s_keys = s_keys  # k of the localizing factors q^k - q^-k
        self.w0_word = w0_word  # default reduced word of w0

    @cached_property
    def rank(self) -> int:
        return len(self.d)

    @cached_property
    def gram(self) -> Tuple[Tuple[int, ...], ...]:
        """gram[i][j] = (a_i, a_j)."""
        return tuple(
            tuple(self.cartan[i][j] * self.d[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    @cached_property
    def positive_roots(self) -> Tuple[Root, ...]:
        """The positive half of the orbit of the simple roots under the
        simple reflections, sorted by (height, coords)."""
        roots = set()
        frontier = list(self.simple_roots)
        while frontier:
            r = frontier.pop()
            if r not in roots:
                roots.add(r)
                frontier.extend(self.reflect_simple(j, r) for j in range(self.rank))
        return tuple(sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r)))

    @cached_property
    def fundamental_weights(self) -> Tuple[Vector, ...]:
        """omega_i in root coordinates: the c with sum_k c_k cartan[k][j] =
        delta_ij, the coordinates of the unit vector e_i over the rows of
        the Cartan matrix."""
        echelon = Eliminator()
        for k, row in enumerate(self.cartan):
            echelon.add({j: QQ(x) for j, x in enumerate(row) if x}, {k: QQ(1)})
        out = []
        for i in range(self.rank):
            c = echelon.solve({i: QQ(1)})
            out.append(tuple(c.get(k, QQ(0)) for k in range(self.rank)))
        return tuple(out)

    # -- pairings ------------------------------------------------------

    def pair_roots(self, x: Sequence, y: Sequence):
        """(x, y) for vectors in root coordinates."""
        return sum(
            x[i] * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if x[i] and y[j]
        )

    def pair_weight_root(self, lam: Weight, r: Sequence):
        """(lam, r) for lam in weight coordinates, r in root coordinates."""
        return sum(lam[j] * self.d[j] * r[j] for j in range(self.rank))

    def coroot_pair(self, x: Sequence, j: int):
        """<x, a_j^vee> for x in root coordinates."""
        return sum(x[k] * self.cartan[k][j] for k in range(self.rank) if x[k])

    def d_of_root(self, r: Root) -> int:
        return self.pair_roots(r, r) // 2

    def root_to_weight(self, r: Sequence) -> Weight:
        """Express a root-coordinate vector in fundamental weights."""
        return tuple(
            sum(r[j] * self.cartan[j][i] for j in range(self.rank))
            for i in range(self.rank)
        )

    def weight_to_root(self, lam: Weight) -> Vector:
        """Fundamental-weight coordinates to (rational) root coordinates."""
        out = [QQ(0)] * self.rank
        for i, c in enumerate(lam):
            if c:
                for j in range(self.rank):
                    out[j] += c * self.fundamental_weights[i][j]
        return tuple(out)

    # -- reflections ---------------------------------------------------

    def reflect_simple(self, j: int, v: Sequence) -> Tuple:
        """s_j(v) = v - <v, a_j^vee> a_j on root coordinates (0-based j)."""
        c = self.coroot_pair(v, j)
        out = list(v)
        out[j] = out[j] - c
        return tuple(out)

    def weyl_apply(self, word: Sequence[int], v: Sequence) -> Tuple:
        """Apply s_{b_1}...s_{b_k} to v (1-based simple indices, rightmost first)."""
        out = tuple(v)
        for j in reversed(word):
            out = self.reflect_simple(j - 1, out)
        return out

    # -- distinguished data ---------------------------------------------

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    @cached_property
    def simple_roots(self) -> Tuple[Root, ...]:
        return tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))

    @property
    def rho(self) -> Vector:
        two_rho = [0] * self.rank
        for r in self.positive_roots:
            for i, x in enumerate(r):
                two_rho[i] += x
        return tuple(QQ(x, 2) for x in two_rho)

    @property
    def highest_root(self) -> Root:
        """The highest positive root: the one of greatest height, so the last."""
        return self.positive_roots[-1]

    def height(self, r: Sequence) -> int:
        return sum(r)

    @property
    def coxeter_number(self) -> int:
        """h = 2N / rank."""
        return 2 * self.n_positive // self.rank

    @property
    def bad_primes(self) -> Tuple[int, ...]:
        """The primes dividing a coefficient of the highest root."""
        return tuple(sorted({p for c in self.highest_root for p in prime_factors(c)}))


@lru_cache(maxsize=None)
def build_root_datum(label: str) -> RootDatum:
    if label not in TYPES:
        raise UnsupportedType(f"unsupported root system type {label!r}")
    datum = RootDatum(label, *TYPES[label])
    _validate_datum(datum)
    return datum


def _validate_datum(datum: RootDatum) -> None:
    for i in range(datum.rank):
        for j in range(datum.rank):
            assert datum.gram[i][j] == datum.gram[j][i], "Cartan/d tables inconsistent"
    short = min(datum.pair_roots(r, r) for r in datum.positive_roots)
    assert short == 2, "short roots must have squared length 2"
    assert datum.n_positive in (1, 3, 4, 6), "unexpected number of positive roots"
    assert all(datum.cartan[j][j] == 2 for j in range(datum.rank)), "Cartan diagonal must be 2"
    for i, w in enumerate(datum.fundamental_weights):
        for j in range(datum.rank):
            assert datum.coroot_pair(w, j) == (1 if i == j else 0)
    # rho in weight coordinates is (1,...,1)
    rho = datum.rho
    for j in range(datum.rank):
        assert datum.coroot_pair(rho, j) == 1, "rho must pair to 1 with each coroot"


class ConvexOrder:
    """Positive roots listed as gamma_i = s_{b_1}...s_{b_{i-1}}(b_i)."""

    def __init__(self, datum: RootDatum, word: Tuple[int, ...], gammas: Tuple[Root, ...]):
        self.datum = datum
        self.word = word  # 1-based simple indices
        self.gammas = gammas

    def check_convexity(self) -> None:
        g = self.gammas
        n = len(g)
        for i in range(n):
            for j in range(i + 1, n):
                s = tuple(x + y for x, y in zip(g[i], g[j]))
                if s in g:
                    l = g.index(s)
                    if not (i < l < j):
                        raise AssertionError(
                            f"convexity violated: gamma_{i+1}+gamma_{j+1}=gamma_{l+1}"
                        )

    def __hash__(self):
        return hash((self.datum.label, self.word))

    def __eq__(self, other):
        return (
            isinstance(other, ConvexOrder)
            and self.datum.label == other.datum.label
            and self.word == other.word
        )


@lru_cache(maxsize=None)
def convex_order(label: str, word: Tuple[int, ...]) -> ConvexOrder:
    datum = build_root_datum(label)
    n = datum.n_positive
    word = tuple(word)
    if len(word) != n:
        raise ValueError(f"word must have length {n}, got {len(word)}")
    if any(not (1 <= j <= datum.rank) for j in word):
        raise ValueError("word entries must be 1-based simple indices")
    gammas: List[Root] = []
    for i in range(n):
        beta = datum.simple_roots[word[i] - 1]
        g = datum.weyl_apply(word[:i], beta)
        gammas.append(tuple(int(x) for x in g))
    if sorted(gammas) != sorted(datum.positive_roots):
        raise ValueError(
            f"word {word} is not a reduced expression of the longest element"
        )
    order = ConvexOrder(datum, word, tuple(gammas))
    order.check_convexity()
    return order


def default_w0_word(label: str) -> Tuple[int, ...]:
    return build_root_datum(label).w0_word
