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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Sequence, Tuple

QQ = Fraction

Vector = Tuple[Fraction, ...]
Root = Tuple[int, ...]
Weight = Tuple[int, ...]

CARTAN_TABLES = {
    "A1": ([[2]], (1,)),
    "A2": ([[2, -1], [-1, 2]], (1, 1)),
    "B2": ([[2, -2], [-1, 2]], (2, 1)),
    "G2": ([[2, -1], [-3, 2]], (1, 3)),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], (1, 1, 1)),
}

COXETER_NUMBER = {"A1": 2, "A2": 3, "B2": 4, "G2": 6, "A3": 4}
BAD_PRIMES = {"A1": (), "A2": (), "A3": (), "B2": (2,), "G2": (2, 3)}
# multiplicative set keys (q^k - q^-k) per type family
S_KEYS = {"A1": (), "A2": (), "A3": (), "B2": (2,), "G2": (2, 3)}


class UnsupportedType(ValueError):
    pass


@dataclass(frozen=True)
class RootDatum:
    label: str
    rank: int
    cartan: Tuple[Tuple[int, ...], ...]  # cartan[i][j] = <a_i, a_j^vee>
    d: Tuple[int, ...]                   # d_j = (a_j, a_j)/2
    positive_roots: Tuple[Root, ...]     # sorted by (height, coords)
    gram: Tuple[Tuple[int, ...], ...]    # gram[i][j] = (a_i, a_j)
    fundamental_weights: Tuple[Vector, ...]  # in root coordinates

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
        eye = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            eye.append(tuple(e))
        return tuple(eye)

    @property
    def rho(self) -> Vector:
        two_rho = [0] * self.rank
        for r in self.positive_roots:
            for i, x in enumerate(r):
                two_rho[i] += x
        return tuple(QQ(x, 2) for x in two_rho)

    @property
    def highest_root(self) -> Root:
        """The highest positive root (componentwise maximum)."""
        for r in self.positive_roots:
            if all(
                all(r[i] >= s[i] for i in range(self.rank))
                for s in self.positive_roots
            ):
                return r
        raise AssertionError("no highest root; root system not indecomposable?")

    def height(self, r: Sequence) -> int:
        return sum(r)

    def s_keys(self) -> Tuple[int, ...]:
        return S_KEYS[self.label]

@lru_cache(maxsize=None)
def build_root_datum(label: str) -> RootDatum:
    if label not in CARTAN_TABLES:
        raise UnsupportedType(f"unsupported root system type {label!r}")
    cartan_rows, d = CARTAN_TABLES[label]
    rank = len(d)
    cartan = tuple(tuple(row) for row in cartan_rows)
    gram = tuple(
        tuple(cartan[i][j] * d[j] for j in range(rank)) for i in range(rank)
    )
    for i in range(rank):
        for j in range(rank):
            assert gram[i][j] == gram[j][i], "Cartan/d tables inconsistent"

    datum = RootDatum.__new__(RootDatum)
    object.__setattr__(datum, "label", label)
    object.__setattr__(datum, "rank", rank)
    object.__setattr__(datum, "cartan", cartan)
    object.__setattr__(datum, "d", tuple(d))
    object.__setattr__(datum, "gram", gram)
    object.__setattr__(datum, "positive_roots", ())

    # close the simple roots under the reflection orbit
    roots = set()
    frontier = list(datum.simple_roots)
    while frontier:
        r = frontier.pop()
        if r in roots:
            continue
        roots.add(r)
        for j in range(rank):
            s = datum.reflect_simple(j, r)
            if s not in roots:
                frontier.append(s)
    positive = sorted(
        (r for r in roots if all(x >= 0 for x in r)),
        key=lambda r: (sum(r), r),
    )
    object.__setattr__(datum, "positive_roots", tuple(positive))

    # fundamental weights: solve sum_k c_k cartan[k][j] = delta_ij
    fw = []
    for i in range(rank):
        cols = [[QQ(cartan[k][j]) for k in range(rank)] for j in range(rank)]
        # gaussian solve (tiny dense system)
        mat = [[cols[j][k] for k in range(rank)] + [QQ(1 if j == i else 0)] for j in range(rank)]
        for p in range(rank):
            piv = next(r for r in range(p, rank) if mat[r][p])
            mat[p], mat[piv] = mat[piv], mat[p]
            inv = mat[p][p]
            mat[p] = [x / inv for x in mat[p]]
            for r in range(rank):
                if r != p and mat[r][p]:
                    f = mat[r][p]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[p])]
        fw.append(tuple(mat[k][rank] for k in range(rank)))
    object.__setattr__(datum, "fundamental_weights", tuple(fw))

    _validate_datum(datum)
    return datum


def _validate_datum(datum: RootDatum) -> None:
    short = min(datum.pair_roots(r, r) for r in datum.positive_roots)
    assert short == 2, "short roots must have squared length 2"
    assert datum.n_positive in (1, 3, 4, 6), "unexpected number of positive roots"
    for i in range(datum.rank):
        for j in range(datum.rank):
            num = 2 * datum.gram[i][j]
            den = datum.gram[j][j]
            assert datum.cartan[i][j] * den == num
    for i, w in enumerate(datum.fundamental_weights):
        for j in range(datum.rank):
            assert datum.coroot_pair(w, j) == (1 if i == j else 0)
    # rho in weight coordinates is (1,...,1)
    rho = datum.rho
    for j in range(datum.rank):
        assert datum.coroot_pair(rho, j) == 1, "rho must pair to 1 with each coroot"


@dataclass(frozen=True)
class ConvexOrder:
    """Positive roots listed as gamma_i = s_{b_1}...s_{b_{i-1}}(b_i)."""

    datum: RootDatum
    word: Tuple[int, ...]  # 1-based simple indices
    gammas: Tuple[Root, ...]

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
def convex_order(label_or_datum, word: Tuple[int, ...]) -> ConvexOrder:
    datum = (
        label_or_datum
        if isinstance(label_or_datum, RootDatum)
        else build_root_datum(label_or_datum)
    )
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
    words = {
        "A1": (1,),
        "A2": (1, 2, 1),
        "B2": (1, 2, 1, 2),
        "G2": (1, 2, 1, 2, 1, 2),
        "A3": (1, 2, 1, 3, 2, 1),
    }
    return words[label]
