"""Generic quantized enveloping algebra machinery over Q(q).

Elements are represented as linear combinations of words:

* mixed words use letters ('E', i), ('F', i), ('K', mu) with i a
  0-based simple index and mu an integer vector in root coordinates;
* pure one-sided elements (inside the plus or minus part) use abstract
  words: plain tuples of 0-based simple indices.  The letter side is
  implicit, which lets the plus and minus parts share all of the
  word-space linear algebra.

Everything is computed, nothing is hardcoded beyond the generator-level
data: quantum Serre relators, braid operator images on generators, and
the Hopf structure on generators.  These inputs are pinned down by the
validation suite (weight-space dimensions against Kostant partition
counts, braid relations, anti-automorphism conjugations), which is the
reason this module exposes so many cross-checkable primitives; the
checks that only the suite runs (Kostant counts, tau, the coproduct) live
in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Dict, List, Tuple

from .linalg import Eliminator, memoized, vec_add_term
from .rootdata import ConvexOrder, RootDatum, build_root_datum
from .scalars import (
    L_ONE,
    Laurent,
    Localized,
    QFraction,
    q_binom,
    q_factorial,
)

Letter = Tuple  # ('E', i) | ('F', i) | ('K', mu)
Word = Tuple[Letter, ...]
AbstractWord = Tuple[int, ...]
Elt = Dict[Word, QFraction]
SideElt = Dict[AbstractWord, QFraction]
Triangular = Dict[Tuple[AbstractWord, Tuple[int, ...], AbstractWord], QFraction]


def qf(x) -> QFraction:
    return QFraction.of(x)


def q_power(n: int) -> QFraction:
    return QFraction(Laurent.q_power(n))


def el_mul(a: Elt, b: Elt) -> Elt:
    out: Elt = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            vec_add_term(out, wa + wb, ca * cb)
    return out


class NotOneSided(ArithmeticError):
    """A braid image left the modeled one-sided subalgebra."""


class UqGeneric:
    """Per-root-datum workspace with memoized rewriting and linear algebra."""

    def __init__(self, datum: RootDatum):
        self.datum = datum

    # ------------------------------------------------------------------
    # generators and defining relations

    def alpha(self, i: int) -> Tuple[int, ...]:
        e = [0] * self.datum.rank
        e[i] = 1
        return tuple(e)

    def gen(self, side: str, i: int) -> Elt:
        return {((side, i),): qf(1)}

    def serre_relators(self) -> List[Tuple[Tuple[int, ...], SideElt]]:
        """Quantum Serre relators as abstract words, with their weights.

        For each ordered pair (i, j), i != j, the relator
        sum_s (-1)^s [1-a;s]_{q_i} X_i^{1-a-s} X_j X_i^s  with
        a = <alpha_j, alpha_i^vee>; it is homogeneous of weight
        (1-a) alpha_i + alpha_j and has the same coefficients on either
        side of the triangular decomposition.
        """
        datum = self.datum
        out = []
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i == j:
                    continue
                a = datum.cartan[j][i]
                r = 1 - a
                terms: SideElt = {}
                for s in range(r + 1):
                    word = (i,) * (r - s) + (j,) + (i,) * s
                    coeff = qf(q_binom(r, s, datum.d[i]))
                    if s % 2:
                        coeff = -coeff
                    terms[word] = terms.get(word, qf(0)) + coeff
                weight = tuple(
                    r * x + y for x, y in zip(self.alpha(i), self.alpha(j))
                )
                out.append((weight, {w: c for w, c in terms.items() if c}))
        return out

    # ------------------------------------------------------------------
    # triangular normal ordering of mixed words

    @memoized
    def normal_order_word(self, word: Word) -> Triangular:
        datum = self.datum
        cls = {"F": 0, "K": 1, "E": 2}
        bad = -1
        for t in range(len(word) - 1):
            if cls[word[t][0]] > cls[word[t + 1][0]]:
                bad = t
                break
        if bad < 0:
            fw = tuple(l[1] for l in word if l[0] == "F")
            ew = tuple(l[1] for l in word if l[0] == "E")
            kv = [0] * datum.rank
            for l in word:
                if l[0] == "K":
                    for n, x in enumerate(l[1]):
                        kv[n] += x
            return {(fw, tuple(kv), ew): qf(1)}

        left, a, b, right = word[:bad], word[bad], word[bad + 1], word[bad + 2:]
        acc: Triangular = {}

        def absorb(mid_terms: List[Tuple[Word, QFraction]]):
            for mid, c in mid_terms:
                sub = self.normal_order_word(left + mid + right)
                for key, c2 in sub.items():
                    vec_add_term(acc, key, c * c2)

        if a[0] == "K" and b[0] == "F":
            mu, j = a[1], b[1]
            coeff = q_power(-datum.pair_roots(mu, self.alpha(j)))
            absorb([((b, a), coeff)])
        elif a[0] == "E" and b[0] == "K":
            i, mu = a[1], b[1]
            coeff = q_power(-datum.pair_roots(mu, self.alpha(i)))
            absorb([((b, a), coeff)])
        elif a[0] == "E" and b[0] == "F":
            i, j = a[1], b[1]
            terms: List[Tuple[Word, QFraction]] = [((b, a), qf(1))]
            if i == j:
                di = datum.d[i]
                denom = qf(Laurent.q_power(di) - Laurent.q_power(-di))
                al = self.alpha(i)
                nal = tuple(-x for x in al)
                terms.append((((("K", al),)), qf(1) / denom))
                terms.append((((("K", nal),)), -(qf(1) / denom)))
            absorb(terms)
        else:  # K,K adjacency handled by merging
            assert a[0] == "K" and b[0] == "K"
            mu = tuple(x + y for x, y in zip(a[1], b[1]))
            absorb([((("K", mu),), qf(1))])
        return acc

    def normal_order(self, elt: Elt) -> Triangular:
        out: Triangular = {}
        for w, c in elt.items():
            for key, c2 in self.normal_order_word(w).items():
                vec_add_term(out, key, c * c2)
        return out

    def project_side(self, elt: Elt, side: str) -> SideElt:
        """Triangular-normalize and assert the element is purely one-sided."""
        tri = self.normal_order(elt)
        out: SideElt = {}
        zero_k = (0,) * self.datum.rank
        for (fw, kv, ew), c in tri.items():
            if side == "E":
                if fw or kv != zero_k:
                    raise NotOneSided(f"element has F/K part: {fw} K{kv}")
                out[ew] = c
            else:
                if ew or kv != zero_k:
                    raise NotOneSided(f"element has E/K part: K{kv} {ew}")
                out[fw] = c
        return {w: c for w, c in out.items() if c}

    # ------------------------------------------------------------------
    # braid operators

    def _divided_word(self, side: str, i: int, n: int) -> Tuple[Word, QFraction]:
        word = ((side, i),) * n
        coeff = qf(1) / qf(q_factorial(n, self.datum.d[i]))
        return word, coeff

    def braid_image(self, i: int, letter: Letter, inverse: bool = False) -> Elt:
        datum = self.datum
        kind = letter[0]
        if kind == "K":
            mu = datum.reflect_simple(i, letter[1])
            return {(("K", tuple(int(x) for x in mu)),): qf(1)}
        j = letter[1]
        al = self.alpha(i)
        if j == i:
            if kind == "E":
                if not inverse:
                    return {(("F", i), ("K", al)): qf(-1)}
                return {(("K", tuple(-x for x in al)), ("F", i)): qf(-1)}
            if not inverse:
                return {(("K", tuple(-x for x in al)), ("E", i)): qf(-1)}
            return {(("E", i), ("K", al)): qf(-1)}
        r = -datum.cartan[j][i]
        di = datum.d[i]
        # X_j goes to sum_s (-1)^s q^{sign s d_i} X_i^{(a)} X_j X_i^{(b)}, with
        # (a, b) = (r-s, s) for E and (s, r-s) for F; the inverse swaps a and b
        sign = -1 if kind == "E" else 1
        out: Elt = {}
        for s in range(r + 1):
            a, b = (r - s, s) if (kind == "E") != inverse else (s, r - s)
            w1, c1 = self._divided_word(kind, i, a)
            w2, c2 = self._divided_word(kind, i, b)
            coeff = c1 * c2 * q_power(sign * s * di)
            if s % 2:
                coeff = -coeff
            vec_add_term(out, w1 + ((kind, j),) + w2, coeff)
        return out

    def braid_apply(self, i: int, elt: Elt, inverse: bool = False) -> Elt:
        out: Elt = {}
        for w, c in elt.items():
            terms: Elt = {(): c}
            for letter in w:
                terms = el_mul(terms, self.braid_image(i, letter, inverse))
            for w2, c2 in terms.items():
                vec_add_term(out, w2, c2)
        return self.compress(out)

    def compress(self, elt: Elt) -> Elt:
        """Collapse to triangular form with both pure parts reduced mod relators.

        Keeps intermediate braid images small: term counts stay bounded
        by products of weight-component dimensions.
        """
        tri = self.normal_order(elt)
        reduced: Triangular = {}
        for (fw, kv, ew), c in tri.items():
            fred = {fw: c}
            if fw:
                fred = self.weight_space(self.word_weight(fw)).reduce({fw: c})
            for fw2, cf in fred.items():
                ered = {ew: cf}
                if ew:
                    ered = self.weight_space(self.word_weight(ew)).reduce({ew: cf})
                for ew2, ce in ered.items():
                    vec_add_term(reduced, (fw2, kv, ew2), ce)
        out: Elt = {}
        zero_k = (0,) * self.datum.rank
        for (fw, kv, ew), c in reduced.items():
            word = tuple(("F", n) for n in fw)
            if kv != zero_k:
                word = word + (("K", kv),)
            vec_add_term(out, word + tuple(("E", n) for n in ew), c)
        return out

    # ------------------------------------------------------------------
    # root vectors

    @memoized
    def root_vectors(self, order: ConvexOrder, side: str) -> Tuple[SideElt, ...]:
        out: List[SideElt] = []
        for idx in range(len(order.word)):
            beta = order.word[idx] - 1
            elt = self.gen(side, beta)
            for step in range(idx - 1, -1, -1):
                elt = self.braid_apply(order.word[step] - 1, elt)
                # project early: intermediate root vectors stay one-sided
                pure = self.project_side(elt, side)
                elt = {
                    tuple((side, n) for n in w): c for w, c in pure.items()
                }
            out.append(self.project_side(elt, side))
        return tuple(out)

    # ------------------------------------------------------------------
    # abstract word spaces modulo Serre relators

    def word_weight(self, word: AbstractWord) -> Tuple[int, ...]:
        out = [0] * self.datum.rank
        for i in word:
            out[i] += 1
        return tuple(out)

    def words_of_weight(self, nu: Tuple[int, ...]) -> List[AbstractWord]:
        letters: List[int] = []
        for i, c in enumerate(nu):
            letters.extend([i] * c)
        out: List[AbstractWord] = []

        def rec(remaining: List[int], cur: List[int]):
            if not remaining:
                out.append(tuple(cur))
                return
            seen = set()
            for t, l in enumerate(remaining):
                if l in seen:
                    continue
                seen.add(l)
                rec(remaining[:t] + remaining[t + 1:], cur + [l])

        rec(sorted(letters), [])
        return sorted(out)

    @memoized
    def weight_space(self, nu: Tuple[int, ...]) -> "WeightSpace":
        return WeightSpace(self, nu)

    # ------------------------------------------------------------------
    # PBW expansion

    def pbw_monomials(self, order: ConvexOrder, nu: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        gammas = order.gammas
        n = len(gammas)
        out: List[Tuple[int, ...]] = []

        def rec(idx: int, rem: Tuple[int, ...], cur: List[int]):
            if idx == n:
                if all(x == 0 for x in rem):
                    out.append(tuple(cur))
                return
            g = gammas[idx]
            a = 0
            r = rem
            while all(x >= 0 for x in r):
                rec(idx + 1, r, cur + [a])
                a += 1
                r = tuple(x - y for x, y in zip(r, g))

        rec(0, tuple(nu), [])
        return sorted(out)

    @memoized
    def pbw_context(self, order: ConvexOrder, side: str, nu: Tuple[int, ...]) -> "PBWContext":
        return PBWContext(self, order, side, nu)

    def monomial_words(self, order: ConvexOrder, side: str, exp: Tuple[int, ...]) -> SideElt:
        """Word expansion of the plain-power monomial prod_i X_{gamma_i}^{a_i}."""
        rvs = self.root_vectors(order, side)
        out: SideElt = {(): qf(1)}
        for i, a in enumerate(exp):
            for _ in range(a):
                nxt: SideElt = {}
                for w, c in out.items():
                    for w2, c2 in rvs[i].items():
                        vec_add_term(nxt, w + w2, c * c2)
                out = nxt
        return out

    def pbw_expand(self, order: ConvexOrder, elt: SideElt, side: str = "E") -> Dict[Tuple[int, ...], QFraction]:
        """Exact expansion of a one-sided element in the plain PBW basis."""
        by_weight: Dict[Tuple[int, ...], SideElt] = {}
        for w, c in elt.items():
            by_weight.setdefault(self.word_weight(w), {})[w] = c
        out: Dict[Tuple[int, ...], QFraction] = {}
        for nu, part in by_weight.items():
            ctx = self.pbw_context(order, side, nu)
            for exp, c in ctx.expand(part).items():
                vec_add_term(out, exp, c)
        return out

    # ------------------------------------------------------------------
    # structure constants

    @memoized
    def structure_table(self, order: ConvexOrder) -> "StructureTable":
        return build_structure_table(self, order)


class WeightSpace:
    """Weight-nu component of the one-sided algebra as a word-space quotient."""

    def __init__(self, uq: UqGeneric, nu: Tuple[int, ...]):
        self.uq = uq
        self.nu = nu
        self.words = uq.words_of_weight(nu)
        self.elim = Eliminator()
        relators = uq.serre_relators()
        for weight, rel in relators:
            rem = tuple(a - b for a, b in zip(nu, weight))
            if any(x < 0 for x in rem):
                continue
            for left_w in itertools.product(*(range(c + 1) for c in rem)):
                right_w = tuple(a - b for a, b in zip(rem, left_w))
                for u in uq.words_of_weight(left_w):
                    for v in uq.words_of_weight(right_w):
                        vec = {u + w + v: c for w, c in rel.items()}
                        self.elim.add(vec)
        self.dim = len(self.words) - self.elim.rank
        self.basis_words = [w for w in self.words if w not in self.elim.pivots]

    def reduce(self, vec: SideElt) -> SideElt:
        return self.elim.reduce(vec)


class PBWContext:
    """Expansion of weight-nu elements in the plain-power PBW basis."""

    def __init__(self, uq: UqGeneric, order: ConvexOrder, side: str, nu: Tuple[int, ...]):
        self.uq = uq
        self.order = order
        self.side = side
        self.nu = nu
        self.ws = uq.weight_space(nu)
        self.exps = uq.pbw_monomials(order, nu)
        self.echelon = Eliminator()
        one = QFraction(L_ONE)
        for exp in self.exps:
            vec = uq.monomial_words(order, side, exp)
            red = self.ws.reduce(vec)
            if self.echelon.add(red, {exp: one}) is None:
                raise AssertionError(
                    f"PBW monomial {exp} dependent in weight {nu}: relators inconsistent"
                )
        if self.echelon.rank != self.ws.dim:
            raise AssertionError(
                f"PBW monomials of weight {nu} span {self.echelon.rank} < dim {self.ws.dim}"
            )

    def expand(self, vec: SideElt) -> Dict[Tuple[int, ...], QFraction]:
        red = self.ws.reduce(vec)
        sol = self.echelon.solve(red)
        if sol is None:
            raise AssertionError("element not expressible in PBW basis (bug)")
        return {exp: c for exp, c in sol.items() if c}


class StructureTable:
    """Straightening data E_{gamma_i} E_{gamma_j} for i < j, plus the F mirror.

    Entries map (i, j) (1-based, i < j) to the tail {exp: Localized} of
    inner-supported plain monomials; the leading coefficient is exactly
    q^{(gamma_i, gamma_j)} and is stored for serialization.
    """

    def __init__(self, order: ConvexOrder, s_keys: Tuple[int, ...],
                 e_entries: Dict[Tuple[int, int], Dict[Tuple[int, ...], Localized]],
                 f_entries: Dict[Tuple[int, int], Dict[Tuple[int, ...], Localized]], omega_units: Tuple[QFraction, ...]):
        self.order = order
        self.s_keys = s_keys
        self.e_entries = e_entries
        self.f_entries = f_entries
        self.omega_units = omega_units  # omega(E_gamma_i) = unit * F_gamma_i

    def leading_exponent(self, i: int, j: int) -> int:
        g = self.order.gammas
        return self.order.datum.pair_roots(g[i - 1], g[j - 1])

    def denominator_count(self) -> int:
        """How many tail coefficients, E and F side, have an S-denominator."""
        return sum(
            c.denominator_nontrivial()
            for entries in (self.e_entries, self.f_entries)
            for tail in entries.values()
            for c in tail.values()
        )


def build_structure_table(uq: UqGeneric, order: ConvexOrder) -> StructureTable:
    datum = uq.datum
    n = datum.n_positive
    s_keys = datum.s_keys
    rvs_e = uq.root_vectors(order, "E")
    rvs_f = uq.root_vectors(order, "F")

    # omega-conjugation units: omega(E_{gamma_i}) = c_i F_{gamma_i}
    units: List[QFraction] = []
    for i in range(n):
        img = dict(rvs_e[i])  # omega maps E-words to F-words with equal coeffs
        nu = uq.word_weight(next(iter(img)))
        ctx = uq.pbw_context(order, "F", nu)
        coords = ctx.expand(img)
        target = tuple(1 if t == i else 0 for t in range(n))
        if set(coords) != {target}:
            raise AssertionError(f"omega(E_gamma_{i+1}) is not proportional to F_gamma_{i+1}")
        c = coords[target]
        if not (c.is_laurent() and c.num.is_unit()):
            raise AssertionError(f"omega unit for gamma_{i+1} is not +-q^a: {c}")
        units.append(c)

    e_entries: Dict[Tuple[int, int], Dict[Tuple[int, ...], Localized]] = {}
    f_entries: Dict[Tuple[int, int], Dict[Tuple[int, ...], Localized]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # expand the descending product E_{gamma_j} E_{gamma_i} in the
            # (ascending) PBW basis; the lemma form
            #   E_i E_j = q^{(gi,gj)} E_j E_i + sum t_a E^a
            # is equivalent to descending coords
            #   lead q^{-(gi,gj)} on e_i+e_j and -q^{-(gi,gj)} t_a on a.
            prod: SideElt = {}
            for w1, c1 in rvs_e[j - 1].items():
                for w2, c2 in rvs_e[i - 1].items():
                    vec_add_term(prod, w1 + w2, c1 * c2)
            coords = uq.pbw_expand(order, prod, "E")
            pairing = datum.pair_roots(order.gammas[i - 1], order.gammas[j - 1])
            lead_exp = tuple(
                1 if t in (i - 1, j - 1) else 0 for t in range(n)
            )
            lead = coords.pop(lead_exp, QFraction.of(0))
            if lead != q_power(-pairing):
                raise AssertionError(
                    f"leading coefficient of ({i},{j}) is {lead}, expected q^{-pairing}"
                )
            tail: Dict[Tuple[int, ...], Localized] = {}
            ftail: Dict[Tuple[int, ...], Localized] = {}
            for exp, c in coords.items():
                if not c:
                    continue
                support = [t + 1 for t, a in enumerate(exp) if a]
                if not all(i < s < j for s in support):
                    raise AssertionError(
                        f"tail of ({i},{j}) has support {support} outside ({i},{j})"
                    )
                t_a = -(q_power(pairing) * c)
                tail[exp] = Localized.from_fraction(t_a, s_keys)
                cf = t_a
                for t, a in enumerate(exp):
                    if a:
                        cf = cf * units[t] ** a
                cf = cf / (units[i - 1] * units[j - 1])
                ftail[exp] = Localized.from_fraction(cf, s_keys)
            e_entries[(i, j)] = tail
            f_entries[(i, j)] = ftail
    return StructureTable(order, s_keys, e_entries, f_entries, tuple(units))


@cache
def generic_uq(label: str) -> UqGeneric:
    return UqGeneric(build_root_datum(label))
