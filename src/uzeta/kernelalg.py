"""Specialization at a root of unity and finite-dimensional kernel algebras.

A ``KernelContext`` fixes a root system, a convex order, a residue field
containing the primitive root, and the kernel level r (r = 1 needs
positive characteristic and type A1; r >= 2 is not built).  It also
describes each algebra kind once, as an ``AlgebraKind``.  It memoizes all straightening data:

* specialized commutation tables for plain root vectors,
* root-vector expansions into words of simple generators,
* reduction of one-sided words to divided-power PBW coordinates,
* each one-sided divided monomial as letters times monomials one letter
  lower, and from it, by recursion on that letter, the mixed pushes of a
  simple E past a divided F-monomial (and mirrored), valid while all
  exponents are < ell (r = 0),
* the closed rank-one formula for E^{(m)} F^{(n)} used by higher kernels.

The context holds the action conventions that algebras, modules and
projective covers share.  ``pbw_terms`` writes a generator acting on a
torus-free PBW pair F^{(f)} E^{(e)} as terms F^{(f2)} K^{kv} E^{(e2)}, or
with the torus evaluated at a weight: a kernel algebra shifts the terms by
its K^k, a projective cover u e_lam (``inject.projective_split_test``) and
the baby Verma module Z(lam) = u e_lam / u u+_{>0} e_lam evaluate them at
lam.  The terms are built without lam once per context.  ``monomial`` and
``root_vector`` apply a PBW monomial and a plain root vector through any
generator action, and ``pbw_weight`` gives its weight.

Algebras are presented on enumerated divided-power PBW bases.  Elements
are sparse dicts over basis keys (f_exponents, torus_exponents,
e_exponents); torus exponents are reduced mod ell since K^ell = 1.
K^k is K_mu for mu = sum k_i alpha_i, so a torus exponent vector is also
its root-lattice element in simple-root coordinates.
Products are computed generator-by-generator; no dim^2 tables are built.
Root vectors are generators too: the column of a plain root vector on a
basis key is built once per algebra and cached like a simple generator's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .genericuq import UqGeneric, generic_uq
from .linalg import Eliminator, Mat, SpanSolver, Vec, kernel_basis, vec_add_term, vec_iadd_scaled
from .rootdata import ConvexOrder
from .scalars import q_int

FExp = Tuple[int, ...]
KExp = Tuple[int, ...]
BasisKey = Tuple[FExp, KExp, FExp]
GenKey = Tuple[str, int]  # ('E', j), ('F', j), ('K', j), ('Erv', pos), ('Frv', pos), ('Ed0', 0), ('Fd0', 0)
# (f2, kv, e2, kd, off, t, c); see KernelContext._pbw_term_list
PBWTerm = Tuple[FExp, KExp, FExp, Optional[Tuple[int, ...]], Optional[int], int, object]


class SpecializationError(ArithmeticError):
    pass


def specialize_table(table, field):
    """Field-coefficient commutation data from a generic structure table.

    Returns {side: {(i, j): {exp: coeff}}} tails plus leading powers; a
    vanishing S-generator denominator raises SpecializationError (the
    cached table would have to be corrupt: the S generators do not
    vanish at a primitive root of odd order coprime to the bad primes).
    """
    out = {"E": {}, "F": {}}
    for side, entries in (("E", table.e_entries), ("F", table.f_entries)):
        for key, tail in entries.items():
            spec_tail = {}
            for exp, c in tail.items():
                try:
                    spec_tail[exp] = field.eval_localized(c)
                except ZeroDivisionError as e:
                    raise SpecializationError(str(e)) from e
            out[side][key] = spec_tail
    return out


class KernelContext:
    """Shared straightening caches for one (type, order, field, r) choice.

    ``table`` may inject an externally loaded structure table.  It must
    carry e_entries / f_entries, the tails {(i, j): {exp: Localized}} of
    the commutation relations, and omega_units, one QFraction per
    convex-order position with omega(E_gamma_i) = unit * F_gamma_i.  By
    default the table is computed from scratch.
    """

    def __init__(self, order: ConvexOrder, field, r: int = 0, table=None):
        self.order = order
        self.datum = order.datum
        self.field = field
        self.ell = field.ell
        self.r = r
        if r > 0 and field.char == 0:
            raise ValueError("higher kernels need positive characteristic")
        if r > 1 or (r == 1 and order.datum.label != "A1"):
            raise ValueError("higher kernels are built for r = 1 in type A1 only")
        self.p = field.char
        self.cap = self.ell * (self.p ** r if r else 1)
        self.n = self.datum.n_positive
        self.rank = self.datum.rank
        self.uq: UqGeneric = generic_uq(self.datum.label)
        gen_table = self.uq.structure_table(order) if table is None else table
        self.tables = specialize_table(gen_table, field)
        self.omega_units = tuple(field.eval_fraction(u) for u in gen_table.omega_units)
        if len(self.omega_units) != self.n:
            raise ValueError(f"table carries {len(self.omega_units)} omega units, not {self.n}")
        # positions of the simple roots inside the convex order
        self.simple_pos = tuple(
            order.gammas.index(self.datum.simple_roots[j]) for j in range(self.rank)
        )
        self.d_gamma = tuple(self.datum.d_of_root(g) for g in order.gammas)
        # root vectors as simple-letter words with field coefficients
        self.rv_words = {}
        for side in ("E", "F"):
            rvs = self.uq.root_vectors(order, side)
            self.rv_words[side] = tuple(
                tuple((w, field.eval_fraction(c)) for w, c in sorted(rv.items()))
                for rv in rvs
            )
        self._qn: Dict[Tuple[int, int], object] = {}
        self._qfact: Dict[Tuple[int, int], object] = {}
        self._qfact_inv: Dict[Tuple[int, int], object] = {}
        self._reduce: Dict[Tuple[str, Tuple[int, ...]], Dict[FExp, object]] = {}
        self._by_weight: Optional[Dict[Tuple[int, ...], List[FExp]]] = None
        self._letter_terms: Dict[Tuple[str, FExp], Dict[Tuple[GenKey, FExp], object]] = {}
        self._pushes: Dict[Tuple[str, int, FExp], Tuple] = {}
        self._kbinom: Dict[Tuple[int, int, int], object] = {}
        self._pbw: Dict[Tuple[str, GenKey, FExp, FExp], Tuple[PBWTerm, ...]] = {}
        self._lmul_rv: Dict[Tuple[str, int, FExp], Dict[FExp, object]] = {}
        self._rmul_rv: Dict[Tuple[str, int, FExp], Dict[FExp, object]] = {}
        self._kinds: Dict[str, "AlgebraKind"] = {}
        self._algebras: Dict[str, "KernelAlgebra"] = {}
        self._cover_keys: Dict[str, Tuple] = {}
        self._serre: Optional[Tuple] = None
        # checked modules by spec text, filled by cli.run_case
        self.realized: Dict[str, object] = {}

    # -- scalar helpers --------------------------------------------------

    def qn(self, n: int, d: int = 1):
        key = (n, d)
        hit = self._qn.get(key)
        if hit is None:
            hit = self.field.eval_laurent(q_int(n, d))
            self._qn[key] = hit
        return hit

    def qfact(self, n: int, d: int = 1):
        key = (n, d)
        hit = self._qfact.get(key)
        if hit is None:
            hit = self.qfact(n - 1, d) * self.qn(n, d) if n > 1 else self.field.one
            self._qfact[key] = hit
        return hit

    def qfact_inv(self, n: int, d: int = 1):
        """1 / [n]_d!, inverted once per (n, d)."""
        key = (n, d)
        hit = self._qfact_inv.get(key)
        if hit is None:
            hit = self.field.one / self.qfact(n, d)
            self._qfact_inv[key] = hit
        return hit

    def serre_relators(self):
        """The quantum Serre relators as (word, coefficient) pairs in the field.

        Evaluated on first use and then kept, so a module check does not
        rebuild them in Q(q) for every vector it samples.
        """
        if self._serre is None:
            self._serre = tuple(
                tuple((word, self.field.eval_fraction(c)) for word, c in rel.items())
                for _, rel in self.uq.serre_relators()
            )
        return self._serre

    def zeta_pow(self, e: int):
        return self.field.zeta_power(e)

    def kmod(self, kv: Sequence[int]) -> KExp:
        return tuple(x % self.ell for x in kv)

    def pair(self, x, y) -> int:
        return self.datum.pair_roots(x, y)

    def weight_of_fexp(self, exp: FExp) -> Tuple[int, ...]:
        out = [0] * self.rank
        for i, a in enumerate(exp):
            if a:
                g = self.order.gammas[i]
                for t in range(self.rank):
                    out[t] += a * g[t]
        return tuple(out)

    def pbw_weight(self, f: FExp, e: FExp) -> Tuple[int, ...]:
        """wt e - wt f in root coordinates: the weight of F^{(f)} K^k E^{(e)}."""
        out = [0] * self.rank
        for i, (a, b) in enumerate(zip(e, f)):
            if a != b:
                for t, g in enumerate(self.order.gammas[i]):
                    out[t] += (a - b) * g
        return tuple(out)

    # -- straightening of one-sided plain words ---------------------------

    def reduce_word(self, side: str, word: Tuple[int, ...]) -> Dict[FExp, object]:
        """Plain-power PBW coordinates of a word in root-vector positions."""
        key = (side, word)
        hit = self._reduce.get(key)
        if hit is not None:
            return hit
        bad = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                bad = t
                break
        if bad < 0:
            exp = [0] * self.n
            for s in word:
                exp[s] += 1
            out = {tuple(exp): self.field.one}
            self._reduce[key] = out
            return out
        hi, lo = word[bad], word[bad + 1]
        pre, post = word[:bad], word[bad + 2:]
        gl, gh = self.order.gammas[lo], self.order.gammas[hi]
        pairing = self.pair(gl, gh)
        lead = self.zeta_pow(-pairing)
        tail = self.tables[side][(lo + 1, hi + 1)]
        acc: Dict[FExp, object] = {}

        def absorb(subword, coeff):
            for e2, c2 in self.reduce_word(side, subword).items():
                vec_add_term(acc, e2, coeff * c2)

        absorb(pre + (lo, hi) + post, lead)
        for exp, c in tail.items():
            mid = tuple(
                s for s in range(self.n) for _ in range(exp[s])
            )
            absorb(pre + mid + post, -(lead * c))
        self._reduce[key] = acc
        return acc

    def plain_to_divided(self, coords: Dict[FExp, object]) -> Dict[FExp, object]:
        out: Dict[FExp, object] = {}
        for exp, c in coords.items():
            f = self.field.one
            dead = False
            for i, a in enumerate(exp):
                if a:
                    if a >= self.cap:
                        dead = True
                        break
                    f = f * self.qfact(a, self.d_gamma[i])
            if dead:
                continue
            if f:
                vec_add_term(out, exp, c * f)
        return out

    def lmul_rv(self, side: str, s: int, exp: FExp) -> Dict[FExp, object]:
        """Divided coordinates of (plain root vector at position s) * X^{(exp)}."""
        key = (side, s, exp)
        hit = self._lmul_rv.get(key)
        if hit is not None:
            return hit
        out = self._mul_rv(side, s, exp, left=True)
        self._lmul_rv[key] = out
        return out

    def rmul_rv(self, side: str, s: int, exp: FExp) -> Dict[FExp, object]:
        key = (side, s, exp)
        hit = self._rmul_rv.get(key)
        if hit is not None:
            return hit
        out = self._mul_rv(side, s, exp, left=False)
        self._rmul_rv[key] = out
        return out

    def _mul_rv(self, side: str, s: int, exp: FExp, left: bool) -> Dict[FExp, object]:
        if self.n == 1:
            # rank one: pure divided-power collection, valid for every r
            a = exp[0]
            c = self.qn(a + 1, self.d_gamma[0])
            if a + 1 >= self.cap or not c:
                return {}
            return {(a + 1,): c}
        # invert the divided normalization (valid: exponents < ell at r = 0)
        inv = self.field.one
        for i, a in enumerate(exp):
            if a:
                inv = inv * self.qfact_inv(a, self.d_gamma[i])
        word = tuple(i for i in range(self.n) for _ in range(exp[i]))
        word = ((s,) + word) if left else (word + (s,))
        plain = self.reduce_word(side, word)
        return self.plain_to_divided({e: c * inv for e, c in plain.items()})

    # -- one-letter recursion ------------------------------------------------

    def letter_times(self, side: str, letter: GenKey, exp: FExp) -> Dict[FExp, object]:
        """Divided coordinates of x X^{(exp)} (side F) or X^{(exp)} x (side E)."""
        kind, j = letter
        if kind == side:
            mul = self.lmul_rv if side == "F" else self.rmul_rv
            return mul(side, self.simple_pos[j], exp)
        # X^{(ell)} in rank one: pure divided-power collection
        a = exp[0] + self.ell
        c = self.gauss_binom(a, self.ell, self.d_gamma[0])
        return {(a,): c} if a < self.cap and c else {}

    def letter_terms(self, side: str, exp: FExp) -> Dict[Tuple[GenKey, FExp], object]:
        """Nonzero X^{(exp)} as sum c * x X^{(e)} (side F) or sum c * X^{(e)} x (side E).

        Returns {(x, e): c} over the letters x: the simple X_j, and X^{(ell)}
        at r = 1.  They generate the one-sided kernel, so every monomial of
        nonzero weight lies in the span of the columns "letter times a
        monomial one letter lower"; one ``SpanSolver`` per weight solves all
        its monomials.
        """
        key = (side, exp)
        if key not in self._letter_terms:
            wt = self.weight_of_fexp(exp)
            solver = SpanSolver(self.field.one)
            letters = [(side, j) for j in range(self.rank)] + ([(side + "d0", 0)] if self.r else [])
            for letter in letters:
                step = 1 if letter[0] == side else self.ell
                below = tuple(w - step * (t == letter[1]) for t, w in enumerate(wt))
                for e in self._exps_by_weight().get(below, ()):
                    solver.add((letter, e), self.letter_times(side, letter, e))
            for a in self._exps_by_weight()[wt]:
                sol = solver.solve({a: self.field.one})
                if sol is None:
                    raise ArithmeticError(f"{side}^({a}) is not a sum of letter products")
                self._letter_terms[(side, a)] = sol
        return self._letter_terms[key]

    def _exps_by_weight(self) -> Dict[Tuple[int, ...], List[FExp]]:
        if self._by_weight is None:
            self._by_weight = {}
            for exp in itertools.product(range(self.cap), repeat=self.n):
                self._by_weight.setdefault(self.weight_of_fexp(exp), []).append(exp)
        return self._by_weight

    # -- mixed pushes ------------------------------------------------------

    def push_E_through_F(self, j: int, exp: FExp) -> Tuple:
        """E_j * F^{(exp)} as sum F^{(exp')} K^{kv} (E_j or 1).

        Returns a tuple of ((exp', kv mod ell, has_e), coeff); see ``_push``.
        """
        return self._push("F", j, exp)

    def push_F_through_E(self, j: int, exp: FExp) -> Tuple:
        """E^{(exp)} * F_j as sum (F_j or 1) K^{kv} E^{(exp')}.

        Mirrored push used by coinduced modules.  Returns a tuple of
        ((has_f, kv mod ell, exp'), coeff); see ``_push``.
        """
        return self._push("E", j, exp)

    def _push(self, side: str, j: int, exp: FExp) -> Tuple:
        """E_j X^{(exp)} (side F) or X^{(exp)} F_j (side E), by recursion on one letter.

        With F^{(a)} = sum c F_i F^{(e)} (``letter_terms``) and the relation
        E_j F_i = F_i E_j + delta_ij (K_j - K_j^-1)/(q_j - q_j^-1),

            E_j F^{(a)} = sum c (F_i E_j F^{(e)} + delta_ij (K_j - K_j^-1)/(q_j - q_j^-1) F^{(e)}),

        and K_j^{+-1} moves right past F^{(e)} at the cost zeta^{-+(alpha_j, wt e)}.
        The mirror E^{(a)} = sum c E^{(e)} E_i gives E^{(a)} F_j, with K moved
        left past E^{(e)} at the same cost.  Terms are sorted keys
        (exp', kv, has_e) on side F and (has_f, kv, exp') on side E; kv is
        nonzero only on commutator terms.  Valid while all exponents are
        < ell (r = 0), where the letters are the simple X_i.
        """
        key = (side, j, exp)
        hit = self._pushes.get(key)
        if hit is not None:
            return hit
        acc: Dict[Tuple[FExp, KExp, int], object] = {}
        if not any(exp):
            acc[(exp, (0,) * self.rank, 1)] = self.field.one
        else:
            alpha_j = self.datum.simple_roots[j]
            dj = self.datum.d[j]
            inv_denom = self.field.one / (self.zeta_pow(dj) - self.zeta_pow(-dj))
            for (letter, e), c in self.letter_terms(side, exp).items():
                for k2, c2 in self._push(side, j, e):
                    x, kv, has = k2 if side == "F" else k2[::-1]
                    c2 = c * c2
                    for x2, c3 in self.letter_times(side, letter, x).items():
                        vec_add_term(acc, (x2, kv, has), c2 * c3)
                if letter == (side, j):
                    pairing = self.pair(alpha_j, self.weight_of_fexp(e))
                    for sign in (1, -1):
                        kv = self.kmod(tuple(sign * x for x in alpha_j))
                        scal = self.zeta_pow(-sign * pairing) * inv_denom
                        vec_add_term(acc, (e, kv, 0), c * scal if sign > 0 else -(c * scal))
        out = tuple(sorted((k if side == "F" else k[::-1], c) for k, c in acc.items()))
        self._pushes[key] = out
        return out

    # -- rank one: closed divided-power commutation ------------------------
    #
    # E^{(m)} F^{(n)} = sum_t F^{(n-t)} [K; 2t-m-n over t] E^{(m-t)}.  The
    # K-binomials of depth >= ell are NOT in the span of the group-like
    # K^b (their action on a weight lam vector depends on lam beyond its
    # class mod ell), so they are never materialized as algebra elements:
    # modules and covers evaluate them at a weight via gauss_binom.

    def gauss_binom(self, m: int, t: int, d: int = 1):
        """Specialized generalized Gaussian binomial [m choose t]_{q^d}, m in Z.

        Filled by q-Pascal with z = zeta^d,
        [m, t] = z^(-t) [m-1, t] + z^(m-t) [m-1, t-1], from [m, 0] = 1 and
        [m, t] = 0 for 0 <= m < t, with [m, t] = (-1)^t [t-m-1, t] for
        m < 0.  No step divides, so the quantum integers that vanish at
        zeta do no harm.  One memo per context, keyed (m, t, d).
        """
        hit = self._kbinom.get((m, t, d))
        if hit is not None:
            return hit
        if m < 0:
            val = self.gauss_binom(t - m - 1, t, d)
            val = -val if t % 2 else val
            self._kbinom[(m, t, d)] = val
            return val
        memo, zp = self._kbinom, self.field.zeta_power
        for m2 in range(m + 1):
            for t2 in range(t + 1):
                if (m2, t2, d) in memo:
                    continue
                if t2 == 0:
                    val = self.field.one
                elif m2 < t2:
                    val = self.field.zero
                else:
                    val = zp(-t2 * d) * memo[(m2 - 1, t2, d)] + zp((m2 - t2) * d) * memo[(m2 - 1, t2 - 1, d)]
                memo[(m2, t2, d)] = val
        return memo[(m, t, d)]

    def mixed_rank1_terms(self, m: int, nn: int) -> Tuple[Tuple[int, int, int, int], ...]:
        """Raw terms (n-t, c, t, m-t) with torus factor [K; c over t]."""
        return tuple(
            (nn - t, 2 * t - m - nn, t, m - t) for t in range(min(m, nn) + 1)
        )

    # -- a generator on a torus-free PBW pair -------------------------------

    def pbw_terms(
        self, kind: str, gen: GenKey, f: FExp, e: FExp, lam: Optional[Tuple[int, ...]] = None
    ) -> Dict[BasisKey, object]:
        """gen * F^{(f)} E^{(e)} as {(f2, kv, e2): c} for sum c F^{(f2)} K^{kv} E^{(e2)}.

        gen is a generator of the algebra kind: F_j, E_j, a plain root vector
        Frv / Erv, or at r = 1 X^{(ell)}.  E moves right past F^{(f)} by
        ``push_E_through_F`` at r = 0 and by the rank-one formula for
        E^{(m)} F^{(n)} at r = 1.  Every torus factor stands left of E^{(e2)}:
        given a weight lam it is evaluated on E^{(e2)} v_lam, at
        lam + wt(e2), and kv is 0.  lam enters each term only through the
        integer n = sum_j lam_j kd_j + off of ``_pbw_term_list``, whose
        lam-free terms live as long as the context.  The K-binomials of
        r = 1 are always evaluated, so there lam is needed once f != 0.  A
        non-simple Erv needs f = 0.  A term outside the algebra kind raises
        ArithmeticError.
        """
        terms = self._pbw_term_list(kind, gen, f, e)
        out: Dict[BasisKey, object] = {}
        if lam is None:
            for f2, kv, e2, _, _, t, c in terms:
                if t:
                    raise ValueError(f"{gen} on F^{f} E^{e}: the K-binomials of r = 1 need a weight")
                vec_add_term(out, (f2, kv, e2), c)
            return out
        zero = (0,) * self.rank
        for f2, _, e2, kd, off, t, c in terms:
            if kd is not None:
                n = off + sum(map(mul, lam, kd))
                c = c * (self.gauss_binom(n, t) if t else self.zeta_pow(n))
                if not c:
                    continue
            vec_add_term(out, (f2, zero, e2), c)
        return out

    def _pbw_term_list(self, kind: str, gen: GenKey, f: FExp, e: FExp) -> Tuple[PBWTerm, ...]:
        """The terms of ``pbw_terms`` before the torus is evaluated, in order.

        A term (f2, kv, e2, kd, off, t, c) is c F^{(f2)} K^{kv} E^{(e2)}
        times a torus factor that, on E^{(e2)} v_lam, depends on lam only
        through n = sum_j lam_j kd_j + off: zeta^n at r = 0, where kd is kv
        scaled by the d_j and off = (wt e2, kv), and the K-binomial
        [n over t] at r = 1, where kd and off come from alpha_1 and off
        includes the offset of [K; c over t].  kd is None where there is no
        factor.  Built and checked for closure once per (kind, gen, f, e)
        and kept as long as the context; a build that raises caches nothing.
        """
        key = (kind, gen, f, e)
        hit = self._pbw.get(key)
        if hit is not None:
            return hit
        desc = self.algebra_kind(kind)
        zero = (0,) * self.rank
        terms: List[PBWTerm] = []

        def put(f2, kv, e2, c, root=None, t=0, c_off=0):
            if not c:
                return
            # exponents stay below cap, so a term lies in the kind iff none
            # exceeds its cap (0 where the root vector is absent)
            if not (all(map(le, f2, desc.f_caps)) and all(map(le, e2, desc.e_caps))):
                raise ArithmeticError(
                    f"{kind} is not closed under {gen}: F^{f} E^{e} goes to F^{f2} E^{e2}"
                )
            kd = off = None
            if root is not None:
                # (lam + wt e2, root): the torus stands left of E^{(e2)} v_lam
                kd = tuple(x * dj for x, dj in zip(root, self.datum.d))
                off = self.pair(self.weight_of_fexp(e2), root) + c_off
            terms.append((f2, kv, e2, kd, off, t, c))

        name, j = gen
        pos = self.simple_pos[j] if name in ("F", "E") else j
        if name[0] == "F":
            col = self.letter_times("F", gen, f) if name == "Fd0" else self.lmul_rv("F", pos, f)
            for f2, c in col.items():
                put(f2, zero, e, c)
        elif self.r:
            # rank one: the [K; c over t] of E^{(m)} F^{(n)} stands left of
            # E^{(m-t)} E^{(e)} = [e2 over m-t] E^{(e2)}
            alpha = self.datum.simple_roots[0]
            for f_t, c_off, t, e_t in self.mixed_rank1_terms(1 if name == "E" else self.ell, f[0]):
                e2 = (e_t + e[0],)
                if e2[0] < self.cap:
                    c = self.gauss_binom(e2[0], e_t, self.d_gamma[0])
                    put((f_t,), zero, e2, c, alpha if t else None, t, c_off)
        elif not any(f):
            for e2, c in self.lmul_rv("E", pos, e).items():
                put(f, zero, e2, c)
        else:
            for (f2, kv, has_e), c in self.push_E_through_F(self.simple_pos.index(pos), f):
                root = kv if any(kv) else None
                if has_e:
                    for e2, ce in self.lmul_rv("E", pos, e).items():
                        put(f2, kv, e2, c * ce, root)
                else:
                    put(f2, kv, e, c, root)
        hit = self._pbw[key] = tuple(terms)
        return hit

    # -- algebras ----------------------------------------------------------

    def algebra_kind(self, kind: str) -> "AlgebraKind":
        hit = self._kinds.get(kind)
        if hit is None:
            hit = AlgebraKind.of(self, kind)
            self._kinds[kind] = hit
        return hit

    def algebra(self, kind: str) -> "KernelAlgebra":
        hit = self._algebras.get(kind)
        if hit is None:
            hit = KernelAlgebra(self, kind)
            self._algebras[kind] = hit
        return hit

    def cover_keys(self, kind: str) -> Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[FExp, FExp], ...]], ...]:
        """The cover keys (f, e) of the kind grouped by degree shift, once per kind.

        F^{(f)} E^{(e)} e_lam has weight lam + shift, in weight coordinates,
        with shift = wt e - wt f.  Within a shift the keys keep the order of
        ``exponents``, F exponents major.
        """
        hit = self._cover_keys.get(kind)
        if hit is None:
            desc = self.algebra_kind(kind)
            eparts = desc.exponents("E")
            groups: Dict[Tuple[int, ...], List[Tuple[FExp, FExp]]] = {}
            for f in desc.exponents("F"):
                for e in eparts:
                    shift = self.datum.root_to_weight(self.pbw_weight(f, e))
                    groups.setdefault(shift, []).append((f, e))
            hit = tuple((shift, tuple(keys)) for shift, keys in groups.items())
            self._cover_keys[kind] = hit
        return hit

    # -- actions through a generator action -----------------------------------

    def monomial(
        self, key: BasisKey, vec: Vec, apply: Callable[[GenKey, Vec], Vec], apply_k: Callable[[KExp, Vec], Vec]
    ) -> Vec:
        """F^{(f)} K^k E^{(e)} on vec: the E part at positions N..1, then K^k, then the F part.

        ``apply(gen, vec)`` acts by a generator, ``apply_k(k, vec)`` by K^k.
        The unit monomial returns vec itself.
        """
        f, k, e = key
        cur = vec
        for pos in range(self.n - 1, -1, -1):
            if e[pos]:
                cur = self.divided("E", pos, e[pos], cur, apply)
        if any(k):
            cur = apply_k(k, cur)
        for pos in range(self.n - 1, -1, -1):
            if f[pos]:
                cur = self.divided("F", pos, f[pos], cur, apply)
        return cur

    def root_vector(self, side: str, pos: int, vec: Vec, apply: Callable[[GenKey, Vec], Vec]) -> Vec:
        """The plain root vector X_{gamma_pos} on vec, through its simple-letter words."""
        out: Vec = {}
        for word, c in self.rv_words[side][pos]:
            cur = vec
            for i in reversed(word):
                cur = apply((side, i), cur)
            vec_iadd_scaled(out, cur, c)
        return out

    def divided(self, side: str, pos: int, a: int, vec: Vec, apply: Callable[[GenKey, Vec], Vec]) -> Vec:
        """X_{gamma_pos}^{(a)} on vec, through generator actions ``apply(gen, vec)``.

        At r = 0 it is X^a / [a]! with X the plain root vector key
        (side + "rv", pos).  At r = 1 (rank one) it is
        X^{(a)} = (1/(a1! [a0]!)) (X^{(ell)})^{a1} X^{a0} with a = a1*ell + a0.
        """
        if not a:
            return dict(vec)
        cur = vec
        if not self.r:
            for _ in range(a):
                cur = apply((side + "rv", pos), cur)
            inv = self.qfact_inv(a, self.d_gamma[pos])
            return {k: v * inv for k, v in cur.items()}
        a1, a0 = divmod(a, self.ell)
        for _ in range(a0):
            cur = apply((side, 0), cur)
        for _ in range(a1):
            cur = apply((side + "d0", 0), cur)
        unit = self.field.one
        for i in range(2, a1 + 1):
            unit = unit * self.field.from_int(i)
        unit = unit * self.qfact(a0, self.d_gamma[0])
        inv = self.field.one / unit
        return {k: v * inv for k, v in cur.items()}


def parse_kind(kind: str) -> Tuple[str, Optional[int], Optional[str]]:
    """Descriptor strings: g, b-, b+, u-, u+, Am:<m>, root:<s>:<side>."""
    if kind in ("g", "b-", "b+", "u-", "u+"):
        return kind, None, None
    if kind.startswith("Am:"):
        return "Am", int(kind.split(":")[1]), None
    if kind.startswith("root:"):
        _, s, side = kind.split(":")
        if side in ("-", "+"):
            return "root", int(s), side
    raise ValueError(f"unknown algebra descriptor {kind!r}")


@dataclass(frozen=True)
class AlgebraKind:
    """What an algebra descriptor means in one context.

    ``f_caps`` / ``e_caps`` bound the divided-power exponent at each
    convex-order position (0: that root vector is absent).  ``generators``
    lists the generator keys, all F before all E, without the torus: the
    simple F_j / E_j for g, b± and u±, the plain root vectors Frv / Erv
    for the local kinds Am:m and root:s:±.  At r = 1 (rank one) the root
    vector is the simple generator, followed by its divided partner
    X^{(ell)} (``Fd0`` / ``Ed0``).  ``side`` is '-' for the F-only kinds,
    '+' for the E-only kinds and None for g.
    """

    base: str
    m: Optional[int]
    side: Optional[str]
    f_caps: Tuple[int, ...]
    e_caps: Tuple[int, ...]
    torus: bool
    dim: int
    is_local: bool
    generators: Tuple[GenKey, ...]

    @classmethod
    def of(cls, ctx: KernelContext, name: str) -> "AlgebraKind":
        base, m, side = parse_kind(name)
        n, cap = ctx.n, ctx.cap
        full, none = (cap,) * n, (0,) * n
        torus = base in ("g", "b-", "b+")
        if base == "g":
            f_caps, e_caps = full, full
        elif base in ("b-", "u-"):
            f_caps, e_caps = full, none
        elif base in ("b+", "u+"):
            f_caps, e_caps = none, full
        else:
            if not 1 <= m <= n:
                raise ValueError(f"{name}: position {m} is outside 1..{n}")
            if base == "Am":
                f_caps, e_caps = tuple(cap if i < m else 0 for i in range(n)), none
            else:
                line = tuple(cap if i == m - 1 else 0 for i in range(n))
                f_caps, e_caps = (line, none) if side == "-" else (none, line)
        if base in ("Am", "root"):
            gens = [("Frv", s) for s in range(n) if f_caps[s]]
            gens += [("Erv", s) for s in range(n) if e_caps[s]]
        else:
            gens = [("F", j) for j in range(ctx.rank) if any(f_caps)]
            gens += [("E", j) for j in range(ctx.rank) if any(e_caps)]
        if ctx.r:
            # rank one: the root vector at position 0 is the simple one
            gens = [(kd[0], j) for kd, j in gens]
            gens += [(kd + "d0", j) for kd, j in gens]
        dim = math.prod(c for c in f_caps + e_caps if c) * (ctx.ell ** ctx.rank if torus else 1)
        side = None if any(f_caps) and any(e_caps) else ("-" if any(f_caps) else "+")
        return cls(base, m, side, f_caps, e_caps, torus, dim, not torus, tuple(gens))

    def exponents(self, side: str) -> List[FExp]:
        """Every divided-power exponent vector of the F or E part, in order."""
        caps = self.f_caps if side == "F" else self.e_caps
        return list(itertools.product(*(range(c) if c else (0,) for c in caps)))


class KernelAlgebra:
    """Finite-dimensional kernel algebra on a divided-power PBW basis."""

    def __init__(self, ctx: KernelContext, kind: str):
        self.ctx = ctx
        self.kind = kind
        self.desc = desc = ctx.algebra_kind(kind)
        if ctx.r > 0 and desc.torus:
            # the higher-kernel torus contains K-binomials of depth >= ell
            # and is not the group algebra; torus-extended higher kernels
            # are reached through their graded covers and modules instead
            raise ValueError(
                f"{kind} at r={ctx.r}: torus-extended higher kernels are "
                "modeled through weight-graded covers, not a PBW basis"
            )
        fparts, eparts = desc.exponents("F"), desc.exponents("E")
        kparts = (
            list(itertools.product(range(ctx.ell), repeat=ctx.rank))
            if desc.torus
            else [(0,) * ctx.rank]
        )
        self.basis: List[BasisKey] = [
            (f, k, e) for f in fparts for k in kparts for e in eparts
        ]
        self.basis.sort()
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._gen_mats: Dict[GenKey, Mat] = {}

    # -- structural data ---------------------------------------------------

    def generator_keys(self) -> List[GenKey]:
        out = list(self.desc.generators)
        if self.desc.torus:
            out += [("K", j) for j in range(self.ctx.rank)]
        return out

    def one(self) -> Vec:
        zero = ((0,) * self.ctx.n, (0,) * self.ctx.rank, (0,) * self.ctx.n)
        return {zero: self.ctx.field.one}

    def element(self, fexp=None, kexp=None, eexp=None) -> Vec:
        n, rank = self.ctx.n, self.ctx.rank
        key = (
            tuple(fexp) if fexp else (0,) * n,
            tuple(kexp) if kexp else (0,) * rank,
            tuple(eexp) if eexp else (0,) * n,
        )
        assert key in self.index, f"{key} not a basis monomial of {self.kind}"
        return {key: self.ctx.field.one}

    def weight_of_key(self, key: BasisKey) -> Tuple[int, ...]:
        """Adjoint X-weight (root coordinates) of a basis monomial."""
        return self.ctx.pbw_weight(key[0], key[2])

    # -- multiplication ----------------------------------------------------

    def _check_key(self, fexp, kexp, eexp) -> Optional[BasisKey]:
        for i, a in enumerate(fexp):
            if a and not self.desc.f_caps[i]:
                raise ArithmeticError(f"product left algebra {self.kind}: F exp {fexp}")
            if a >= self.ctx.cap:
                return None
        for i, a in enumerate(eexp):
            if a and not self.desc.e_caps[i]:
                raise ArithmeticError(f"product left algebra {self.kind}: E exp {eexp}")
            if a >= self.ctx.cap:
                return None
        if any(kexp) and not self.desc.torus:
            raise ArithmeticError(f"product left algebra {self.kind}: K exp {kexp}")
        return (tuple(fexp), self.ctx.kmod(kexp), tuple(eexp))

    def lmul_gen(self, gen: GenKey, vec: Vec) -> Vec:
        """Left multiply by a generator, column-cached."""
        mat = self._gen_mats.get(gen)
        if mat is None:
            mat = {}
            self._gen_mats[gen] = mat
        out: Vec = {}
        for key, c in vec.items():
            col = mat.get(key)
            if col is None:
                col = self._gen_column(gen, key)
                mat[key] = col
            vec_iadd_scaled(out, col, c)
        return out

    def _gen_column(self, gen: GenKey, key: BasisKey) -> Vec:
        ctx = self.ctx
        kind, j = gen
        f, k, e = key
        if kind == "K":
            return self.lmul_k(ctx.datum.simple_roots[j], {key: ctx.field.one})
        if kind == "Erv" and any(f) and j not in ctx.simple_pos:
            # plain non-simple E root vector past an F part: apply its word expansion
            return ctx.root_vector("E", j, {key: ctx.field.one}, self.lmul_gen)
        out: Vec = {}
        # F^{(f)} K^k E^{(e)} = zeta^{(k, wt e)} F^{(f)} E^{(e)} K^k, and K^k moves
        # back left past each E^{(e2)} at the cost zeta^{-(k, wt e2)}
        shift = any(k)
        for (f2, kv, e2), c in ctx.pbw_terms(self.kind, gen, f, e).items():
            if shift and e2 != e:
                c = c * ctx.zeta_pow(ctx.pair(k, ctx.weight_of_fexp(e)) - ctx.pair(k, ctx.weight_of_fexp(e2)))
            vec_add_term(out, (f2, ctx.kmod(a + b for a, b in zip(kv, k)), e2), c)
        return out

    def lmul_k(self, k: KExp, vec: Vec) -> Vec:
        """Left multiply by K^k: it slides right past the F part into its slot."""
        ctx = self.ctx
        out: Vec = {}
        for (f, k2, e), c in vec.items():
            scal = ctx.zeta_pow(-ctx.pair(k, ctx.weight_of_fexp(f)))
            vec_add_term(out, (f, ctx.kmod(a + b for a, b in zip(k2, k)), e), c * scal)
        return out

    def lmul_monomial(self, key: BasisKey, vec: Vec) -> Vec:
        """Left multiply by a basis monomial F^{(f)} K^k E^{(e)}."""
        return self.ctx.monomial(key, vec, self.lmul_gen, self.lmul_k)

    def multiply(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for key, c in x.items():
            part = self.lmul_monomial(key, y)
            vec_iadd_scaled(out, part, c)
        return out

    def rmul_gen_column(self, gen: GenKey, key: BasisKey) -> Vec:
        """x -> x * g for generator g on a basis monomial (F-side kinds)."""
        ctx = self.ctx
        kind, j = gen
        f, k, e = key
        assert not any(e), "right multiplication implemented for F-side algebras"
        out: Vec = {}
        if kind in ("F", "Frv"):
            pos = ctx.simple_pos[j] if kind == "F" else j
            scal = ctx.field.one
            if any(k):
                scal = ctx.zeta_pow(-ctx.pair(k, ctx.order.gammas[pos]))
            for fexp, c in ctx.rmul_rv("F", pos, f).items():
                bk = self._check_key(fexp, k, e)
                if bk is not None:
                    out[bk] = c * scal
            return out
        if kind == "Fd0":
            # rank one: F^{(ell)} commutes with F^{(a)}
            return {(a2, k, e): c for a2, c in ctx.letter_times("F", gen, f).items()}
        raise ValueError(f"right multiplication by {gen} unsupported")

    # -- distinguished elements and checks ----------------------------------

    def integral_element(self) -> Vec:
        """The top monomial spanning the invariants of an A_m-type algebra."""
        assert self.desc.base in ("Am", "u-", "root")
        top = tuple(c - 1 if c else 0 for c in self.desc.f_caps)
        return {(top, (0,) * self.ctx.rank, (0,) * self.ctx.n): self.ctx.field.one}

    def socle_check(self) -> Tuple[int, bool]:
        """Dimension of two-sided invariants and whether the integral spans.

        Solves x.v = eps(x) v for all generators x, both left and right.
        """
        gens = self.generator_keys()
        columns = []
        for i, key in enumerate(self.basis):
            col: Vec = {}
            vec = {key: self.ctx.field.one}
            for g in gens:
                img = self.lmul_gen(g, vec)
                for bk, c in img.items():
                    col[(g, bk, "l")] = c
                rimg = self.rmul_gen_column(g, key)
                for bk, c in rimg.items():
                    col[(g, bk, "r")] = c
            columns.append((key, col))
        kb = kernel_basis(columns, one=self.ctx.field.one)
        dim = len(kb)
        ok = False
        if dim == 1:
            integral = self.integral_element()
            (sol,) = kb
            keys = {k for k, v in sol.items() if v}
            ok = keys == set(integral.keys())
        return dim, ok

    def normality_check(self) -> bool:
        """A_m-augmentation ideal generates the same two-sided span in A_{m+1}.

        The augmentation ideal is generated as a one-sided ideal by the
        first m plain root vectors, so only B x_s and x_s B are needed.
        """
        assert self.desc.base == "Am"
        ctx = self.ctx
        m = self.desc.m
        bigger = ctx.algebra(f"Am:{m + 1}") if m < ctx.n else ctx.algebra("u-")
        left, right = Eliminator(), Eliminator()
        for s in range(m):
            x = tuple(1 if t == s else 0 for t in range(ctx.n))
            xv = {(x, (0,) * ctx.rank, (0,) * ctx.n): ctx.field.one}
            for b in bigger.basis:
                bv = {b: ctx.field.one}
                left.add(bigger.multiply(bv, xv))
                right.add(bigger.multiply(xv, bv))
        if left.rank != right.rank:
            return False
        for row in left.pivots.values():
            if not right.contains(row):
                return False
        return True

    def omega_mirror_kind(self) -> str:
        flip = {"u-": "u+", "u+": "u-", "b-": "b+", "b+": "b-", "g": "g"}
        if self.kind in flip:
            return flip[self.kind]
        if self.desc.base == "root":
            side = "+" if self.desc.side == "-" else "-"
            return f"root:{self.desc.m}:{side}"
        raise ValueError(f"omega mirror of {self.kind} undefined")
