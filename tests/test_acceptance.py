"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Every tolerance is exact; the stated wall-clock
budgets are asserted with the criterion.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from reference import all_reduced_w0_words, order_functional, weight_basis, weights_up_to_height
from tests.conftest import get_context
from uzeta import cohomlite, inject, qmodules
from uzeta.cli import RunConfig, default_manifest, run_suites
from uzeta.genericuq import generic_uq
from uzeta.rootdata import build_root_datum, convex_order
from uzeta.scalars import Localized

RUN_LONG = os.environ.get("UZETA_LONG_RUNNING") == "1"


def _verdict(num: int, title: str, ok: bool, elapsed: float, budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{mark}] {title} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its time budget"


def test_criterion_01_convexity_and_orderings():
    t0 = time.monotonic()
    ok = True
    for label in ("A2", "B2"):
        datum = build_root_datum(label)
        words = all_reduced_w0_words(datum)
        ok = ok and len(words) == 2
        for w in words:
            order = convex_order(label, w)
            order.check_convexity()
            for m in range(datum.n_positive + 1):
                order_functional(order, m).check()
    _verdict(1, "convex orderings and separating functionals (A2, B2, all words)", ok, time.monotonic() - t0, 5)


def test_criterion_02_pbw_validation():
    t0 = time.monotonic()
    for label in ("A2", "B2"):
        uq = generic_uq(label)
        datum = uq.datum
        for w in all_reduced_w0_words(datum):
            order = convex_order(label, w)
            for nu in weights_up_to_height(datum, 6):
                weight_basis(uq, nu)  # dim == Kostant count asserted inside
                uq.pbw_context(order, "E", nu)  # basis property asserted inside
                uq.pbw_context(order, "F", nu)
    if RUN_LONG:
        uq = generic_uq("G2")
        order = convex_order("G2", (1, 2, 1, 2, 1, 2))
        for nu in weights_up_to_height(uq.datum, 4):
            weight_basis(uq, nu)
            uq.pbw_context(order, "E", nu)
    _verdict(2, "PBW bases match Kostant counts to height 6 (A2, B2)", True, time.monotonic() - t0, 120)


def test_criterion_03_commutation_tables():
    t0 = time.monotonic()
    ok = True
    for label in ("A2", "B2"):
        uq = generic_uq(label)
        for w in all_reduced_w0_words(uq.datum):
            # leading coefficients, inner support and A-membership are
            # asserted inside the builder
            tab = uq.structure_table(convex_order(label, w))
            if label == "A2":
                ok = ok and tab.denominator_count() == 0
            else:
                divisible = any(
                    c.exps and c.exps[0] >= 1
                    for entries in (tab.e_entries, tab.f_entries)
                    for tail in entries.values()
                    for c in tail.values()
                )
                ok = ok and divisible
    _verdict(3, "straightening tables: leading powers, inner tails, forced denominators", ok, time.monotonic() - t0, 120)


def test_criterion_04_integrals():
    t0 = time.monotonic()
    ctx = get_context("A2", 3)
    ok = True
    for m in (1, 2, 3):
        dim, spans = ctx.algebra(f"Am:{m}").socle_check()
        ok = ok and dim == 1 and spans
    _verdict(4, "layer invariants are one-dimensional, spanned by the top monomial", ok, time.monotonic() - t0, 60)


def _run_and_check(cfg: RunConfig, suites):
    """Records of the suites over the default manifest, those that decided
    their case, the failures among all, and the manifest.  A case skipped
    over its budget decided nothing, so it fails; a "no full lift" skip
    has nothing to decide."""
    manifest = default_manifest(cfg)
    records = run_suites(cfg, suites, manifest)
    done = [r for r in records if not r.get("skipped")]
    bad = [r for r in records if not r.get("agree") or "exceeds budget" in r.get("reason", "")]
    return records, done, bad, manifest


def test_criterion_05_root_criterion_r0():
    t0 = time.monotonic()
    total_a1 = 0
    bad_all = []
    for ell in (3, 5):
        cfg = RunConfig("A1", ell)
        records, done, bad, manifest = _run_and_check(cfg, ["rootcrit"])
        total_a1 += len(manifest)
        bad_all += bad
    cfg = RunConfig("A2", 3)
    records, done, bad, manifest = _run_and_check(cfg, ["rootcrit"])
    bad_all += bad
    ok = total_a1 >= 30 and len(manifest) >= 15 and not bad_all
    _verdict(5, f"per-root freeness == big-algebra oracle ({total_a1} A1 + {len(manifest)} A2 cases)", ok, time.monotonic() - t0, 900)


def test_criterion_06_borel_and_reduction():
    t0 = time.monotonic()
    bad_all = []
    for label, ell in (("A1", 3), ("A1", 5), ("A2", 3)):
        cfg = RunConfig(label, ell)
        _, _, bad, _ = _run_and_check(cfg, ["borel", "reduction"])
        bad_all += bad
    _verdict(6, "Borel-restricted criterion and two-Borel reduction, 100% agreement", not bad_all, time.monotonic() - t0, 600)


def test_criterion_07_higher_kernel():
    t0 = time.monotonic()
    cfg = RunConfig("A1", 3, p=7, r=1, budget=400_000)
    records, done, bad, manifest = _run_and_check(cfg, ["rootcrit"])
    ok = len(manifest) >= 10 and not bad and len(done) >= 10
    _verdict(7, f"higher kernel r=1 (p=7): truncated-ring freeness == oracle ({len(done)} cases)", ok, time.monotonic() - t0, 600)


def test_criterion_08_highest_root_corollary():
    t0 = time.monotonic()
    ctx = get_context("A2", 3)
    injective = []
    ok = True
    for lam in itertools.product(range(3), repeat=2):
        m = qmodules.simple_module(ctx, lam)
        rec = inject.highest_root_test(m)
        ok = ok and rec["agree"]
        if rec["oracle"]:
            injective.append(lam)
        if rec["skeleton"]:
            ok = ok and rec["skeleton_contains_highest"]
    ok = ok and injective == [(2, 2)]
    _verdict(8, "highest-root detection on all nine simples; only Steinberg is injective", ok, time.monotonic() - t0, 600)


def test_criterion_09_duality_identification():
    t0 = time.monotonic()
    ok = True
    for label, lams in (
        ("A1", [(a,) for a in range(3)]),
        ("A2", [(a, b) for a in range(3) for b in range(3)]),
    ):
        ctx = get_context(label, 3)
        for lam in lams:
            rep = qmodules.zdual_check(ctx, lam)
            ok = ok and "verma" in rep["dual_verma"] and "coverma" in rep["dual_coverma"]
    _verdict(9, "dual of (co)induced is (co)induced at the reflected weight, all lambda", ok, time.monotonic() - t0, 300)


def test_criterion_10_borel_cohomology():
    t0 = time.monotonic()
    a1 = cohomlite.borel_cohomology_dims(get_context("A1", 3), "u+", 6)
    # ell = 5 keeps ell strictly above the Coxeter number of A2, where the
    # symmetric-algebra description of the cohomology ring applies
    a2 = cohomlite.borel_cohomology_dims(get_context("A2", 5), "u+", 4)
    ok = a1 == [1, 0, 1, 0, 1, 0, 1] and a2 == [1, 0, 3, 0, 6]
    _verdict(10, "Borel cohomology: odd vanishing and polynomial dimension counts", ok, time.monotonic() - t0, 600)


def test_criterion_11_filtration_character_test():
    t0 = time.monotonic()
    bad_all = []
    for label in ("A1", "A2"):
        cfg = RunConfig(label, 3)
        _, _, bad, _ = _run_and_check(cfg, ["filtration"])
        bad_all += bad
    _verdict(11, "plus-Borel injectivity forces a highest-weight filtration character", not bad_all, time.monotonic() - t0, 300)


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    blobs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        r = subprocess.run(
            [sys.executable, "-m", "uzeta.cli", "verify", "--type", "A1",
             "--ell", "3", "--out", out],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        blobs.append(open(out, "rb").read())
    _verdict(12, "byte-identical reports across repeated runs", blobs[0] == blobs[1], time.monotonic() - t0, 120)
