"""Command-line surface: configuration, corpus manifests and report
emission.

``qmodules``, ``inject``, ``cohomlite`` and the structure-cache I/O
(``cache``) are imported inside the functions that use them, so a
process compiles only the modules its command runs.

Subcommands: build, relations, module, verify, skeleton, betti,
cache-info.  Reports are line-delimited JSON records (deterministic:
sorted keys, no timestamps unless --timing).  Without --out, standard
output carries the report alone, and the notes (the verify summary, the
--permissive banner, a falsification candidate, an error) go to standard
error; with --out, the verify summary or a "wrote" line goes to standard
output.  Exit status is nonzero iff any agreement fails or, for verify,
any case is skipped over its budget (a skip for want of a full lift is
not a failure).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .genericuq import generic_uq
from .kernelalg import DEFAULT_BUDGET, ConfigError, KernelContext, SpecializationError
from .rootdata import TYPES, build_root_datum, convex_order, default_w0_word
from .scalars import is_prime, make_field


class RunConfig(NamedTuple):
    type_label: str = "A1"
    ell: int = 3
    p: Optional[int] = None
    r: int = 0
    w0: Optional[Tuple[int, ...]] = None
    budget: int = DEFAULT_BUDGET
    strict: bool = True
    jobs: int = 1
    long_running: bool = False
    timing: bool = False
    cache_path: Optional[str] = None

    def word(self) -> Tuple[int, ...]:
        return self.w0 or default_w0_word(self.type_label)

    def validate(self) -> None:
        datum = build_root_datum(self.type_label)
        if self.ell % 2 == 0 or self.ell < 3:
            raise ConfigError("ell must be odd and at least 3")
        for d in datum.d:
            if math.gcd(self.ell, d) > 1:
                raise ConfigError(f"ell must be coprime to {d} in type {self.type_label}")
        if self.p is not None:
            if not is_prime(self.p):
                raise ConfigError(f"p = {self.p} is not a prime")
            if self.p == 2:
                raise ConfigError("p = 2 is excluded")
            if self.p in datum.bad_primes:
                raise ConfigError(f"p = {self.p} is excluded in type {self.type_label}")
            if self.ell % self.p == 0:
                raise ConfigError("p must not divide ell")
        if self.r < 0:
            raise ConfigError(f"r = {self.r} is negative")
        if self.jobs < 1:
            raise ConfigError(f"jobs = {self.jobs} is below 1")
        if self.budget < 1:
            raise ConfigError(f"budget = {self.budget} is below 1")
        if self.r > 0 and self.p is None:
            raise ConfigError("higher kernels (r >= 1) need a finite field (--p)")
        if self.r > 1 or (self.r == 1 and self.type_label != "A1"):
            raise ConfigError("higher kernels are built for r = 1 in type A1 only")
        if self.strict and self.ell < datum.coxeter_number:
            raise ConfigError(
                f"strict mode: ell = {self.ell} below the Coxeter number {datum.coxeter_number}"
            )
        self.gate()

    def gate(self) -> None:
        """Refuse a G2 job without --long-running: its structure table takes minutes."""
        if self.type_label == "G2" and not self.long_running:
            raise ConfigError("type G2 jobs are gated behind --long-running")

    def banner(self) -> None:
        """Warn on standard error, so standard output stays the report."""
        if not self.strict:
            print(
                "# permissive mode: standing hypotheses (odd ell >= Coxeter number,"
                " good p) are NOT enforced",
                file=sys.stderr,
            )


# contexts of a process: one per (type, ell, p, r, word), plus the sha256 of
# the cache file's bytes when the table comes from a cache
_CONTEXTS: Dict[Tuple, KernelContext] = {}


def make_context(cfg: RunConfig) -> KernelContext:
    """The KernelContext of cfg, built once per configuration and table.

    A context is shared by every call with the same configuration, so its
    straightening caches and its module store (``realized``: every spec
    and sub-spec, by canonical text) fill once and not once per case.
    With ``cfg.cache_path`` every call reads the file and hashes its
    bytes; the file is parsed and validated, and a context built, only
    when that digest is new, so a rewritten cache gets a context of its
    own.
    """
    cfg.validate()
    key: Tuple = (cfg.type_label, cfg.ell, cfg.p, cfg.r, cfg.word())
    blob = None
    if cfg.cache_path:
        # imported here: only a cache needs them
        import hashlib

        from . import cache

        blob = cache.read_cache_bytes(cfg.cache_path)
        key += (hashlib.sha256(blob).hexdigest(),)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        order = convex_order(cfg.type_label, cfg.word())
        table = None if blob is None else cache.table_of(order, blob, cfg.cache_path)
        ctx = _CONTEXTS[key] = KernelContext(order, make_field(cfg.ell, cfg.p), r=cfg.r, table=table)
    return ctx


# ---------------------------------------------------------------------------
# default corpus manifests


def default_manifest(cfg: RunConfig) -> List[Dict]:
    """Torus-compatible module corpus for the configured type and field."""
    t = cfg.type_label
    key = (t, cfg.ell, cfg.p, cfg.r)
    if t == "A1" and cfg.r == 0:
        ell = cfg.ell
        st = ell - 1  # verma(st) IS the Steinberg module
        cases = [
            {"spec": "trivial", "expect_injective": False},
            {"spec": f"onedim({ell})", "expect_injective": False},
            {"spec": "verma(0)", "expect_injective": False},
            {"spec": "verma(1)", "expect_injective": False},
            {"spec": f"verma({st})", "expect_injective": True},
            {"spec": "coverma(0)", "expect_injective": False},
            {"spec": f"coverma({st})", "expect_injective": True},
            {"spec": "simple(0)", "expect_injective": False},
            {"spec": f"simple({st})", "expect_injective": True},
            {"spec": f"dual(simple({st}))", "expect_injective": True},
            {"spec": "dual(verma(1))", "expect_injective": False},
            {"spec": f"tensor(simple({st}),simple({st}))", "expect_injective": True},
            {"spec": "tensor(verma(0),simple(1))", "expect_injective": None},
            {"spec": f"sum(verma(1),simple({st}))", "expect_injective": False},
            {"spec": f"twist(verma({st}),{ell})", "expect_injective": True},
            {"spec": f"twist(verma(1),{ell})", "expect_injective": False},
            {"spec": "randsub(verma(1),42)", "expect_injective": None},
            {"spec": "quot(verma(0),7)", "expect_injective": None},
            {"spec": f"randsub(tensor(simple({st}),simple({st})),5)", "expect_injective": None},
            {"spec": f"quot(tensor(simple({st}),verma(0)),3)", "expect_injective": None},
            {"spec": "simple(1)", "expect_injective": None},
        ]
        if ell == 3:
            cases.append({"spec": "tensor(simple(1),simple(1))", "expect_injective": None})
            cases.append({"spec": "tensor(simple(1),dual(simple(1)))", "expect_injective": None})
        return cases
    if t == "A2" and cfg.r == 0:
        st = cfg.ell - 1
        return [
            {"spec": "trivial", "expect_injective": False},
            {"spec": "verma(0,0)", "expect_injective": False},
            {"spec": "verma(1,2)", "expect_injective": False},
            {"spec": f"verma({st},{st})", "expect_injective": True},  # Steinberg
            {"spec": "coverma(0,1)", "expect_injective": False},
            {"spec": f"simple({st},{st})", "expect_injective": True},
            {"spec": "simple(1,1)", "expect_injective": False},
            {"spec": "simple(1,0)", "expect_injective": False},
            {"spec": "dual(simple(0,1))", "expect_injective": False},
            {"spec": f"dual(verma({st},0))", "expect_injective": False},
            {"spec": "tensor(simple(1,0),simple(0,1))", "expect_injective": None},
            {"spec": "tensor(simple(1,0),dual(simple(1,0)))", "expect_injective": None},
            {"spec": f"twist(verma(0,1),{cfg.ell},{cfg.ell})", "expect_injective": False},
            {"spec": "randsub(verma(1,1),42)", "expect_injective": None},
            {"spec": "quot(verma(0,0),7)", "expect_injective": None},
            {"spec": "sum(simple(1,0),simple(0,1))", "expect_injective": False},
        ]
    if t == "A1" and cfg.r == 1:
        top = cfg.ell * cfg.p - 1
        return [
            {"spec": "trivial", "expect_injective": False},
            {"spec": f"onedim({cfg.ell * cfg.p})", "expect_injective": False},
            {"spec": "verma(0)", "expect_injective": False},
            {"spec": "verma(2)", "expect_injective": False},
            {"spec": f"verma({top})", "expect_injective": True},  # Steinberg
            {"spec": "coverma(0)", "expect_injective": False},
            {"spec": f"simple({top})", "expect_injective": True},
            {"spec": "simple(2)", "expect_injective": False},
            {"spec": f"dual(simple({top}))", "expect_injective": True},
            {"spec": "randsub(verma(1),42)", "expect_injective": None},
            {"spec": "quot(verma(0),7)", "expect_injective": None},
            {"spec": "simple(3)", "expect_injective": False},
        ]
    raise ConfigError(f"no default manifest for {key}; pass --manifest")


def load_manifest(path: str) -> List[Dict]:
    """Cases of a manifest: one JSON object with a "spec" string per line
    and an optional "expect_injective" of true, false or null; an
    unreadable file or a malformed line is a ConfigError."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read manifest {path}: {e}") from e
    out = []
    for n, ln in enumerate(lines, 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            case = json.loads(ln)
        except ValueError as e:
            raise ConfigError(f"manifest {path}: line {n} is not JSON: {e}") from e
        if not isinstance(case, dict) or not isinstance(case.get("spec"), str):
            raise ConfigError(f'manifest {path}: line {n} has no "spec" string')
        expect = case.get("expect_injective")
        # 1 == True and 0 == False, so test the type, not membership
        if expect is not None and not isinstance(expect, bool):
            raise ConfigError(
                f'manifest {path}: line {n}: "expect_injective" is {json.dumps(expect)}, '
                "not true, false or null"
            )
        out.append(case)
    return out


# ---------------------------------------------------------------------------
# verification driver

def checked_module(ctx: KernelContext, spec: str):
    """The ``qmodules.WeightedModule`` of a spec text, checked before its
    first verdict.

    ``ctx.realized`` is the one module store: ``qmodules.realize`` keeps
    every module it builds there, nested specs included, under its
    canonical text, so a spec is built once per context.  A canonical text
    is found there without parsing.  A module is checked the first time it
    is asked for here, also when it was first built inside another spec.
    """
    m = ctx.realized.get(spec)
    if m is None:
        from . import qmodules

        m = qmodules.realize_text(ctx, spec)
    if not m.checked:
        m.check()
        m.checked = True
    return m


# suite -> (the name of its test of one module in ``inject``, whether its
# oracle is the big-algebra verdict, which a case's expected injectivity
# refers to and whose split test takes the budget); the suites run on each
# manifest spec, then the rest, in ``--suite all`` order
MODULE_SUITES = {
    "rootcrit": ("verify_root_criterion", True),
    "borel": ("verify_borel_criterion", False),
    "reduction": ("verify_reduction_borel", True),
    "highest": ("verify_highest_root", True),
    "filtration": ("verify_filtration", False),
}
SUITES = tuple(MODULE_SUITES) + ("integrals", "zdual", "betti")


def run_case(cfg: RunConfig, suite: str, spec: str, expect) -> Dict:
    """Record of one suite on one module spec, without the configuration."""
    from . import inject

    name, big_oracle = MODULE_SUITES[suite]
    test = getattr(inject, name)
    ctx = make_context(cfg)
    t0 = time.monotonic()
    record = {"case": f"{suite}:{spec}", "suite": suite, "spec": spec}
    try:
        m = checked_module(ctx, spec)
        record.update(test(m, cfg.budget) if big_oracle else test(m))
        if expect is not None and big_oracle and "oracle" in record:
            record["expected"] = expect
            record["agree"] = record["agree"] and (record["oracle"] == expect)
    except inject.BudgetExceeded as e:
        record.update({"skipped": True, "reason": str(e), "agree": True})
    return stamped(cfg, record, t0)


def stamped(cfg: RunConfig, record: Dict, t0: float) -> Dict:
    """The record, with its ``wall_time`` since t0 under ``--timing``."""
    if cfg.timing:
        record["wall_time"] = round(time.monotonic() - t0, 3)
    return record


def _pool_case(args):
    """run_case on one (config, suite, spec, expect) task of the process pool."""
    return run_case(*args)


def run_suites(cfg: RunConfig, suites: Sequence[str], manifest: List[Dict]) -> List[Dict]:
    """Records of the suites over the manifest, each with its configuration."""
    records: List[Dict] = []
    tasks = []
    for suite in suites:
        if suite in MODULE_SUITES:
            for case in manifest:
                tasks.append((suite, case["spec"], case.get("expect_injective")))
    if cfg.jobs > 1 and tasks:
        one_job = cfg._replace(jobs=1)
        # imported here: it costs every process memory and start-up time
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at the first submit: no more than tasks
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
            records = list(pool.map(_pool_case, [(one_job, s, sp, ex) for (s, sp, ex) in tasks]))
    else:
        for suite, spec, expect in tasks:
            records.append(run_case(cfg, suite, spec, expect))
    if "integrals" in suites:
        records.extend(run_integrals(cfg))
    if "betti" in suites:
        records.append(run_betti(cfg))
    if "zdual" in suites:
        records.extend(run_zdual(cfg))
    for rec in records:
        rec.update(type=cfg.type_label, ell=cfg.ell, p=cfg.p, r=cfg.r, w0=list(cfg.word()))
    records.sort(key=lambda r: r["case"])
    return records


def run_integrals(cfg: RunConfig) -> List[Dict]:
    ctx = make_context(cfg)
    out = []
    for m in range(1, ctx.n + 1):
        t0 = time.monotonic()
        alg = ctx.algebra(f"Am:{m}")
        dim, spans = alg.socle_check()
        normal = alg.normality_check() if m < ctx.n else True
        rec = {
            "case": f"integrals:Am:{m}",
            "suite": "integrals",
            "m": m,
            "invariants_dim": dim,
            "integral_spans": spans,
            "normal_in_next": normal,
            "agree": dim == 1 and spans and normal,
        }
        out.append(stamped(cfg, rec, t0))
    return out


def betti_degree(type_label: str) -> int:
    """Top cohomological degree of a Betti table when none is asked for."""
    return 6 if type_label == "A1" else 4


def run_betti(cfg: RunConfig) -> Dict:
    """Record of H^*(u+) to ``betti_degree`` against the symmetric-algebra
    count, a benign skip where ell is not above the Coxeter number h: the
    count needs ell > h (Ginzburg and Kumar, Duke Math. J. 69, 1993), and
    at ell = h extra invariant classes appear."""
    from . import cohomlite

    ctx = make_context(cfg)
    t0 = time.monotonic()
    n_max = betti_degree(cfg.type_label)
    dims = cohomlite.borel_cohomology_dims(ctx, "u+", n_max)
    rec = {"case": "betti:b+", "suite": "betti", "dims": dims}
    h = ctx.datum.coxeter_number
    if cfg.ell <= h:
        reason = f"ell <= Coxeter number {h}: the symmetric-algebra count needs ell > h"
        rec.update({"skipped": True, "reason": reason, "agree": True})
    else:
        want = [
            cohomlite.polynomial_hilbert(ctx.n, k // 2) if k % 2 == 0 else 0
            for k in range(n_max + 1)
        ]
        rec.update({"expected": want, "agree": dims == want})
    return stamped(cfg, rec, t0)


def run_zdual(cfg: RunConfig) -> List[Dict]:
    from . import qmodules

    ctx = make_context(cfg)
    out = []
    for lam in itertools.product(range(3), repeat=ctx.rank):
        t0 = time.monotonic()
        rep = qmodules.zdual_check(ctx, lam)
        # at Steinberg-type weights the two inductions coincide, so extra
        # matches are fine; the canonical identification must always hold
        ok = "verma" in rep["dual_verma"] and "coverma" in rep["dual_coverma"]
        rec = {
            "case": "zdual:" + ",".join(str(x) for x in lam),
            "suite": "zdual",
            "lambda": list(lam),
            "dual_verma_matches": rep["dual_verma"],
            "dual_coverma_matches": rep["dual_coverma"],
            "agree": ok,
        }
        out.append(stamped(cfg, rec, t0))
    t0 = time.monotonic()  # the summary costs only its own assembly
    stable = all(rec["agree"] for rec in out)
    rec = {
        "case": "zdual:resolution",
        "suite": "zdual",
        "identification": "dual of induced is induced at the reflected weight",
        "stable_across_lambda": stable,
        "agree": stable,
    }
    out.append(stamped(cfg, rec, t0))
    return out


def record_to_line(record: Dict) -> str:
    """One line of the verify report: a record as compact JSON, keys sorted."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# command implementations


def cmd_build(args, cfg: RunConfig) -> int:
    cfg.gate()
    from . import cache

    path = args.out or f"{cfg.type_label.lower()}-structure.cache"
    cache.write_cache(cfg, path)
    meta, data = cache.read_cache(path)
    n_entries = len(data.e_entries) + len(data.f_entries)
    print(f"wrote {path}: {meta['type']}, w0 = {meta['w0']}, {n_entries} entries")
    return 0


def cmd_cache_info(args) -> int:
    from . import cache

    meta, data = cache.read_cache(args.path)
    for k, v in sorted(meta.items()):
        print(f"{k} = {v}")
    print(f"entries = {len(data.e_entries)} (E side) + {len(data.f_entries)} (F side)")
    print(f"coefficients with S-denominators = {data.denominator_count()}")
    return 0


def cmd_relations(args, cfg: RunConfig) -> int:
    cfg.gate()
    i, j = args.i, args.j
    order = convex_order(cfg.type_label, cfg.word())
    if not (1 <= i < j <= order.datum.n_positive):
        raise ConfigError(f"need 1 <= i < j <= {order.datum.n_positive}")
    if args.cache:
        from . import cache

        table = cache.table_of(order, cache.read_cache_bytes(args.cache), args.cache)
    else:
        table = generic_uq(cfg.type_label).structure_table(order)
    e_tail = table.e_entries[(i, j)]
    gi, gj = order.gammas[i - 1], order.gammas[j - 1]
    pairing = order.datum.pair_roots(gi, gj)
    print(f"E_g{i} E_g{j} = q^{pairing} E_g{j} E_g{i}" + (" + tail" if e_tail else ""))
    for exp, c in sorted(e_tail.items()):
        print(f"  tail {exp}: {c}")
    return 0


def cmd_module(args, cfg: RunConfig) -> int:
    ctx = make_context(cfg)
    m = checked_module(ctx, args.spec)
    lines = [f"dim {m.dim}"]
    lines.append("weights " + ";".join(",".join(str(x) for x in w) for w in m.weights))
    lines.append("lifts " + ("true" if m.lifts else "false"))
    for gen in m.generator_kinds():
        mat = m.actions[gen]
        rows = []
        for col in range(m.dim):
            column = mat.get(col, {})
            rows.append(
                " ".join(
                    f"{row}:{ctx.field.element_to_text(val)}"
                    for row, val in sorted(column.items())
                )
            )
        lines.append(f"generator {gen[0]}{gen[1] + 1} " + "|".join(rows))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_skeleton(args, cfg: RunConfig) -> int:
    from . import inject

    m = checked_module(make_context(cfg), args.spec)
    free = inject.root_freeness(m, args.side)
    rec = {
        "side": "minus" if args.side == "-" else "plus",
        "skeleton": sorted(list(r) for r, ok in free.items() if not ok),
        "per_root": {inject.root_label(r): ok for r, ok in free.items()},
    }
    print(json.dumps(rec, sort_keys=True))
    return 0


def cmd_betti(args, cfg: RunConfig) -> int:
    nmax = betti_degree(cfg.type_label) if args.nmax is None else args.nmax
    if nmax < 0:
        raise ConfigError(f"--nmax {nmax} is negative")
    from . import cohomlite

    ctx = make_context(cfg)
    kind = "u+" if args.side == "+" else "u-"
    res = cohomlite.minimal_resolution(ctx, kind, nmax)
    dims = cohomlite.borel_dims(ctx, res)
    print("degree  betti  H^n(borel)  generator weights")
    for n, ws in enumerate(res.degrees):
        wtxt = " ".join("(" + ",".join(str(x) for x in w) + ")" for w in ws)
        print(f"{n:6d}  {len(ws):5d}  {dims[n]:10d}  {wtxt}")
    if args.out:
        with open(args.out, "w") as fh:
            for n, ws in enumerate(res.degrees):
                fh.write(
                    json.dumps(
                        {"degree": n, "betti": len(ws), "borel_dim": dims[n],
                         "weights": [list(w) for w in ws]},
                        sort_keys=True,
                    )
                    + "\n"
                )
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.manifest:
        manifest = load_manifest(args.manifest)
    elif set(MODULE_SUITES) & set(suites):
        manifest = default_manifest(cfg)
    else:
        manifest = []
    if args.cache:
        cfg = cfg._replace(cache_path=args.cache)
        make_context(cfg)  # fail early on a bad cache; the suites share it
    records = run_suites(cfg, suites, manifest)
    lines = [record_to_line(r) for r in records]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for ln in lines:
            print(ln)
    bad = [r for r in records if not r.get("agree", True) and not r.get("skipped")]
    skipped = Counter("over budget" if "exceeds budget" in r["reason"] else r["reason"]
                      for r in records if r.get("skipped"))
    why = ", ".join(f"{n} {reason}" for reason, n in sorted(skipped.items()))
    print(
        f"# {len(records)} records, {len(bad)} disagreements, {skipped.total()} skipped"
        + (f" ({why})" if why else ""),
        file=sys.stdout if args.out else sys.stderr,
    )
    for r in bad:
        print(f"# FALSIFICATION CANDIDATE: {record_to_line(r)}", file=sys.stderr)
    return 1 if bad or skipped["over budget"] else 0


def _config_from(args) -> RunConfig:
    w0 = None
    if args.w0:
        try:
            w0 = tuple(int(x) for x in args.w0.split(","))
            convex_order(args.type, w0)  # raises unless w0 is a reduced word of the longest element
        except ValueError as e:
            raise ConfigError(f"--w0 {args.w0}: {e}") from e
    # only verify takes --budget, --jobs and --timing
    knobs = {k: v for k, v in vars(args).items() if k in ("budget", "jobs", "timing")}
    return RunConfig(
        type_label=args.type,
        ell=args.ell,
        p=args.p,
        r=args.r,
        w0=w0,
        strict=not args.permissive,
        long_running=args.long_running,
        **knobs,
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", default="A1", choices=list(TYPES))
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--w0", default=None, help="comma-separated reduced word for w0")
    p.add_argument("--permissive", action="store_true")
    p.add_argument("--long-running", action="store_true", dest="long_running")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uzeta",
        description="small quantum groups at roots of unity: build, verify, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compute and cache structure constants")
    _add_common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("cache-info", help="inspect a structure-constant cache")
    p.add_argument("path")
    p.set_defaults(func=cmd_cache_info)

    p = sub.add_parser("relations", help="print one straightening relation")
    _add_common(p)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("module", help="realize a module spec and export it")
    _add_common(p)
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("verify", help="run a verification suite over a corpus")
    _add_common(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
    )
    p.add_argument("--manifest", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the module suites; each"
                   " builds its own context and realizes its specs again, so more than one pays only"
                   " on heavy corpora")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("skeleton", help="support skeleton of a module")
    _add_common(p)
    p.add_argument("spec")
    p.add_argument("--side", default="-", choices=["-", "+"])
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("betti", help="graded Betti table and Borel cohomology")
    _add_common(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--side", default="+", choices=["-", "+"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_betti)

    args = parser.parse_args(argv)
    try:
        if args.func is cmd_cache_info:
            return cmd_cache_info(args)
        cfg = _config_from(args)
        out = getattr(args, "out", None)
        if out and os.path.isdir(out):
            raise ConfigError(f"cannot write {out}: it is a directory")
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"cannot write {out}: its directory does not exist")
        cfg.banner()
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpecializationError as e:
        print(f"corrupt structure data: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
