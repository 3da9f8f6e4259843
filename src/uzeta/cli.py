"""Command-line surface: configuration, structure-constant cache,
corpus manifests and report emission.

Subcommands: build, relations, module, verify, skeleton, betti,
cache-info.  Reports are line-delimited JSON records (deterministic:
sorted keys, no timestamps unless --timing); a human summary goes to
standard output.  Exit status is nonzero iff any agreement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import cohomlite, inject, qmodules
from .genericuq import generic_uq
from .kernelalg import KernelContext, SpecializationError
from .rootdata import (
    BAD_PRIMES,
    COXETER_NUMBER,
    convex_order,
    default_w0_word,
)
from .scalars import (
    QFraction,
    is_prime,
    laurent_from_text,
    laurent_to_text,
    localized_from_text,
    localized_to_text,
    make_field,
)

CACHE_VERSION = "uzeta-structure-cache v1"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    type_label: str = "A1"
    ell: int = 3
    p: Optional[int] = None
    r: int = 0
    w0: Optional[Tuple[int, ...]] = None
    budget: int = 200_000
    strict: bool = True
    jobs: int = 1
    long_running: bool = False
    timing: bool = False
    cache_path: Optional[str] = None

    def word(self) -> Tuple[int, ...]:
        return self.w0 or default_w0_word(self.type_label)

    def validate(self) -> None:
        if self.ell % 2 == 0 or self.ell < 3:
            raise ConfigError("ell must be odd and at least 3")
        if self.type_label == "G2" and self.ell % 3 == 0:
            raise ConfigError("ell must be coprime to 3 in type G2")
        if self.p is not None:
            if not is_prime(self.p):
                raise ConfigError(f"p = {self.p} is not a prime")
            if self.p == 2:
                raise ConfigError("p = 2 is excluded")
            if self.type_label == "G2" and self.p == 3:
                raise ConfigError("p = 3 is excluded in type G2")
            if self.ell % self.p == 0:
                raise ConfigError("p must not divide ell")
        if self.r > 0 and self.p is None:
            raise ConfigError("higher kernels (r >= 1) need a finite field (--p)")
        if self.r > 1 or (self.r == 1 and self.type_label != "A1"):
            raise ConfigError("higher kernels are built for r = 1 in type A1 only")
        if self.strict:
            h = COXETER_NUMBER[self.type_label]
            if self.ell < h:
                raise ConfigError(
                    f"strict mode: ell = {self.ell} below the Coxeter number {h}"
                )
            if self.p is not None and self.p in BAD_PRIMES[self.type_label]:
                raise ConfigError(f"strict mode: p = {self.p} is bad for {self.type_label}")
        if self.type_label == "G2" and not self.long_running:
            raise ConfigError("type G2 jobs are gated behind --long-running")

    def banner(self, out) -> None:
        if not self.strict:
            print(
                "# permissive mode: standing hypotheses (odd ell >= Coxeter number,"
                " good p) are NOT enforced",
                file=out,
            )


# contexts of a process: one per (type, ell, p, r, word), plus the sha256 of
# the cache file's bytes when the table comes from a cache
_CONTEXTS: Dict[Tuple, KernelContext] = {}


def make_context(cfg: RunConfig) -> KernelContext:
    """The KernelContext of cfg, built once per configuration and table.

    A context is shared by every call with the same configuration, so its
    straightening caches and realized modules fill once and not once per
    case.  With ``cfg.cache_path`` every call reads the file and hashes its
    bytes; the file is parsed and validated, and a context built, only
    when that digest is new, so a rewritten cache gets a context of its
    own.
    """
    cfg.validate()
    key: Tuple = (cfg.type_label, cfg.ell, cfg.p, cfg.r, cfg.word())
    blob = None
    if cfg.cache_path:
        # imported here: only a cache needs it
        import hashlib

        blob = _read_cache_bytes(cfg.cache_path)
        key += (hashlib.sha256(blob).hexdigest(),)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        table = None if blob is None else _parse_cache(blob, cfg.cache_path)[1]
        fieldk = make_field(cfg.ell, cfg.p)
        order = convex_order(cfg.type_label, cfg.word())
        ctx = _CONTEXTS[key] = KernelContext(order, fieldk, r=cfg.r, table=table)
    return ctx


# ---------------------------------------------------------------------------
# structure-constant cache


@dataclass
class TableData:
    s_keys: Tuple[int, ...]
    e_entries: Dict
    f_entries: Dict
    omega_units: Tuple[QFraction, ...]


def write_cache(cfg: RunConfig, path: str) -> None:
    uq = generic_uq(cfg.type_label)
    order = convex_order(cfg.type_label, cfg.word())
    tab = uq.structure_table(order)
    lines = [CACHE_VERSION]
    lines.append(f"type={cfg.type_label}")
    lines.append("w0=" + ",".join(str(x) for x in cfg.word()))
    lines.append("ell_independent=true")
    lines.append("convention=braid operators per the validation suite; root vector units recorded below")
    lines.append("s_keys=" + ",".join(str(k) for k in tab.s_keys))
    for i, u in enumerate(tab.omega_units):
        lines.append(f"omega_unit {i + 1} {laurent_to_text(u.as_laurent())}")
    n = order.datum.n_positive
    for side, entries in (("E", tab.e_entries), ("F", tab.f_entries)):
        for (i, j) in sorted(entries):
            lead = tab.leading_exponent(i, j)
            tails = " ; ".join(
                f"({','.join(str(x) for x in exp)})={localized_to_text(c)}"
                for exp, c in sorted(entries[(i, j)].items())
            )
            lines.append(
                f"{side} {i} {j} -> leading:{lead}:1" + (f" ; tail: {tails}" if tails else "")
            )
    blob = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_cache_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read cache {path}: {e}") from e


def read_cache(path: str) -> Tuple[Dict[str, str], TableData]:
    """Parse a structure cache; an unreadable or malformed one is a ConfigError."""
    return _parse_cache(_read_cache_bytes(path), path)


def _parse_cache(blob: bytes, path: str) -> Tuple[Dict[str, str], TableData]:
    try:
        lines = blob.decode().splitlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read cache {path}: {e}") from e
    if not lines or lines[0] != CACHE_VERSION:
        raise ConfigError(
            f"cache version mismatch: expected {CACHE_VERSION!r}, got {lines[:1]!r}"
        )
    meta: Dict[str, str] = {}
    e_entries: Dict = {}
    f_entries: Dict = {}
    s_keys: Tuple[int, ...] = ()
    units: List[QFraction] = []
    for n, ln in enumerate(lines[1:], 2):
        if not ln:
            continue
        try:
            if ln.startswith("omega_unit "):
                _, i_s, text = ln.split(" ", 2)
                if int(i_s) != len(units) + 1:
                    raise ValueError(f"omega_unit {i_s} out of order")
                units.append(QFraction(laurent_from_text(text)))
                continue
            if "=" in ln and "->" not in ln:
                k, _, v = ln.partition("=")
                meta[k] = v
                if k == "s_keys":
                    s_keys = tuple(int(x) for x in v.split(",")) if v else ()
                continue
            head, _, rest = ln.partition("->")
            side, i_s, j_s = head.split()
            if side not in ("E", "F"):
                raise ValueError(f"unknown side {side!r}")
            tail: Dict = {}
            parts = rest.split(";")
            for part in parts[1:]:
                part = part.strip()
                if part.startswith("tail:"):
                    part = part[5:].strip()
                if not part:
                    continue
                exp_s, _, coeff_s = part.partition("=")
                exp = tuple(int(x) for x in exp_s.strip("()").split(","))
                tail[exp] = localized_from_text(coeff_s, s_keys)
            target = e_entries if side == "E" else f_entries
            target[(int(i_s), int(j_s))] = tail
        except (ValueError, ArithmeticError, LookupError) as e:
            raise ConfigError(f"cache {path}: line {n} is malformed: {e}") from e
    if not units:
        raise ConfigError(f"cache {path} has no omega_unit lines")
    return meta, TableData(s_keys, e_entries, f_entries, tuple(units))


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
    out = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                out.append(json.loads(ln))
    return out


# ---------------------------------------------------------------------------
# verification driver


def _cfg_record(cfg: RunConfig) -> Dict:
    return {
        "type": cfg.type_label,
        "ell": cfg.ell,
        "p": cfg.p,
        "r": cfg.r,
        "w0": list(cfg.word()),
    }


def run_case(cfg: RunConfig, suite: str, spec: str, expect) -> Dict:
    """Record of one suite on one module spec.

    A spec is realized and checked once per context; the suites then
    share the module and the split verdicts it keeps.
    """
    ctx = make_context(cfg)
    t0 = time.monotonic()
    record = {"case": f"{suite}:{spec}", "suite": suite, "spec": spec}
    record.update(_cfg_record(cfg))
    try:
        m = ctx.realized.get(spec)
        if m is None:
            m = qmodules.realize_text(ctx, spec)
            m.check()
            ctx.realized[spec] = m
        if suite == "rootcrit":
            record.update(inject.verify_root_criterion(m, cfg.budget))
        elif suite == "borel":
            record.update(inject.verify_borel_criterion(m, cfg.budget))
        elif suite == "reduction":
            record.update(inject.verify_reduction_borel(m, cfg.budget))
        elif suite == "highest":
            if "big" not in m.flags:
                record.update(
                    {"skipped": True, "reason": "no full lift", "agree": True}
                )
            else:
                record.update(inject.highest_root_test(m, cfg.budget))
        elif suite == "filtration":
            borel_plus = inject.projective_split_test(m, "u+", cfg.budget)
            passes = qmodules.verma_character_test(m)
            record.update(
                {
                    "oracle": borel_plus,
                    "character_test": passes,
                    "agree": (not borel_plus) or passes,
                }
            )
        else:
            raise ConfigError(f"unknown suite {suite!r}")
        # expected injectivity refers to the big-algebra verdict only
        if (
            expect is not None
            and suite in ("rootcrit", "reduction", "highest")
            and "oracle" in record
        ):
            record["expected"] = expect
            record["agree"] = record["agree"] and (record["oracle"] == expect)
    except inject.BudgetExceeded as e:
        record.update({"skipped": True, "reason": str(e), "agree": True})
    if cfg.timing:
        record["wall_time"] = round(time.monotonic() - t0, 3)
    return record


def _pool_case(args):
    """run_case on one (config, suite, spec, expect) task of the process pool."""
    return run_case(*args)


def run_suites(cfg: RunConfig, suites: Sequence[str], manifest: List[Dict]) -> List[Dict]:
    module_suites = [s for s in suites if s in ("rootcrit", "borel", "reduction", "highest", "filtration")]
    records: List[Dict] = []
    tasks = []
    for suite in module_suites:
        for case in manifest:
            tasks.append((suite, case["spec"], case.get("expect_injective")))
    if cfg.jobs > 1 and tasks:
        one_job = replace(cfg, jobs=1)
        # imported here: it costs every process memory and start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
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
    records.sort(key=lambda r: r["case"])
    return records


def run_integrals(cfg: RunConfig) -> List[Dict]:
    ctx = make_context(cfg)
    out = []
    for m in range(1, ctx.n + 1):
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
        rec.update(_cfg_record(cfg))
        out.append(rec)
    return out


def run_betti(cfg: RunConfig) -> Dict:
    ctx = make_context(cfg)
    n_max = 6 if cfg.type_label == "A1" else 4
    dims = cohomlite.borel_cohomology_dims(ctx, "plus", n_max)
    n_pos = ctx.n
    want = [
        cohomlite.polynomial_hilbert(n_pos, k // 2) if k % 2 == 0 else 0
        for k in range(n_max + 1)
    ]
    rec = {
        "case": "betti:b+",
        "suite": "betti",
        "dims": dims,
        "expected": want,
        "agree": dims == want,
        # at ell equal to the Coxeter number extra invariant classes appear
        # (the symmetric-algebra description needs ell strictly above it)
        "ell_equals_coxeter": cfg.ell == COXETER_NUMBER[cfg.type_label],
    }
    rec.update(_cfg_record(cfg))
    return rec


def run_zdual(cfg: RunConfig) -> List[Dict]:
    ctx = make_context(cfg)
    out = []
    lams = (
        [(a,) for a in range(3)]
        if ctx.rank == 1
        else [(a, b) for a in range(3) for b in range(3)]
    )
    resolved = set()
    for lam in lams:
        rep = qmodules.zdual_check(ctx, lam)
        # at Steinberg-type weights the two inductions coincide, so extra
        # matches are fine; the canonical identification must always hold
        ok = "verma" in rep["dual_verma"] and "coverma" in rep["dual_coverma"]
        resolved.add(ok)
        rec = {
            "case": "zdual:" + ",".join(str(x) for x in lam),
            "suite": "zdual",
            "lambda": list(lam),
            "dual_verma_matches": rep["dual_verma"],
            "dual_coverma_matches": rep["dual_coverma"],
            "agree": ok,
        }
        rec.update(_cfg_record(cfg))
        out.append(rec)
    stable = resolved == {True}
    rec = {
        "case": "zdual:resolution",
        "suite": "zdual",
        "identification": "dual of induced is induced at the reflected weight",
        "stable_across_lambda": stable,
        "agree": stable,
    }
    rec.update(_cfg_record(cfg))
    out.append(rec)
    return out


# ---------------------------------------------------------------------------
# command implementations


def cmd_build(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    path = args.out or f"{cfg.type_label.lower()}-structure.cache"
    write_cache(cfg, path)
    meta, data = read_cache(path)
    n_entries = len(data.e_entries) + len(data.f_entries)
    print(f"wrote {path}: {meta['type']}, w0 = {meta['w0']}, {n_entries} entries")
    return 0


def cmd_cache_info(args) -> int:
    meta, data = read_cache(args.path)
    for k, v in sorted(meta.items()):
        print(f"{k} = {v}")
    print(f"entries = {len(data.e_entries)} (E side) + {len(data.f_entries)} (F side)")
    nontrivial = sum(
        1
        for entries in (data.e_entries, data.f_entries)
        for tail in entries.values()
        for c in tail.values()
        if c.denominator_nontrivial()
    )
    print(f"coefficients with S-denominators = {nontrivial}")
    return 0


def cmd_relations(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    i, j = args.i, args.j
    order = convex_order(cfg.type_label, cfg.word())
    if not (1 <= i < j <= order.datum.n_positive):
        print(f"need 1 <= i < j <= {order.datum.n_positive}", file=sys.stderr)
        return 2
    if args.cache:
        _, tab = read_cache(args.cache)
        if (i, j) not in tab.e_entries:
            raise ConfigError(f"cache {args.cache} has no E entry {i} {j}")
        e_tail = tab.e_entries[(i, j)]
        lead = None
    else:
        table = generic_uq(cfg.type_label).structure_table(order)
        e_tail = table.e_entries[(i, j)]
        lead = table.leading_exponent(i, j)
    gi, gj = order.gammas[i - 1], order.gammas[j - 1]
    pairing = order.datum.pair_roots(gi, gj)
    print(f"E_g{i} E_g{j} = q^{pairing} E_g{j} E_g{i}" + (" + tail" if e_tail else ""))
    for exp, c in sorted(e_tail.items()):
        print(f"  tail {exp}: {c}")
    return 0


def cmd_module(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    ctx = make_context(cfg)
    m = qmodules.realize_text(ctx, args.spec)
    m.check()
    lines = [f"dim {m.dim}"]
    lines.append("weights " + ";".join(",".join(str(x) for x in w) for w in m.weights))
    lines.append("flags " + ",".join(sorted(m.flags)))
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


def cmd_skeleton(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    ctx = make_context(cfg)
    m = qmodules.realize_text(ctx, args.spec)
    m.check()
    rep = inject.support_skeleton(m, "minus" if args.side == "-" else "plus")
    print(json.dumps(rep.as_record(), sort_keys=True))
    return 0


def cmd_betti(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    ctx = make_context(cfg)
    kind = "u+" if args.side == "+" else "u-"
    res = cohomlite.minimal_resolution(ctx, kind, args.nmax)
    dims = [
        sum(1 for w in ws if cohomlite.weight_has_trivial_character(ctx, w))
        for ws in res.degrees
    ]
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


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    cfg.banner(sys.stdout)
    if args.suite == "all":
        suites = ["rootcrit", "borel", "reduction", "highest", "filtration", "integrals", "zdual", "betti"]
    else:
        suites = [args.suite]
    module_suites = {"rootcrit", "borel", "reduction", "highest", "filtration"}
    if args.manifest:
        manifest = load_manifest(args.manifest)
    elif module_suites & set(suites):
        manifest = default_manifest(cfg)
    else:
        manifest = []
    if args.cache:
        cfg = replace(cfg, cache_path=args.cache)
        try:
            make_context(cfg)  # fail early on corruption; the suites share it
        except (SpecializationError, ZeroDivisionError, ValueError) as e:
            print(f"cache {args.cache} is corrupt: {e}", file=sys.stderr)
            return 2
    records = run_suites(cfg, suites, manifest)
    lines = [inject.record_to_line(r) for r in records]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for ln in lines:
            print(ln)
    bad = [r for r in records if not r.get("agree", True) and not r.get("skipped")]
    skipped = [r for r in records if r.get("skipped")]
    print(
        f"# {len(records)} records, {len(bad)} disagreements, {len(skipped)} skipped",
        file=sys.stdout if args.out else sys.stderr,
    )
    for r in bad:
        print(f"# FALSIFICATION CANDIDATE: {inject.record_to_line(r)}", file=sys.stderr)
    return 1 if bad else 0


def _config_from(args) -> RunConfig:
    w0 = tuple(int(x) for x in args.w0.split(",")) if getattr(args, "w0", None) else None
    return RunConfig(
        type_label=args.type,
        ell=args.ell,
        p=args.p,
        r=args.r,
        w0=w0,
        budget=args.budget,
        strict=not args.permissive,
        jobs=getattr(args, "jobs", 1),
        long_running=getattr(args, "long_running", False),
        timing=getattr(args, "timing", False),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", default="A1", choices=["A1", "A2", "B2", "G2", "A3"])
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--w0", default=None, help="comma-separated reduced word for w0")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--permissive", action="store_true")
    p.add_argument("--long-running", action="store_true", dest="long_running")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--jobs", type=int, default=1)


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
        choices=["rootcrit", "borel", "reduction", "highest", "filtration", "integrals", "zdual", "betti", "all"],
    )
    p.add_argument("--manifest", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None)
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
    if getattr(args, "nmax", 0) is None:
        args.nmax = 6 if args.type == "A1" else 4
    try:
        return args.func(args)
    except (ConfigError, qmodules.SpecSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpecializationError as e:
        print(f"corrupt structure data: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
