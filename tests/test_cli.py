import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from uzeta import cohomlite
from uzeta.cache import read_cache, write_cache
from uzeta.cli import (
    MODULE_SUITES,
    SUITES,
    ConfigError,
    RunConfig,
    default_manifest,
    load_manifest,
    main,
    make_context,
    run_betti,
    run_suites,
)
from uzeta.qmodules import MAX_SPEC_DEPTH, SPEC_QUOTE_WIDTH


# (spec, side "-" line, side "+" line) of uzeta skeleton --type A2 --ell 3
SKELETON_LINES = [
    (
        "trivial",
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "minus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "plus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
    ),
    (
        "simple(1,1)",
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "minus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "plus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
    ),
    (
        "verma(0,0)",
        '{"per_root": {"1a1": true, "1a1+1a2": true, "1a2": true}, "side": "minus", "skeleton": []}',
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "plus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
    ),
    (
        "tensor(simple(1,0),simple(0,1))",
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "minus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
        '{"per_root": {"1a1": false, "1a1+1a2": false, "1a2": false}, "side": "plus", "skeleton": [[0, 1], [1, 0], [1, 1]]}',
    ),
]


def cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "uzeta.cli", *args], capture_output=True, text=True, timeout=timeout
    )


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_modules(*args):
    """The sorted ``uzeta`` modules of a fresh interpreter after ``cli.main(args)``."""
    code = (
        "import json, sys\n"
        "from uzeta import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'uzeta')))\n"
        "sys.exit(status)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert r.returncode == 0, r.stdout + r.stderr
    return json.loads(r.stdout.splitlines()[-1])


BASE_MODULES = ["uzeta", "uzeta.cli", "uzeta.genericuq", "uzeta.kernelalg", "uzeta.linalg",
                "uzeta.rootdata", "uzeta.scalars"]


class TestModuleSets:
    """Each command compiles and imports only the modules it runs; the sets
    are exact, so a new top-level import shows here."""

    def test_betti(self):
        assert loaded_modules("betti", "--type", "A1", "--ell", "3", "--nmax", "1") == sorted(
            BASE_MODULES + ["uzeta.cohomlite"]
        )

    def test_verify_without_cache(self):
        assert loaded_modules("verify", "--type", "A1", "--ell", "3", "--suite", "rootcrit") == sorted(
            BASE_MODULES + ["uzeta.inject", "uzeta.qmodules"]
        )

    def test_verify_integrals(self):
        assert loaded_modules("verify", "--type", "A1", "--ell", "3", "--suite", "integrals") == sorted(BASE_MODULES)

    def test_verify_betti(self):
        assert loaded_modules("verify", "--type", "A1", "--ell", "3", "--suite", "betti") == sorted(
            BASE_MODULES + ["uzeta.cohomlite"]
        )

    def test_build(self, tmp_path):
        out = str(tmp_path / "a1.cache")
        assert loaded_modules("build", "--out", out) == sorted(BASE_MODULES + ["uzeta.cache"])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(ell=4).validate()
        with pytest.raises(ConfigError):
            RunConfig(type_label="G2", ell=9, long_running=True).validate()
        with pytest.raises(ConfigError):
            RunConfig(p=2).validate()
        with pytest.raises(ConfigError):
            RunConfig(r=1).validate()  # needs p
        with pytest.raises(ConfigError):
            RunConfig(type_label="B2", ell=3).validate()  # ell below Coxeter number
        RunConfig(type_label="B2", ell=3, strict=False).validate()
        RunConfig(type_label="A1", ell=3, p=7, r=1).validate()

    def test_unbuilt_kernels_and_non_prime_p_rejected(self):
        for cfg in (
            RunConfig(type_label="A1", ell=3, p=7, r=2),
            RunConfig(type_label="A2", ell=3, p=7, r=1),
            RunConfig(type_label="A1", ell=3, p=25),
            RunConfig(type_label="A1", ell=5, p=9),
            RunConfig(type_label="A1", ell=3, p=7, r=-1),
            RunConfig(type_label="A1", ell=3, jobs=0),
        ):
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_g2_gated(self):
        with pytest.raises(ConfigError):
            RunConfig(type_label="G2", ell=7).validate()
        RunConfig(type_label="G2", ell=7, long_running=True).validate()

    def test_rules_read_from_the_root_datum(self):
        # d_j and the bad primes of G2 are (1, 3) and (2, 3)
        with pytest.raises(ConfigError, match="^ell must be coprime to 3 in type G2$"):
            RunConfig(type_label="G2", ell=9, long_running=True).validate()
        with pytest.raises(ConfigError, match="^p = 3 is excluded in type G2$"):
            RunConfig(type_label="G2", ell=7, p=3, long_running=True).validate()
        RunConfig(type_label="A2", ell=7, p=3).validate()

    def test_default_word(self):
        assert RunConfig(type_label="A2").word() == (1, 2, 1)

    @pytest.mark.parametrize("args", [("build",), ("relations", "1", "2")], ids=["build", "relations"])
    def test_g2_gated_before_any_work(self, tmp_path, args):
        # the G2 structure table takes minutes: the gate comes first
        r = subprocess.run(
            [sys.executable, "-m", "uzeta.cli", args[0], "--type", "G2", *args[1:]],
            capture_output=True, text=True, cwd=tmp_path, timeout=20,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert r.returncode == 2, r.stdout + r.stderr
        assert r.stderr == "error: type G2 jobs are gated behind --long-running\n"
        assert not list(tmp_path.iterdir())


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a2.cache")
        write_cache(RunConfig(type_label="A2"), path)
        meta, data = read_cache(path)
        assert meta["type"] == "A2" and meta["ell_independent"] == "true"
        assert set(data.e_entries) == {(1, 2), (1, 3), (2, 3)}
        assert data.e_entries[(1, 3)]  # the gamma_2 tail

    def test_byte_identical_rebuild(self, tmp_path):
        p1, p2 = str(tmp_path / "one"), str(tmp_path / "two")
        write_cache(RunConfig(type_label="B2", ell=5), p1)
        write_cache(RunConfig(type_label="B2", ell=5), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("label, ell, digest", [
        ("A1", 3, "9f567ccae2c8f0cc314f38d1bd8b96e090b5f7a3a366037213bd9f9c020a35ad"),
        ("A2", 3, "be49eebf59df82cd0626271979df516a591fd12f8b327a15638c1ac2303d81ee"),
        ("B2", 5, "85f8a32a187428495d702745f988c82a48ca22b37e62e49760f9c9b11e8bdcc1"),
    ], ids=["A1-3", "A2-3", "B2-5"])
    def test_build_bytes_pinned(self, label, ell, digest, tmp_path, capsys):
        # the bytes of a build, and so every exact structure constant, are pinned
        path = tmp_path / "table.cache"
        assert main(["build", "--type", label, "--ell", str(ell), "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("something else\n")
        with pytest.raises(ConfigError):
            read_cache(str(path))

    def test_b2_cache_has_denominator_entry(self, tmp_path):
        path = str(tmp_path / "b2.cache")
        write_cache(RunConfig(type_label="B2", ell=5), path)
        _, data = read_cache(path)
        assert data.denominator_count()


    def test_cached_context_needs_no_structure_table(self, tmp_path, monkeypatch):
        path = str(tmp_path / "b2.cache")
        write_cache(RunConfig("B2", 5), path)
        fresh = make_context(RunConfig("B2", 5))
        asked = []
        real = fresh.uq.structure_table

        def counting(order):
            asked.append(order)
            return real(order)

        # on the shared instance: its memo shadows a patch of the class
        monkeypatch.setattr(fresh.uq, "structure_table", counting)
        cached = make_context(RunConfig("B2", 5, cache_path=path))
        assert asked == []
        # the two contexts have their own fields: compare the coordinates
        def coords(ctx):
            return {side: {key: {exp: (c.num, c.den) for exp, c in tail.items()}
                           for key, tail in entries.items()}
                    for side, entries in ctx.tables.items()}

        assert coords(cached) == coords(fresh) and coords(fresh)["E"][(1, 3)]

    def test_omega_units_required(self, tmp_path):
        path = tmp_path / "a2.cache"
        write_cache(RunConfig(type_label="A2"), str(path))
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("omega_unit")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            read_cache(str(path))
        r = cli("verify", "--type", "A2", "--ell", "3", "--cache", str(path), "--suite", "integrals")
        assert r.returncode == 2 and "omega_unit" in r.stderr


class TestManifests:
    def test_sizes(self):
        assert len(default_manifest(RunConfig("A1", 3))) >= 16
        assert len(default_manifest(RunConfig("A1", 5))) >= 14
        assert len(default_manifest(RunConfig("A2", 3))) >= 15
        assert len(default_manifest(RunConfig("A1", 3, p=7, r=1))) >= 10

    def test_no_manifest_for_unknown(self):
        with pytest.raises(ConfigError):
            default_manifest(RunConfig("B2", 5))


class TestSubcommands:
    def test_relations(self):
        r = cli("relations", "--type", "A2", "1", "3")
        assert r.returncode == 0 and "q^-1" in r.stdout

    def test_relations_rejects_equal_indices(self):
        assert cli("relations", "--type", "A2", "2", "2").returncode == 2

    def test_relations_rejects_unordered_indices(self):
        r = cli("relations", "--type", "A2", "2", "1")
        assert r.returncode == 2 and r.stderr == "error: need 1 <= i < j <= 3\n", r.stderr

    def test_skeleton(self):
        r = cli("skeleton", "--type", "A1", "--ell", "3", "trivial")
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        assert rec["skeleton"] == [[1]]
        r = cli("skeleton", "--type", "A1", "--ell", "3", "simple(2)")
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        assert rec["skeleton"] == []

    @pytest.mark.parametrize("spec,minus,plus", SKELETON_LINES, ids=[s for s, _, _ in SKELETON_LINES])
    def test_skeleton_lines(self, capsys, spec, minus, plus):
        # the JSON lines of uzeta skeleton at A2 ell = 3, byte for byte
        for side, line in (("-", minus), ("+", plus)):
            assert main(["skeleton", "--type", "A2", "--ell", "3", f"--side={side}", spec]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == line

    def test_module_export(self, tmp_path):
        out = str(tmp_path / "m.txt")
        r = cli("module", "--type", "A1", "--ell", "3", "verma(1)", "--out", out)
        assert r.returncode == 0
        text = open(out).read()
        assert text.startswith("dim 3") and "generator F1" in text

    @pytest.mark.parametrize("args, digest", [
        (("--ell", "3", "--p", "5", "tensor(simple(1),dual(simple(1)))"),
         "fd3948b8d4ebfaaad07fc37c61ad6de23429ff1ca4d55ef965502d83f1f83080"),
        (("--ell", "5", "--p", "3", "tensor(simple(2),dual(simple(3)))"),
         "89346980bd426fd6a4f61c0bee45894a600116e16a1fced7ac7050b2fbe45a26"),
        (("--ell", "7", "--p", "3", "tensor(simple(2),simple(4))"),
         "2b3b19a7f857fcc0ea8397f312e4ae114d6f3ae20fb07c59413507503582fbdd"),
    ], ids=["F5^2", "F3^4", "F3^6"])
    def test_extension_field_module_bytes_pinned(self, args, digest, capsys):
        # the printed matrices of a module over F_{p^n}, n > 1, and so the
        # extension-field product, inverse and presentation, are pinned
        assert main(["module", "--type", "A1", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args, spec, small", [
        ((), "verma(100000000000000000000)", "verma(1)"),
        (("--p", "7", "--r", "1"), "verma(100000000000000000000)", "verma(16)"),
        ((), "coverma(-100000000000000000000)", "coverma(2)"),
        (("--p", "7", "--r", "1"), "coverma(-100000000000000000000)", "coverma(5)"),
    ], ids=["verma-r0", "verma-r1", "coverma-r0", "coverma-r1"])
    def test_huge_weight_acts_by_its_residue(self, args, spec, small, capsys):
        # the actions of Z(lam) read lam only modulo cap = 3 or 21, through
        # quantum numbers and K-binomials at zeta (quantum Lucas theorem),
        # so a weight of 10^20 costs no more than its residue; a subprocess
        # with a timeout, so that a cost growing with the weight fails the
        # test instead of hanging it
        r = cli("module", "--type", "A1", "--ell", "3", *args, spec, timeout=30)
        assert r.returncode == 0, r.stderr
        assert main(["module", "--type", "A1", "--ell", "3", *args, small]) == 0
        gens = [[ln for ln in out.splitlines() if ln.startswith("generator")]
                for out in (r.stdout, capsys.readouterr().out)]
        assert gens[0] and gens[0] == gens[1]

    def test_betti_table(self):
        r = cli("betti", "--type", "A1", "--ell", "3")
        assert r.returncode == 0 and "degree" in r.stdout

    def test_bad_spec_is_config_error(self):
        r = cli("module", "--type", "A1", "--ell", "3", "bogus(1)")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "args,dim",
        [(("--type", "B2", "--ell", "5", "verma(1,1)"), 625),
         (("--type", "A3", "--ell", "3", "--permissive", "verma(1,1,1)"), 729)],
        ids=["B2-l5", "A3-l3"],
    )
    def test_module_beyond_rank_two(self, args, dim):
        # realization and check() of Vermas outside every default manifest
        r = cli("module", *args)
        assert r.returncode == 0, r.stderr
        assert f"dim {dim}" in r.stdout.splitlines()

    def test_permissive_banner(self):
        r = cli("betti", "--type", "A1", "--ell", "3", "--permissive")
        assert "permissive" in r.stderr and "permissive" not in r.stdout

    def test_permissive_report_is_json_lines(self):
        # the banner goes to standard error, so a report on standard output
        # stays one JSON record per line
        r = cli("verify", "--type", "A2", "--ell", "3", "--permissive", "--suite", "integrals")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines and all(isinstance(json.loads(ln), dict) for ln in lines)


class TestVerify:
    def test_a1_all_green(self, tmp_path):
        out = str(tmp_path / "report.jsonl")
        r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "rootcrit", "--out", out)
        assert r.returncode == 0, r.stderr
        recs = [json.loads(l) for l in open(out)]
        assert recs and all(rec["agree"] for rec in recs)

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "zdual", "--out", out)
            assert r.returncode == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_jobs_match_serial(self, tmp_path):
        # the process pool is imported only when --jobs asks for one
        r = subprocess.run(
            [sys.executable, "-c", "import sys, uzeta.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert r.stdout.strip() == "False", r.stderr
        outs = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "zdual", "--jobs", jobs, "--out", out)
            assert r.returncode == 0, r.stderr
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_pool_matches_serial(self, tmp_path):
        # module suites go through the process pool (zdual above does not)
        outs = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "borel", "--jobs", jobs, "--out", out)
            assert r.returncode == 0, r.stderr
            outs.append(open(out, "rb").read())
        assert outs[0] and outs[0] == outs[1]

    def test_corrupt_cache_detected(self, tmp_path):
        path = str(tmp_path / "b2.cache")
        write_cache(RunConfig("B2", 5), path)
        bad = str(tmp_path / "bad.cache")
        open(bad, "w").write(open(path).read().replace("s_keys=2", "s_keys=5"))
        r = cli("verify", "--type", "B2", "--ell", "5", "--cache", bad, "--suite", "integrals")
        assert r.returncode == 2 and "vanishes" in r.stderr

    def test_summary_counts_skips_by_reason(self, tmp_path, capsys):
        out = str(tmp_path / "report.jsonl")
        # a case skipped over budget decided nothing, so the run fails
        assert main(["verify", "--type", "A1", "--ell", "3", "--suite", "highest", "--budget", "1", "--out", out]) == 1
        recs = [json.loads(l) for l in open(out)]
        lift = sum(1 for r in recs if r.get("reason") == "no full lift")
        budget = sum(1 for r in recs if "exceeds budget" in r.get("reason", ""))
        assert lift and budget and lift + budget == len(recs)
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == (
            f"# {len(recs)} records, 0 disagreements, {len(recs)} skipped"
            f" ({lift} no full lift, {budget} over budget)"
        )

    @pytest.mark.parametrize(
        "config,digest",
        [
            ("--type A1 --ell 3", "362c5a042c325dff885780f41619830837d0861efd31618a72c410436a6c6e7d"),
            ("--type A1 --ell 5", "1dcf190d66f38a643e0d4764a71bc721a90b58af8d472b4ac281b939f6b1f79e"),
            ("--type A2 --ell 3", "ec081865833c1efe1b655920f8b913375b0bae01f960c16b9f7d9d5c09abe736"),
            ("--type A1 --ell 3 --p 7 --r 1", "0fec9a65e0e731d03274373aa9bb68d160db17af84772f41d14d03918a1fc178"),
        ],
        ids=["A1-3", "A1-5", "A2-3", "A1-3-p7-r1"],
    )
    def test_default_configuration_all_green(self, tmp_path, config, digest):
        out = str(tmp_path / "report.jsonl")
        r = cli("verify", *config.split(), "--suite", "all", "--jobs", "2", "--out", out)
        assert r.returncode == 0, r.stdout + r.stderr
        recs = [json.loads(l) for l in open(out)]
        assert {rec["suite"] for rec in recs} == set(SUITES)
        assert not [rec for rec in recs if "exceeds budget" in rec.get("reason", "")]
        assert "over budget" not in r.stdout and "FALSIFICATION" not in r.stderr
        # every record of every suite, byte for byte, as the reports were
        # before the verify layer returned plain verdicts
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_timing_on_every_record(self, tmp_path):
        # every suite times its records; without them the report is the pinned one
        out = str(tmp_path / "report.jsonl")
        assert main(["verify", "--type", "A1", "--ell", "3", "--suite", "all", "--timing", "--out", out]) == 0
        recs = [json.loads(l) for l in open(out)]
        assert {rec["suite"] for rec in recs} == set(SUITES)
        assert all(isinstance(rec.pop("wall_time"), float) for rec in recs)
        text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in recs)
        digest = "362c5a042c325dff885780f41619830837d0861efd31618a72c410436a6c6e7d"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_spec_is_the_manifest_text_in_every_suite(self, tmp_path):
        # a spec that is not printed canonically: each record carries the
        # manifest's text, as its case does, and not the module's label
        path = tmp_path / "cases.jsonl"
        path.write_text('{"spec": "verma( 1)"}\n')
        recs = run_suites(RunConfig("A1", 3), list(MODULE_SUITES), load_manifest(str(path)))
        assert sorted(rec["suite"] for rec in recs) == sorted(MODULE_SUITES)
        assert [rec["spec"] for rec in recs] == ["verma( 1)"] * len(MODULE_SUITES)
        assert all(rec["case"] == f"{rec['suite']}:verma( 1)" for rec in recs)

    def test_a2_ell5_zdual_green(self, tmp_path):
        # the zdual half of the A2 ell = 5 configuration; rootcrit, reduction
        # and highest are still over budget there
        r = cli("verify", "--type", "A2", "--ell", "5", "--suite", "zdual", "--out", str(tmp_path / "z.jsonl"))
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FALSIFICATION" not in r.stdout + r.stderr

    def test_betti_skipped_unless_ell_above_coxeter(self, monkeypatch):
        # A2 at ell = h = 3 has extra classes, [1, 0, 5, 0, 12]: nothing to compare
        rec = run_betti(RunConfig("A2", 3))
        assert rec["dims"] == [1, 0, 5, 0, 12] and rec["skipped"] and rec["agree"]
        assert rec["reason"].startswith("ell <= Coxeter number 3")
        assert run_betti(RunConfig("A1", 3)) == {
            "case": "betti:b+", "suite": "betti", "dims": [1, 0, 1, 0, 1, 0, 1],
            "expected": [1, 0, 1, 0, 1, 0, 1], "agree": True,
        }
        # above h a wrong count stays a disagreement
        monkeypatch.setattr(cohomlite, "borel_cohomology_dims", lambda ctx, kind, n: [1, 0, 2, 0, 1, 0, 1])
        rec = run_betti(RunConfig("A1", 3))
        assert not rec["agree"] and "skipped" not in rec

    def test_run_suites_in_process(self):
        cfg = RunConfig("A1", 3)
        recs = run_suites(cfg, ["integrals"], [])
        assert all(r["agree"] for r in recs)

    def test_pool_no_larger_than_the_tasks(self, monkeypatch):
        import concurrent.futures

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = RunConfig("A1", 3)
        manifest = [{"spec": "trivial"}, {"spec": "verma(1)"}]
        recs = run_suites(cfg._replace(jobs=64), ["borel"], manifest)
        assert started == [2]
        assert recs == run_suites(cfg, ["borel"], manifest)

    def test_context_shared_per_configuration(self, tmp_path, monkeypatch):
        from uzeta import cli as cli_module

        # the same cache bytes in another test must not hand over a context
        monkeypatch.setattr(cli_module, "_CONTEXTS", {})
        cfg = RunConfig("A1", 3)
        assert make_context(cfg) is make_context(cfg)
        assert make_context(RunConfig("A1", 3, budget=10)) is make_context(cfg)
        assert make_context(RunConfig("A1", 5)) is not make_context(cfg)
        # one context per cache file content, apart from the one built from
        # scratch; a rewritten file gets a new one
        path = tmp_path / "a1.cache"
        write_cache(cfg, str(path))
        cached = RunConfig("A1", 3, cache_path=str(path))
        first = make_context(cached)
        assert make_context(cached) is first and first is not make_context(cfg)
        path.write_text(path.read_text() + "\n")
        second = make_context(cached)
        assert second is not first and make_context(cached) is second
        # and a file that no longer parses is refused, not served from memory
        path.write_text("not a cache\n")
        with pytest.raises(ConfigError):
            make_context(cached)

    def test_spec_realized_once_per_context(self, tmp_path, monkeypatch):
        from uzeta import cli as cli_module, qmodules
        from uzeta.cli import run_case

        monkeypatch.setattr(cli_module, "_CONTEXTS", {})
        realized = []
        real = qmodules.realize_text

        def counting(ctx, text):
            realized.append(text)
            return real(ctx, text)

        monkeypatch.setattr(qmodules, "realize_text", counting)
        spec = "sum(verma(1),simple(2))"
        cfg = RunConfig("A1", 3)
        first = run_case(cfg, "borel", spec, None)
        n = len(realized)
        assert run_case(cfg, "reduction", spec, None)["agree"]
        assert run_case(cfg, "borel", spec, None) == first
        assert len(realized) == n
        # a context read from a cache file starts with no modules, and the
        # cases that read the same file share it
        path = str(tmp_path / "a1.cache")
        write_cache(cfg, path)
        cached = RunConfig("A1", 3, cache_path=path)
        assert run_case(cached, "borel", spec, None) == first
        run_case(cached, "reduction", spec, None)
        assert len(realized) == n + 1

    def test_each_canonical_spec_built_once(self, freshctx, monkeypatch):
        # nested specs go through the one store too: simple(1) and its
        # tensor square are built once, however many cases name them
        from uzeta import qmodules
        from uzeta.cli import checked_module

        built = []
        for head, (sig, build) in list(qmodules.CONSTRUCTORS.items()):
            def spy(*args, build=build):
                m = build(*args)
                built.append(m.label)
                return m

            monkeypatch.setitem(qmodules.CONSTRUCTORS, head, (sig, spy))
        ctx = freshctx("A1", 3)
        cases = ["simple(1)", "dual(simple(1))", "tensor(simple(1),simple(1))",
                 "randsub(tensor(simple(1),simple(1)),5)"]
        for spec in cases + cases[::-1]:
            assert checked_module(ctx, spec) is ctx.realized[spec]
        assert sorted(built) == sorted(cases)
        assert sorted(ctx.realized) == sorted(cases)

    def test_spacing_does_not_split_the_store(self, freshctx):
        from uzeta.cli import checked_module
        from uzeta.qmodules import realize_text

        ctx = freshctx("A2", 3)
        m = checked_module(ctx, "simple(1, 0)")
        assert checked_module(ctx, "simple(1,0)") is m and realize_text(ctx, "simple( 1 ,0 )") is m
        assert list(ctx.realized) == ["simple(1,0)"]

    def test_nested_module_checked_when_asked_for(self, freshctx, monkeypatch):
        from uzeta.cli import checked_module
        from uzeta.qmodules import WeightedModule

        checked = []
        real = WeightedModule.check

        def spy(m):
            checked.append(m)
            return real(m)

        monkeypatch.setattr(WeightedModule, "check", spy)
        ctx = freshctx("A1", 3)
        dual = checked_module(ctx, "dual(simple(1))")
        inner = ctx.realized["simple(1)"]
        assert checked == [dual] and not inner.checked
        assert checked_module(ctx, "simple(1)") is inner
        assert checked == [dual, inner] and inner.checked
        checked_module(ctx, "simple(1)")
        checked_module(ctx, "dual(simple(1))")
        assert checked == [dual, inner]

    def test_a1_tensor_products_of_simples(self, monkeypatch):
        # Andersen (Comm. Math. Phys. 149, 1992), at r = 0:
        # (iii) L(a) (x) L(b) is injective exactly when a or b is the
        # Steinberg weight ell - 1; below it dim = (a+1)(b+1) is prime to
        # ell, which divides the dimension of every projective module;
        # (ii) a dual is injective exactly when the module is;
        # (i) X (x) L(ell - 1) is injective for every module X
        from uzeta import cli as cli_module

        monkeypatch.setattr(cli_module, "_CONTEXTS", {})
        count = 0
        for ell in (3, 5, 7):
            tensors = [
                (f"tensor(simple({a}),simple({b}))", max(a, b) == ell - 1)
                for a in range(ell) for b in range(a, ell)
            ]
            duals = [(f"dual({spec})", injective) for spec, injective in tensors]
            steinberg = [
                (f"tensor({x},simple({ell - 1}))", True)
                for x in ("verma(0)", "randsub(verma(1),42)", "quot(verma(0),7)", "dual(simple(1))",
                          f"twist(verma(1),{ell})")
            ]
            manifest = [{"spec": spec, "expect_injective": injective}
                        for spec, injective in tensors + duals + steinberg]
            recs = run_suites(RunConfig("A1", ell), ["rootcrit"], manifest)
            assert len(recs) == len(manifest)
            for rec in recs:
                assert not rec.get("skipped") and rec["agree"] and "expected" in rec, rec
            count += len(recs)
        assert count == 113

    def test_a1_r1_steinberg_tensors(self, monkeypatch):
        # at A1 ell = 3, p = 7, r = 1 the Steinberg module L(cap - 1) =
        # L(20) and Z(20) are projective, so (i) X (x) St is injective for
        # every module X, and (ii) so is its dual; dim X <= 7 keeps every
        # split test inside the default budget
        from uzeta import cli as cli_module

        monkeypatch.setattr(cli_module, "_CONTEXTS", {})
        xs = [f"simple({a})" for a in range(7)] + [
            "dual(simple(1))", "dual(simple(5))", "twist(simple(1),21)", "quot(verma(0),7)"]
        tensors = [f"tensor({x},{st})" for st in ("simple(20)", "verma(20)") for x in xs]
        manifest = [{"spec": spec, "expect_injective": True}
                    for spec in tensors + [f"dual({t})" for t in tensors]]
        recs = run_suites(RunConfig("A1", 3, p=7, r=1), ["rootcrit"], manifest)
        assert len(recs) == len(manifest) == 44
        for rec in recs:
            assert not rec.get("skipped") and rec["agree"] and rec["expected"], rec

    def test_every_record_carries_its_configuration(self):
        cfg = RunConfig("A1", 3, p=7)
        recs = run_suites(cfg, SUITES, [{"spec": "simple(2)", "expect_injective": True}])
        assert {r["suite"] for r in recs} == set(SUITES)
        for rec in recs:
            assert (rec["type"], rec["ell"], rec["p"], rec["r"], rec["w0"]) == ("A1", 3, 7, 0, [1]), rec

    def test_case_order_does_not_change_records(self):
        # warm straightening caches of a shared context must not leak into
        # a verdict: every record is the same in either order
        cfg = RunConfig("A1", 3)
        manifest = default_manifest(cfg)
        forward = run_suites(cfg, ["rootcrit", "reduction"], manifest)
        backward = run_suites(cfg, ["reduction", "rootcrit"], manifest[::-1])
        assert len(forward) == 2 * len(manifest)
        assert forward == backward


class TestBadInput:
    # each used to crash (ZeroDivisionError, AssertionError, RuntimeError)
    # or, for p = 25, to print wrong falsification candidates
    @pytest.mark.parametrize(
        "args",
        [
            ("skeleton", "--type", "A1", "--ell", "3", "--p", "7", "--r", "2", "trivial"),
            ("skeleton", "--type", "A2", "--ell", "3", "--p", "7", "--r", "1", "trivial"),
            ("verify", "--type", "A1", "--ell", "3", "--p", "25", "--suite", "rootcrit"),
            ("verify", "--type", "A1", "--ell", "5", "--p", "9", "--suite", "rootcrit"),
            ("module", "--type", "A1", "--ell", "3", "verma(-)"),
            ("module", "--type", "A1", "--ell", "3", "randsub(verma(1),-)"),
            # weights that a constructor refuses
            ("module", "--type", "A1", "--ell", "3", "onedim(1)"),
            ("module", "--type", "A1", "--ell", "3", "twist(verma(1),1)"),
            ("module", "--type", "A1", "--ell", "3", "simple(7)"),
            # a --w0 that is not a word, or not a reduced word for w0
            ("skeleton", "--w0", "a,b", "trivial"),
            ("skeleton", "--type", "A2", "--w0", "1,1,1", "trivial"),
            # --out into a directory that does not exist
            ("module", "verma(1)", "--out", "/nonexistent/x"),
            ("verify", "--suite", "borel", "--out", "/nonexistent/x"),
            ("betti", "--nmax", "1", "--out", "/nonexistent/x"),
            ("build", "--out", "/nonexistent/x"),
            ("betti", "--nmax", "-1"),
            # a negative kernel level, and no worker process
            ("betti", "--type", "A1", "--ell", "3", "--r", "-1"),
            ("module", "--type", "A1", "--ell", "3", "--p", "7", "--r", "-1", "verma(0)"),
            ("verify", "--suite", "borel", "--jobs", "0"),
            ("verify", "--suite", "rootcrit", "--budget", "-5"),
            ("verify", "--suite", "rootcrit", "--budget", "0"),
        ],
        ids=["r2", "a2-r1", "p25", "p9", "lone-minus", "lone-minus-seed",
             "onedim-weight", "twist-weight", "simple-weight", "w0-letters",
             "w0-not-reduced", "module-out", "verify-out", "betti-out", "build-out",
             "betti-nmax-negative", "betti-r-negative", "module-r-negative", "verify-jobs-0",
             "verify-budget-negative", "verify-budget-0"],
    )
    def test_exits_with_config_error(self, args):
        r = cli(*args)
        assert r.returncode == 2 and r.stderr.startswith("error:"), r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert "FALSIFICATION" not in r.stderr

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read manifest"),
            ('{"spec": "trivial"}\nnot json\n', "line 2 is not JSON"),
            ('# a comment\n{"expect_injective": false}\n', 'line 2 has no "spec"'),
            ('{"spec": "verma(1)", "expect_injective": "yes"}\n', 'line 1: "expect_injective" is "yes",'),
            ('{"spec": "verma(1)", "expect_injective": 1}\n', 'line 1: "expect_injective" is 1,'),
            ('{"spec": "verma(1)", "expect_injective": 0}\n', 'line 1: "expect_injective" is 0,'),
        ],
        ids=["missing", "not-json", "no-spec", "expect-text", "expect-one", "expect-zero"],
    )
    def test_malformed_manifest(self, tmp_path, text, message):
        path = tmp_path / "cases.jsonl"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_manifest(str(path))
        r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "borel", "--manifest", str(path))
        assert r.returncode == 2 and r.stderr.startswith("error:"), r.stderr
        assert len(r.stderr.splitlines()) == 1 and message in r.stderr, r.stderr

    def test_refused_weight_in_a_manifest(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"spec": "trivial"}\n{"spec": "twist(verma(1),1)"}\n')
        r = cli("verify", "--type", "A1", "--ell", "3", "--suite", "borel", "--manifest", str(path))
        assert r.returncode == 2 and r.stderr == "error: twist weight (1,) is not in 3X\n", r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("build", "--jobs", "7"),
            ("module", "--budget", "1", "trivial"),
            ("betti", "--timing"),
        ],
        ids=["build-jobs", "module-budget", "betti-timing"],
    )
    def test_verify_options_only_on_verify(self, args):
        r = cli(*args)
        assert r.returncode == 2 and "unrecognized arguments" in r.stderr, r.stderr

    def test_malformed_spec_is_a_config_error(self):
        # a library caller that catches ConfigError also sees a spec that
        # does not parse; the command line still exits 2 with its message
        with pytest.raises(ConfigError, match="expected integer at position 6"):
            run_suites(RunConfig("A1", 3), ["borel"], [{"spec": "verma("}])
        r = cli("module", "--type", "A1", "--ell", "3", "verma(")
        assert r.returncode == 2 and r.stderr == "error: expected integer at position 6 in 'verma('\n", r.stderr

    @pytest.mark.parametrize(
        "args",
        [("module", "trivial"), ("verify", "--suite", "borel"), ("betti", "--nmax", "1"), ("build",)],
        ids=["module", "verify", "betti", "build"],
    )
    def test_out_is_a_directory(self, tmp_path, args):
        r = cli(*args, "--out", str(tmp_path))
        assert r.returncode == 2 and r.stderr == f"error: cannot write {tmp_path}: it is a directory\n", r.stderr

    @pytest.mark.parametrize("via", ["module", "manifest"])
    def test_spec_nesting_is_bounded(self, tmp_path, via):
        def run(levels):
            spec = "dual(" * levels + "trivial" + ")" * levels
            if via == "module":
                return cli("module", "--type", "A1", "--ell", "3", spec)
            path = tmp_path / "cases.jsonl"
            path.write_text(json.dumps({"spec": spec}) + "\n")
            return cli("verify", "--type", "A1", "--ell", "3", "--suite", "borel", "--manifest", str(path))

        r = run(MAX_SPEC_DEPTH)
        assert r.returncode == 0, r.stderr
        for levels in (MAX_SPEC_DEPTH + 1, 3000):
            r = run(levels)
            assert r.returncode == 2, r.stderr
            message = f"error: spec nests deeper than {MAX_SPEC_DEPTH} levels at position {5 * (MAX_SPEC_DEPTH + 1)}"
            assert r.stderr.startswith(message) and len(r.stderr.splitlines()) == 1, r.stderr[:200]
            # the spec is quoted by a window around the position, not whole
            assert len(r.stderr) <= len(message) + len(" in ...''...\n") + SPEC_QUOTE_WIDTH, r.stderr[:200]

    def test_bad_configuration_is_not_blamed_on_the_cache(self, tmp_path):
        r = cli("verify", "--type", "A1", "--ell", "3", "--p", "4",
                "--cache", str(tmp_path / "x.cache"), "--suite", "borel")
        assert r.returncode == 2 and r.stderr == "error: p = 4 is not a prime\n", r.stderr


class TestCorruptCache:
    """Every subcommand that reads a corrupt cache exits 2 with one line."""

    @pytest.fixture(scope="class")
    def b2_cache(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cache") / "b2.cache"
        write_cache(RunConfig("B2", 5), str(path))
        return path.read_text()

    @pytest.fixture
    def bad_cache(self, b2_cache, tmp_path):
        # two S-exponents on the E 1 3 tail coefficient, where S has one key
        (line,) = [ln for ln in b2_cache.splitlines() if ln.startswith("E 1 3 ")]
        assert line.endswith("|1")
        path = tmp_path / "bad.cache"
        path.write_text(b2_cache.replace(line, line + ",7"))
        return str(path)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("|1\n", "|1,7\n"),
            ("omega_unit 1 ", "omega_unit one "),
            ("E 1 3 ->", "E 1 ->"),
            ("(0,2,0,0)=", "(0,x,0,0)="),
            ("=-1:1,0,-2,0,1|1", "=-1:1,0,-2/0,0,1|1"),
        ],
        ids=["s-exponents", "unit-index", "entry-head", "exponent", "coefficient"],
    )
    def test_read_cache_raises_config_error(self, b2_cache, tmp_path, old, new):
        assert old in b2_cache
        path = tmp_path / "bad.cache"
        path.write_text(b2_cache.replace(old, new, 1))
        with pytest.raises(ConfigError, match="malformed"):
            read_cache(str(path))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("omega_unit 4 .*\n", "", "has 3 omega_unit lines, not 4"),
            ("type=B2\n", "type=X9\n", "unsupported root system type 'X9'"),
            ("type=B2\n", "", "unsupported root system type ''"),
            ("w0=1,2,1,2\n", "w0=1,2,x,2\n", "invalid literal"),
            ("w0=1,2,1,2\n", "w0=1,2,1\n", "length 4"),
            ("w0=1,2,1,2\n", "w0=1,1,2,2\n", "not a reduced expression"),
        ],
        ids=["units-short", "type-unknown", "type-missing", "w0-letter", "w0-short", "w0-not-reduced"],
    )
    def test_header_without_order_or_units(self, b2_cache, tmp_path, old, new, message):
        text = re.sub(old, new, b2_cache, count=1)
        assert text != b2_cache
        path = tmp_path / "bad.cache"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            read_cache(str(path))
        r = cli("verify", "--type", "B2", "--ell", "5", "--cache", str(path), "--suite", "integrals")
        assert r.returncode == 2 and r.stderr.startswith("error:"), r.stderr
        assert len(r.stderr.splitlines()) == 1 and message in r.stderr, r.stderr

    @pytest.mark.parametrize(
        "args,named",
        [
            (("verify", "--type", "B2", "--ell", "5", "--w0", "2,1,2,1", "--suite", "borel",
              "--manifest", "{manifest}"), ("B2 with w0 1,2,1,2", "B2 with w0 2,1,2,1")),
            (("relations", "--type", "B2", "--ell", "5", "--w0", "2,1,2,1", "1", "3"),
             ("B2 with w0 1,2,1,2", "B2 with w0 2,1,2,1")),
            (("verify", "--type", "A2", "--ell", "3", "--suite", "borel"),
             ("B2 with w0 1,2,1,2", "A2 with w0 1,2,1")),
            (("relations", "--type", "A2", "--ell", "5", "1", "3"),
             ("B2 with w0 1,2,1,2", "A2 with w0 1,2,1")),
        ],
        ids=["verify-w0", "relations-w0", "verify-type", "relations-type"],
    )
    def test_cache_of_another_order(self, b2_cache, tmp_path, args, named):
        # a well-formed cache written for another type or word: its tails
        # would print or compute a wrong relation, so it is refused
        cache, manifest = tmp_path / "b2.cache", tmp_path / "cases.jsonl"
        cache.write_text(b2_cache)
        manifest.write_text('{"spec": "verma(1,0)"}\n{"spec": "simple(1,1)"}\n{"spec": "trivial"}\n')
        r = cli(*(a.format(manifest=manifest) for a in args), "--cache", str(cache))
        assert r.returncode == 2 and r.stderr.startswith("error:"), r.stderr
        assert len(r.stderr.splitlines()) == 1 and "corrupt" not in r.stderr, r.stderr
        assert f"built for {named[0]}, not for {named[1]}" in r.stderr, r.stderr

    def test_relations_entry_missing_from_cache(self, b2_cache, tmp_path):
        path = tmp_path / "short.cache"
        path.write_text("".join(ln + "\n" for ln in b2_cache.splitlines() if not ln.startswith("E 1 2 ")))
        r = cli("relations", "--type", "B2", "--ell", "5", "1", "2", "--cache", str(path))
        assert r.returncode == 2 and r.stderr.count("\n") == 1 and "no E entry 1 2" in r.stderr, r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--type", "B2", "--ell", "5", "--cache", "{}", "--suite", "integrals"),
            ("relations", "--type", "B2", "--ell", "5", "1", "2", "--cache", "{}"),
            ("cache-info", "{}"),
        ],
        ids=["verify", "relations", "cache-info"],
    )
    @pytest.mark.parametrize(
        "old,new,fault",
        [
            (r"(?m)^E 1 3 .*\n", "", "has no E entry 1 3"),
            (r"(?m)^F 1 2 (.*\n)", r"F 1 2 \1F 4 5 \1", "has an F entry 4 5 outside 1 <= i < j <= 4"),
            (r"(?m)^(F 2 3 .*\n)", r"\1\1", "has 2 F entries 2 3"),
        ],
        ids=["missing", "extra", "repeated"],
    )
    def test_entry_for_each_pair_once(self, b2_cache, tmp_path, args, old, new, fault):
        # without the check a missing entry raised KeyError deep in a
        # straightening step, and cache-info accepted the file
        text = re.sub(old, new, b2_cache, count=1)
        assert text != b2_cache
        path = tmp_path / "pairs.cache"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(fault)):
            read_cache(str(path))
        r = cli(*(a.format(path) for a in args))
        assert r.returncode == 2 and r.stderr.startswith("error:"), r.stderr
        assert len(r.stderr.splitlines()) == 1 and fault in r.stderr, r.stderr

    def test_missing_cache_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_cache(str(tmp_path / "absent.cache"))

    @pytest.mark.parametrize(
        "args",
        [
            ("cache-info", "{}"),
            ("relations", "--type", "B2", "--ell", "5", "1", "2", "--cache", "{}"),
            ("verify", "--type", "B2", "--ell", "5", "--cache", "{}", "--suite", "integrals"),
        ],
        ids=["cache-info", "relations", "verify"],
    )
    def test_subcommand_exits_2(self, bad_cache, args):
        r = cli(*(a.format(bad_cache) for a in args))
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert "bad localized scalar" in r.stderr
