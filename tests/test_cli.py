import json
import subprocess
import sys

import pytest

from uzeta.cli import (
    ConfigError,
    RunConfig,
    default_manifest,
    main,
    make_context,
    read_cache,
    run_suites,
    write_cache,
)


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "uzeta.cli", *args], capture_output=True, text=True
    )


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
        ):
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_g2_gated(self):
        with pytest.raises(ConfigError):
            RunConfig(type_label="G2", ell=7).validate()
        RunConfig(type_label="G2", ell=7, long_running=True).validate()

    def test_default_word(self):
        assert RunConfig(type_label="A2").word() == (1, 2, 1)


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

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("something else\n")
        with pytest.raises(ConfigError):
            read_cache(str(path))

    def test_b2_cache_has_denominator_entry(self, tmp_path):
        path = str(tmp_path / "b2.cache")
        write_cache(RunConfig(type_label="B2", ell=5), path)
        _, data = read_cache(path)
        assert any(
            c.denominator_nontrivial()
            for tail in data.e_entries.values()
            for c in tail.values()
        )


    def test_cached_context_needs_no_structure_table(self, tmp_path, monkeypatch):
        from uzeta.genericuq import UqGeneric

        path = str(tmp_path / "b2.cache")
        write_cache(RunConfig("B2", 5), path)
        fresh = make_context(RunConfig("B2", 5))
        asked = []
        real = UqGeneric.structure_table

        def counting(uq, order):
            asked.append(order)
            return real(uq, order)

        monkeypatch.setattr(UqGeneric, "structure_table", counting)
        cached = make_context(RunConfig("B2", 5, cache_path=path))
        assert asked == []
        # the two contexts have their own fields: compare the coordinates
        assert [(u.num, u.den) for u in cached.omega_units] == [(u.num, u.den) for u in fresh.omega_units]

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

    def test_skeleton(self):
        r = cli("skeleton", "--type", "A1", "--ell", "3", "trivial")
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        assert rec["skeleton"] == [[1]]
        r = cli("skeleton", "--type", "A1", "--ell", "3", "simple(2)")
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        assert rec["skeleton"] == []

    def test_module_export(self, tmp_path):
        out = str(tmp_path / "m.txt")
        r = cli("module", "--type", "A1", "--ell", "3", "verma(1)", "--out", out)
        assert r.returncode == 0
        text = open(out).read()
        assert text.startswith("dim 3") and "generator F1" in text

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
        assert "permissive" in r.stdout


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

    def test_run_suites_in_process(self):
        cfg = RunConfig("A1", 3)
        recs = run_suites(cfg, ["integrals"], [])
        assert all(r["agree"] for r in recs)

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
        ],
        ids=["r2", "a2-r1", "p25", "p9"],
    )
    def test_exits_with_config_error(self, args):
        r = cli(*args)
        assert r.returncode == 2 and "error:" in r.stderr, r.stderr
        assert "FALSIFICATION" not in r.stderr


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

    def test_relations_entry_missing_from_cache(self, b2_cache, tmp_path):
        path = tmp_path / "short.cache"
        path.write_text("".join(ln + "\n" for ln in b2_cache.splitlines() if not ln.startswith("E 1 2 ")))
        r = cli("relations", "--type", "B2", "--ell", "5", "1", "2", "--cache", str(path))
        assert r.returncode == 2 and r.stderr.count("\n") == 1 and "no E entry 1 2" in r.stderr, r.stderr

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
