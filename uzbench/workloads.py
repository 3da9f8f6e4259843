"""Benchmark workloads: configurations, seeded manifests and reference digests.

Every verify workload runs the default manifest of its configuration at
seed 0.  Any other seed keeps the manifest's cases and replaces each
``randsub(...,s)`` / ``quot(...,s)`` seed (nested ones too) by a seed
derived from the workload seed; the program under test only ever sees
the generated manifest file.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    type_label: str
    ell: int
    suites: Tuple[str, ...]
    p: Optional[int] = None
    r: int = 0
    panel: int = 0  # fixed corpora (workload seeds 0 .. panel-1) every timed run adds

    @property
    def is_betti(self) -> bool:
        return self.suites == ("betti",)

    def run_config(self):
        from uzeta.cli import RunConfig

        return RunConfig(type_label=self.type_label, ell=self.ell, p=self.p, r=self.r, jobs=1)

    def betti_argv(self, out_path: str) -> List[str]:
        return ["betti", "--type", self.type_label, "--ell", str(self.ell),
                "--nmax", str(BETTI_NMAX), "--out", out_path]


BETTI_NMAX = 4
# H^n(b+, k) for A2 at ell = 5 (above the Coxeter number): polynomial ring
# on the three positive roots, generators in degree 2.
BETTI_EXPECTED = [1, 0, 3, 0, 6]

# Why each workload is here, and the layer it stresses or bypasses, is the
# `why` of its entry in BENCHMARK.json.  The smoke workload is not listed
# there: it checks the benchmark itself in about a second.
#
# A timed run adds the workload's panel of fixed corpora to the corpus of
# its own seed, so that every run measures at least about 25 s:
# - rootcrit-a1-l5 (two panel corpora): the time of one of its corpora
#   varies by about 25% with the seed, because two random submodule and
#   quotient cases of 25-dimensional tensor modules cost 0.2 to 4.6 s each
#   and the other 19 cases about 5.6 s in all.  Averaged with the panel,
#   one seed moves the run's mean by a third of that.
# - higher-a1-l3-p7 and betti-a2-l5 (one panel corpus): a process takes
#   about 7 to 12 s, and on a shared 2-vCPU machine the CPU speed moves by
#   tens of percent over seconds; the speed probe (speedprobe.py) takes out
#   most of that, and two processes average what is left.
# - borel-a2-l3 takes about 24 s in one process and needs no panel.
# On the verify workloads other than rootcrit-a1-l5 the seeded cases take
# a few percent of the time; betti-a2-l5 has no seeded input.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rootcrit-a1-l5", "A1", 5, ("rootcrit",), panel=2),
        Workload("borel-a2-l3", "A2", 3, ("borel", "reduction")),
        Workload("higher-a1-l3-p7", "A1", 3, ("rootcrit", "reduction"), p=7, r=1, panel=1),
        Workload("betti-a2-l5", "A2", 5, ("betti",), panel=1),
        Workload("smoke-a1-l3", "A1", 3, ("rootcrit",)),
    )
}

# sha256 of the deterministic report (see run.read_report) per workload seed:
# seed 0 for every workload, and every panel seed.
REFERENCE_DIGESTS: Dict[str, Dict[int, str]] = {
    "rootcrit-a1-l5": {
        0: "883057a7515dc01d7327767db54bf0fc6015c7ae908b4584217a5aab3b15f723",
        1: "05db8477207a61f4598c6c54e64db1f0e9c3828e85b6a05fd5c04062bc7547d5",
    },
    "borel-a2-l3": {0: "b8fbd1d744327ace568119caa4c1b465f5f4a58d41788b59235b28ec22f9a4ed"},
    "higher-a1-l3-p7": {0: "4d8fe57774b7bf93fc163a3c2b0951164cf1c988cc0b9fe357a5e308bb8d6a8e"},
    "betti-a2-l5": {0: "3744387ded509fc33d776196e39254174dd5c57f31a0a0106fa4aa2587f6eb59"},
    "smoke-a1-l3": {0: "59690eac00555d1278164d602f250fa57a81e9937e6eab7b26f6c034e71b3495"},
}


def derived_seed(workload_seed: int, spec_seed: int) -> int:
    return random.Random(workload_seed * 1_000_003 + spec_seed).randrange(1, 1 << 30)


def process_seeds(workload: Workload, workload_seed: int, count: int) -> List[int]:
    """Workload seeds of the first ``count`` processes of a timed run.

    The run's own seed, then the panel, then seeds derived from the run's seed.
    """
    head = [workload_seed] + list(range(workload.panel))
    extra = [(workload_seed + 1) * 1_000_003 + i for i in range(len(head), count)]
    return (head + extra)[:count]


def _reseed(spec, workload_seed: int):
    args = tuple(_reseed(a, workload_seed) for a in spec.args)
    seed = spec.seed
    if spec.head in ("randsub", "quot"):
        seed = derived_seed(workload_seed, spec.seed)
    return dataclasses.replace(spec, args=args, seed=seed)


def manifest(workload: Workload, seed: int) -> List[Dict]:
    """Cases the program is given for this workload seed (seed 0: the defaults)."""
    from uzeta.cli import default_manifest
    from uzeta.qmodules import parse_module_spec

    cases = default_manifest(workload.run_config())
    if seed == 0:
        return cases
    rank = {"A1": 1, "A2": 2}[workload.type_label]
    out = []
    for case in cases:
        spec = case["spec"]
        if "randsub(" in spec or "quot(" in spec:
            spec = str(_reseed(parse_module_spec(spec, rank), seed))
        out.append(dict(case, spec=spec))
    return out
