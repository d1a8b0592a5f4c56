"""The benchmark's workloads and the seeded model generator.

A workload is a list of model specs.  One pass of a workload runs each
spec's CLI tasks on the next generated model of that spec; a run cycles
through the models its seed generated.  The program itself only ever
sees the generated config files.

Why each workload exists (the layer it stresses, and the ROADMAP item it
should or should not move) is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import numpy as np

from ellsov.params import ModelParams, ParameterError
from ellsov.theta import Lattice

# The modulus of the bundled configs.  It is held fixed because the
# length of every theta q-series depends on Im tau: drawing tau would
# make a run's cost depend on the seed's series lengths instead of on
# the code under test.
TAU = complex(0.31, 1.07)
TOLERANCES = {"trunc_tol": 1e-16, "residual_tol": 1e-9, "rho": 1e-6, "gap_tol": 1e-7}


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    name: str
    lams: tuple[int, ...]
    tasks: tuple[str, ...]
    blocks: dict
    # ModelParams validators the tasks' hypotheses require (the CLI
    # exits 2 on a model that fails one)
    hypotheses: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    specs: tuple[ModelSpec, ...]
    models: int  # generated models per spec; passes cycle through them
    trace_passes: int  # untraced/traced pass pairs in a traced run
    # Nominal seconds of one pass on the reference machine (see README.md).
    # A --trace 0 run makes round(seconds / pass_s) passes, so the tasks a
    # run attempts, and which of them fail, depend only on the workload,
    # the seed and --seconds, never on how fast the machine was.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    "rll-n2": Workload(
        specs=(
            ModelSpec(
                "eqg2",
                (1, 1),
                ("eqg rll-check",),
                {"eqg": {"lambda_samples": 5, "qybe_samples": 20}},
                (),
            ),
        ),
        models=12,
        trace_passes=2,
        pass_s=5.0,
    ),
    "spectrum-n7": Workload(
        specs=(ModelSpec("irf7", (1,) * 7, ("irf spectrum",), {}, ("validate_for_irf",)),),
        models=12,
        trace_passes=2,
        pass_s=5.0,
    ),
    "transfer-n9": Workload(
        specs=(
            ModelSpec(
                "irf9",
                (1,) * 9,
                ("irf build",),
                {"irf": {"commuting_pairs": 1}},
                ("validate_for_irf",),
            ),
        ),
        models=12,
        trace_passes=2,
        pass_s=5.5,
    ),
    "solvers": Workload(
        specs=(
            ModelSpec(
                "gaudin3",
                (1, 1, 2),
                ("gaudin check", "gaudin bethe"),
                {"gaudin": {"degree": 8, "lambda_samples": 3}},
                ("validate_distinct_sites", "validate_even_weight_sum"),
            ),
            ModelSpec(
                "bethe4",
                (1, 1, 1, 1),
                ("irf bethe",),
                {"irf": {"eigen_samples": 3}},
                ("validate_distinct_sites", "validate_even_weight_sum"),
            ),
        ),
        models=24,
        trace_passes=12,
        pass_s=0.25,
    ),
}


def _draw(rng: np.random.Generator, spec: ModelSpec) -> dict:
    eta = complex(rng.uniform(0.10, 0.25), rng.uniform(-0.10, 0.10))
    sites = [
        {"z": [round(rng.uniform(0.0, 1.0), 6), round(rng.uniform(0.0, 1.0) * TAU.imag, 6)],
         "lambda": lam}
        for lam in spec.lams
    ]
    cfg = {
        "tau": [TAU.real, TAU.imag],
        "eta": [round(eta.real, 6), round(eta.imag, 6)],
        "sites": sites,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "tolerances": dict(TOLERANCES),
    }
    cfg.update(spec.blocks)
    return cfg


def _admissible(cfg: dict, spec: ModelSpec) -> bool:
    try:
        params = ModelParams(
            lattice=Lattice(complex(*cfg["tau"])),
            eta=complex(*cfg["eta"]),
            zs=tuple(complex(*s["z"]) for s in cfg["sites"]),
            lams=spec.lams,
            rho=TOLERANCES["rho"],
            trunc_tol=TOLERANCES["trunc_tol"],
        )
        for name in spec.hypotheses:
            getattr(params, name)()
    except ParameterError:
        return False
    return True


def generate(workload: str, seed: int) -> tuple[dict[str, list[str]], int]:
    """Config texts per spec name for this seed, and the rejected-draw count.

    Sites are uniform in the fundamental cell and eta is uniform in a
    box around the bundled value.  A draw is rejected only when it
    violates ModelParams or the tasks' hypothesis validators, never
    because of how a check would come out.
    """
    wl = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    texts: dict[str, list[str]] = {}
    rejected = 0
    for spec in wl.specs:
        texts[spec.name] = []
        while len(texts[spec.name]) < wl.models:
            cfg = _draw(rng, spec)
            if not _admissible(cfg, spec):
                rejected += 1
                if rejected > 1000:
                    raise RuntimeError("model generator rejected 1000 draws")
                continue
            texts[spec.name].append(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return texts, rejected


# the check battery each task's report carries, in order
EXPECTED_CHECKS = {
    "eqg rll-check": ("rll_sixteen_relations", "qybe", "ktwist", "residue_sum"),
    "irf spectrum": (
        "certificate_residuals",
        "reconstruction_angle",
        "reconstruction_span",
        "character_laws",
    ),
    "irf build": ("sov_family_commutes", "paths_family_commutes", "dual_reconciliation"),
    "gaudin check": (
        "hamiltonians_commute",
        "hamiltonian_sum_vanishes",
        "s_decomposition",
        "s_family_commutes",
    ),
    "gaudin bethe": ("solver_converged", "eigen_residual", "eigenvalue_sum"),
    "irf bethe": ("solver_converged", "eigen_residual", "character_match", "q_membership"),
}
