"""Config parsing, report schema, exit codes, determinism of the batch front-end."""

import json
from pathlib import Path

import numpy as np
import pytest

from ellsov import cli, gaudin, irf
from ellsov.theta import PoleProximityError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_to_file(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def rewrite_config(tmp_path, base, name, mutate):
    cfg = json.loads((CONFIGS / base).read_text())
    mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def reference_jsonable(obj):
    """The former recursive converter that the encoder hook replaces."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return reference_jsonable(obj.tolist())
    return obj


def test_json_default_matches_reference():
    obj = {
        "complex": 0.1 + 2.5e-17j,
        "np_complex": np.complex128(-3.0 + 1e300j),
        "matrix": np.array([[1 + 2j, -0.0 + 0j], [np.pi * 1j, 1e-310]]),
        "flag": np.bool_(True),
        "count": np.int64(-7),
        "value": np.float64(1.0) / 3,
        "nan": float("nan"),
        "pair": (1, np.float64(2.5), [np.complex128(1j)]),
        "nested": {"b": [np.bool_(False)], "a": None},
    }
    expect = json.dumps(reference_jsonable(obj), indent=2, sort_keys=True)
    assert json.dumps(obj, indent=2, sort_keys=True, default=cli._json_default) == expect
    with pytest.raises(TypeError):
        json.dumps({"x": object()}, default=cli._json_default)


def test_report_shape(tmp_path):
    code, report = run_to_file(
        tmp_path, ["theta", "eval", "--config", str(CONFIGS / "theta.json")]
    )
    assert code == 0
    assert report["task"] == "theta eval"
    assert report["pass"] is True
    assert set(report["config"]) >= {"tau", "eta", "sites", "seed"}
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "pass"}
        assert check["residual"] <= check["tolerance"]
    # complex values travel as [re, im]
    for entry in report["metrics"]["values"]:
        assert len(entry["theta"]) == 2
    assert "seconds" in report["timing"]


def test_stdout_default(capsys):
    code = cli.main(["theta", "eval", "--config", str(CONFIGS / "theta.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task"] == "theta eval"


def test_determinism_and_seed_override(tmp_path):
    # without a pinned z0 the probe point comes from the seeded stream
    cfg = rewrite_config(
        tmp_path, "irf_n3.json", "nz0.json", lambda c: c["irf"].pop("z0")
    )
    base = ["irf", "spectrum", "--config", cfg]
    _, rep1 = run_to_file(tmp_path, base + ["--seed", "11"], "a.json")
    _, rep2 = run_to_file(tmp_path, base + ["--seed", "11"], "b.json")
    _, rep3 = run_to_file(tmp_path, base + ["--seed", "12"], "c.json")
    for rep in (rep1, rep2, rep3):
        rep.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["metrics"]["z0"] != rep3["metrics"]["z0"]


def test_lattice_invariant_exit2(tmp_path, capsys):
    cfg = rewrite_config(
        tmp_path, "irf_n3.json", "flip.json", lambda c: c.update(tau=[0.31, -1.07])
    )
    assert cli.main(["irf", "build", "--config", cfg]) == 2
    assert "Lattice invariant violated" in capsys.readouterr().err


def test_non_finite_model_exit2(tmp_path, capsys):
    # JSON admits NaN and Infinity literals; they must fail as config errors
    nan_eta = rewrite_config(
        tmp_path, "irf_n3.json", "naneta.json", lambda c: c.update(eta=[float("nan"), 0.1])
    )
    assert cli.main(["irf", "build", "--config", nan_eta]) == 2
    inf_site = rewrite_config(
        tmp_path, "irf_n3.json", "infsite.json", lambda c: c["sites"][1].update(z=[0.4, float("inf")])
    )
    assert cli.main(["irf", "spectrum", "--config", inf_site]) == 2
    assert "not finite" in capsys.readouterr().err


def test_schema_gates(tmp_path):
    even_n = rewrite_config(
        tmp_path, "irf_n3.json", "even.json", lambda c: c.update(sites=c["sites"][:2])
    )
    assert cli.main(["irf", "build", "--config", even_n]) == 2
    odd_sum = rewrite_config(
        tmp_path,
        "gaudin_n2.json",
        "odd.json",
        lambda c: c["sites"][0].update({"lambda": 2}),
    )
    assert cli.main(["gaudin", "bethe", "--config", odd_sum]) == 2
    bad_pair = rewrite_config(
        tmp_path, "theta.json", "pair.json", lambda c: c.update(eta=[0.1])
    )
    assert cli.main(["theta", "eval", "--config", bad_pair]) == 2
    assert cli.main(["theta", "eval", "--config", str(tmp_path / "missing.json")]) == 2
    no_rows = rewrite_config(
        tmp_path, "irf_n3.json", "norows.json", lambda c: c["irf"].pop("rows")
    )
    assert cli.main(["irf", "partition", "--config", no_rows]) == 2


@pytest.mark.parametrize("value", [0, -1, "x", 2.7, True])
def test_counts_must_be_positive_integers(tmp_path, capsys, value):
    cfg = rewrite_config(
        tmp_path, "irf_n3.json", "count.json", lambda c: c["irf"].update(commuting_pairs=value)
    )
    assert cli.main(["irf", "build", "--config", cfg]) == 2
    assert "commuting_pairs must be a positive integer" in capsys.readouterr().err


def reference_commutators(cfg):
    """irf build's commutator residuals, both products on the calling thread."""
    params = cli.build_params(cfg)
    rng = np.random.default_rng(cfg["seed"])
    comm = {"sov": 0.0, "paths": 0.0}
    for _ in range(cfg["irf"]["commuting_pairs"]):
        za = irf.sample_spectral(params, rng)
        zb = irf.sample_spectral(params, rng)
        for kind, build in (("sov", irf.build_T_irf_sov), ("paths", irf.build_T_irf_paths)):
            a, b = build(params, za), build(params, zb)
            ab = a @ b
            comm[kind] = max(comm[kind], float(np.max(np.abs(ab - b @ a)) / np.max(np.abs(ab))))
    return comm


def test_irf_build_commutators_match_reference(tmp_path):
    seven = [{"z": [0.66, 0.34], "lambda": 1}, {"z": [0.05, 0.64], "lambda": 1}]
    for name, mutate in (
        ("five.json", lambda c: None),
        ("seven.json", lambda c: c["sites"].extend(seven)),
    ):
        path = rewrite_config(tmp_path, "irf_n5.json", name, mutate)
        code, report = run_to_file(tmp_path, ["irf", "build", "--config", path])
        assert code in (0, 1)
        residuals = {c["name"]: c["residual"] for c in report["checks"]}
        comm = reference_commutators(json.loads(Path(path).read_text()))
        assert residuals["sov_family_commutes"] == comm["sov"]
        assert residuals["paths_family_commutes"] == comm["paths"]
        metrics = report["metrics"]
        assert metrics["bridge_condition"] >= 1.0 and metrics["paths_min_relative_gap"] > 0.0


def test_unknown_action_exits():
    with pytest.raises(SystemExit) as err:
        cli.main(["irf", "frobnicate", "--config", "x.json"])
    assert err.value.code == 2


def test_tol_override_fails_checks(tmp_path):
    cfg = rewrite_config(
        tmp_path, "irf_n3.json", "one.json", lambda c: c.update(sites=c["sites"][:1])
    )
    code, report = run_to_file(
        tmp_path, ["irf", "build", "--config", cfg, "--tol", "1e-30"]
    )
    assert code == 1
    assert report["pass"] is False
    assert any(not c["pass"] for c in report["checks"])


def test_spectrum_bundled_config(tmp_path):
    csv_dir = tmp_path / "curves"
    code, report = run_to_file(
        tmp_path,
        [
            "irf",
            "spectrum",
            "--config",
            str(CONFIGS / "irf_n3.json"),
            "--emit-csv",
            str(csv_dir),
        ],
    )
    assert code == 0
    certs = report["certificates"]
    assert len(certs) == 8
    assert all(c["passed"] for c in certs)
    # each certificate keeps the n separated pairs, not the 2^n-entry vector
    keys = {
        "eigenvalue",
        "passed",
        "degenerate",
        "gap",
        "angle",
        "membership_residual",
        "cluster_residual",
        "quadratic_residuals",
        "q_pairs",
    }
    assert all(set(c) == keys for c in certs)
    assert all(len(c["q_pairs"]) == 3 for c in certs)
    files = sorted(csv_dir.glob("spectrum_eps_*.csv"))
    assert len(files) == 8
    header, first = files[0].read_text().splitlines()[:2]
    assert header == "z_re,z_im,eps_re,eps_im"
    assert len(first.split(",")) == 4


def test_rll_bundled_config(tmp_path):
    code, report = run_to_file(
        tmp_path, ["eqg", "rll-check", "--config", str(CONFIGS / "eqg_n1.json")]
    )
    assert code == 0
    for check in report["checks"]:
        assert check["residual"] <= 1e-9


def test_partition_report(tmp_path):
    code, report = run_to_file(
        tmp_path, ["irf", "partition", "--config", str(CONFIGS / "irf_n3.json")]
    )
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "row_permutation_paths",
        "row_permutation_sov",
        "construction_consistency",
    }
    assert len(report["metrics"]["rows"]) == 4


def test_gaudin_bethe_solver_failure(tmp_path, monkeypatch):
    """A Gaudin solve that fails on every start is a failed check with exit 1."""

    def at_pole(*args):
        raise PoleProximityError("residual evaluated at a pole")

    monkeypatch.setattr(gaudin, "_gaudin_equations", at_pole)
    code, report = run_to_file(
        tmp_path, ["gaudin", "bethe", "--config", str(CONFIGS / "gaudin_n2.json")]
    )
    assert code == 1
    assert report["pass"] is False
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("solver_converged", False)]
    assert "residual evaluated at a pole" in report["metrics"]["solver_error"]


def test_gaudin_bethe_root_near_site_difference(tmp_path):
    """Under seed 4 the three-site config's eigen_residual read 1.3e-6 (exit 1)
    while the jet of d sigma/d lambda cancelled a zero against a pole."""
    code, report = run_to_file(
        tmp_path,
        ["gaudin", "bethe", "--config", str(CONFIGS / "gaudin_n3.json"), "--seed", "4"],
    )
    assert code == 0
    residual = next(c["residual"] for c in report["checks"] if c["name"] == "eigen_residual")
    assert residual <= 1e-11


def test_bethe_report(tmp_path):
    code, report = run_to_file(
        tmp_path, ["irf", "bethe", "--config", str(CONFIGS / "irf_bethe_n2.json")]
    )
    assert code == 0
    assert len(report["metrics"]["roots"]) == 1
    assert all(c["pass"] for c in report["checks"])
    # character_match compares two independent computations, so it is not exactly 0
    match = next(c for c in report["checks"] if c["name"] == "character_match")
    assert 0.0 < match["residual"] <= 1e-9
