"""Config parsing, report schema, exit codes, determinism of the batch front-end."""

import json
from pathlib import Path

import numpy as np
import pytest

from ellsov import cli, gaudin, irf
from ellsov.params import ModelParams
from ellsov.theta import PoleProximityError

from conftest import dense

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


def reference_json_default(obj):
    """The encoder hook as specified: the values json cannot encode, else TypeError."""
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


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
    expect = json.dumps(reference_jsonable(obj), sort_keys=True)
    assert json.dumps(obj, sort_keys=True, default=reference_json_default) == expect
    assert json.dumps(obj, sort_keys=True, default=cli._json_default) == expect
    with pytest.raises(TypeError):
        json.dumps({"x": object()}, default=cli._json_default)


def test_report_bytes_match_encoder_hook(tmp_path, monkeypatch):
    """Every task on every bundled config that carries its group: the report
    file holds, on one line, the bytes of the fully converted report."""
    reports = []
    dumps = json.dumps

    def capture(obj, **kwargs):
        reports.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", capture)
    written = 0
    for task in cli._DISPATCH:
        group = task.split()[0]
        for config in sorted(CONFIGS.glob("*.json")):
            if group not in json.loads(config.read_text()):
                continue
            out = tmp_path / ("%s-%s.json" % (task.replace(" ", "-"), config.stem))
            extra = ["--emit-csv", str(tmp_path / "csv")] if task == "irf spectrum" else []
            reports.clear()
            code = cli.main(task.split() + ["--config", str(config), "--out", str(out)] + extra)
            if code == 2:
                assert not out.exists()
                continue
            expect = dumps(reference_jsonable(reports[0]), sort_keys=True)
            assert out.read_text() == expect + "\n"
            assert dumps(reports[0], sort_keys=True, default=reference_json_default) == expect
            written += 1
    assert written == 16


def test_parser_built_once(tmp_path):
    cli._build_parser.cache_clear()
    argv = ["irf", "spectrum", "--config", str(CONFIGS / "irf_n3.json")]
    _, first = run_to_file(tmp_path, argv, "first.json")
    _, second = run_to_file(tmp_path, argv, "second.json")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    first.pop("timing"), second.pop("timing")
    assert first == second
    # a parse error on the shared parser leaves it usable
    with pytest.raises(SystemExit):
        cli.main(["irf", "nonsense", "--config", str(CONFIGS / "irf_n3.json")])
    _, third = run_to_file(tmp_path, argv, "third.json")
    third.pop("timing")
    assert third == first and cli._build_parser.cache_info().misses == 1


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


def test_kernel_range_exit2(tmp_path, capsys):
    """A tau above the Im tau ceiling and a jet degree above the kernel's
    limit exit 2 with a message, not with a traceback."""
    tall = rewrite_config(tmp_path, "theta.json", "tall.json", lambda c: c.update(tau=[0, 1000]))
    assert cli.main(["theta", "eval", "--config", tall]) == 2
    assert "Lattice invariant violated" in capsys.readouterr().err
    deep = rewrite_config(
        tmp_path, "gaudin_n2.json", "deep.json", lambda c: c["gaudin"].update(degree=400)
    )
    assert cli.main(["gaudin", "check", "--config", deep]) == 2
    assert "degree" in capsys.readouterr().err


@pytest.mark.parametrize("tau", [[0.0, 0.1], [5.0, 0.1]])
def test_point_next_to_the_lattice_exits2(tmp_path, capsys, tau):
    """Z + tau Z is one lattice for both taus; -1e-9 i lies next to its point 0."""
    cfg = rewrite_config(
        tmp_path, "theta.json", "near.json",
        lambda c: (c.update(tau=tau), c["theta"].update(points=[[0.0, -1e-9]])),
    )
    assert cli.main(["theta", "eval", "--config", cfg]) == 2
    assert "pole proximity" in capsys.readouterr().err


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
    colliding = rewrite_config(
        tmp_path,
        "gaudin_n2.json",
        "collide.json",
        lambda c: c["sites"][1].update(z=[1.12, 0.23]),
    )
    assert cli.main(["gaudin", "bethe", "--config", colliding]) == 2
    not_object = rewrite_config(
        tmp_path, "eqg_n1.json", "block.json", lambda c: c.update(eqg=[5, 20])
    )
    assert cli.main(["eqg", "hw-check", "--config", not_object]) == 2


def set_tolerance(key, value):
    return lambda c: c["tolerances"].update({key: value})


def set_block(group, key, value):
    return lambda c: c[group].update({key: value})


# (task, config, edit, the field the error must name)
MALFORMED = {
    "seed_string": ("theta eval", "theta.json", lambda c: c.update(seed="x"), "seed"),
    "seed_float": ("theta eval", "theta.json", lambda c: c.update(seed=2.5), "seed"),
    "seed_bool": ("theta eval", "theta.json", lambda c: c.update(seed=True), "seed"),
    "seed_negative": ("theta eval", "theta.json", lambda c: c.update(seed=-1), "seed"),
    "residual_tol_string": (
        "theta eval", "theta.json", set_tolerance("residual_tol", "x"), "residual_tol"
    ),
    "residual_tol_negative": (
        "theta eval", "theta.json", set_tolerance("residual_tol", -1e-9), "residual_tol"
    ),
    "rho_string": ("theta eval", "theta.json", set_tolerance("rho", "x"), "rho"),
    "rho_nan": ("theta eval", "theta.json", set_tolerance("rho", float("nan")), "rho"),
    "trunc_tol_zero": ("theta eval", "theta.json", set_tolerance("trunc_tol", 0), "trunc_tol"),
    "trunc_tol_inf": (
        "theta eval", "theta.json", set_tolerance("trunc_tol", float("inf")), "trunc_tol"
    ),
    "check_degree_3": (
        "gaudin check", "gaudin_n2.json", set_block("gaudin", "degree", 3), "degree"
    ),
    "check_degree_string": (
        "gaudin check", "gaudin_n2.json", set_block("gaudin", "degree", "x"), "degree"
    ),
    "bethe_degree_1": (
        "gaudin bethe", "gaudin_n2.json", set_block("gaudin", "degree", 1), "degree"
    ),
    "irf_block_list": ("irf build", "irf_n3.json", lambda c: c.update(irf=[1]), "irf"),
    "rows_int": ("irf partition", "irf_n3.json", set_block("irf", "rows", 5), "rows"),
    "points_int": ("theta eval", "theta.json", set_block("theta", "points", 5), "points"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2(tmp_path, capsys, case):
    task, base, mutate, field = MALFORMED[case]
    cfg = rewrite_config(tmp_path, base, "bad.json", mutate)
    assert cli.main(task.split() + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s " % field), err


# a JSON integer beyond float range in each field that float() converts:
# (task on irf_n3.json, edit, the field the error must name)
HUGE = 10**400
OVERFLOWING = {
    "tau": ("irf build", lambda c: c.update(tau=[0.31, HUGE]), "tau"),
    "sites[0].z": ("irf build", lambda c: c["sites"][0].update(z=[HUGE, 0.23]), "sites[0].z"),
    "irf.z0": ("irf spectrum", set_block("irf", "z0", [0.39, -HUGE]), "irf.z0"),
    "tolerances.rho": ("irf build", set_tolerance("rho", HUGE), "rho"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, case):
    task, mutate, field = OVERFLOWING[case]
    cfg = rewrite_config(tmp_path, "irf_n3.json", "huge.json", mutate)
    assert cli.main(task.split() + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s " % field), err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "0"])
def test_tol_flag_must_be_positive_finite(capsys, tol):
    argv = ["theta", "eval", "--config", str(CONFIGS / "theta.json"), "--tol=" + tol]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: residual_tol ")


def test_degree_floors_run(tmp_path):
    """The smallest admitted degrees still run every check."""
    for task, degree, checks in (("gaudin check", 4, 4), ("gaudin bethe", 2, 3)):
        edit = set_block("gaudin", "degree", degree)
        cfg = rewrite_config(tmp_path, "gaudin_n2.json", "deg.json", edit)
        code, report = run_to_file(tmp_path, task.split() + ["--config", cfg])
        assert code in (0, 1)
        assert len(report["checks"]) == checks


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
            a, b = dense(build(params, za)), dense(build(params, zb))
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


def test_irf_tasks_validate_each_model_once(tmp_path, monkeypatch):
    """validate_for_irf is the first statement of the two per-model caches, so
    a task validates its model once per cache it fills: at most twice per
    irf build or partition task and once per irf spectrum task."""
    calls = []
    original = ModelParams.validate_for_irf

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModelParams, "validate_for_irf", counted)
    for task, config, limit in (("build", "irf_n5", 2), ("spectrum", "irf_n5", 1), ("partition", "irf_n3", 2)):
        irf._path_model.cache_clear()
        irf._grid_model.cache_clear()
        calls.clear()
        code, _ = run_to_file(tmp_path, ["irf", task, "--config", str(CONFIGS / ("%s.json" % config))])
        assert code == 0 and 1 <= len(calls) <= limit, (task, len(calls))


def reference_gaudin_check(cfg, seed):
    """gaudin check's residuals with every operator applied afresh, as a reference."""
    params = cli.build_params(cfg)
    rng = np.random.default_rng(seed)
    block = cfg["gaudin"]
    degree = block["degree"]
    hams = gaudin.build_hamiltonians(params)
    dim = hams[0].dim
    u = rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal((degree + 1, dim))
    comm = 0.0
    for _ in range(block["lambda_samples"]):
        lam0 = params.sample_generic(rng, margin=5e-2)
        applied = [H.apply_jet(lam0, u) for H in hams]
        scale = max(1.0, max(float(np.max(np.abs(a))) for a in applied))
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                dev = np.max(np.abs(
                    hams[i].apply_jet(lam0, hams[j].apply_jet(lam0, u))
                    - hams[j].apply_jet(lam0, hams[i].apply_jet(lam0, u))
                ))
                comm = max(comm, float(dev) / scale)
    lam0 = params.sample_generic(rng, margin=5e-2)
    total = hams[1].apply_jet(lam0, u)
    scale = max(1.0, float(np.max(np.abs(total))))
    for H in hams[2:]:
        total += H.apply_jet(lam0, u)
    ham_sum = float(np.max(np.abs(total))) / scale
    ev = params.evaluator()
    s_dev = 0.0
    for _ in range(3):
        z = params.sample_generic(rng, avoid=params.zs)
        lhs = gaudin.build_S(params, z).apply_jet(lam0, u)
        rows = lhs.shape[0]
        rhs = hams[0].apply_jet(lam0, u)
        for k, zk in enumerate(params.zs):
            rhs += ev.zeta_bar(z - zk) * hams[k + 1].apply_jet(lam0, u)[:rows]
            rhs += gaudin.spectral_weight(params, k) * ev.wp_bar(z - zk) * u[:rows]
        scale = max(1.0, float(np.max(np.abs(lhs))))
        s_dev = max(s_dev, float(np.max(np.abs(lhs - rhs))) / scale)
    z1 = params.sample_generic(rng, avoid=params.zs)
    z2 = params.sample_generic(rng, avoid=params.zs)
    s1, s2 = gaudin.build_S(params, z1), gaudin.build_S(params, z2)
    scale = max(1.0, float(np.max(np.abs(s1.apply_jet(lam0, u)))))
    s_comm = s1.apply_jet(lam0, s2.apply_jet(lam0, u)) - s2.apply_jet(lam0, s1.apply_jet(lam0, u))
    ss = float(np.max(np.abs(s_comm))) / scale
    return {
        "hamiltonians_commute": comm,
        "hamiltonian_sum_vanishes": ham_sum,
        "s_decomposition": s_dev,
        "s_family_commutes": ss,
    }


def test_gaudin_check_matches_reference(tmp_path):
    for base, seed in (("gaudin_n2.json", 3), ("gaudin_n3.json", 4), ("gaudin_n3.json", 9)):
        cfg = json.loads((CONFIGS / base).read_text())
        argv = ["gaudin", "check", "--config", str(CONFIGS / base), "--seed", str(seed)]
        _, report = run_to_file(tmp_path, argv)
        residuals = {c["name"]: c["residual"] for c in report["checks"]}
        assert residuals == reference_gaudin_check(cfg, seed)


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


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_bethe_report_two_roots(tmp_path, seed):
    """Four sites of weight 1: m = 2, so the system has root-pair arguments."""
    argv = ["irf", "bethe", "--config", str(CONFIGS / "irf_bethe_n4.json")]
    code, report = run_to_file(tmp_path, argv + ([] if seed is None else ["--seed", str(seed)]))
    assert code == 0
    assert len(report["metrics"]["roots"]) == 2
    assert all(c["pass"] for c in report["checks"])
