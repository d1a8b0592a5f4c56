"""Config parsing, report schema, exit codes, determinism of the batch front-end."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ellsov import cli, eqg, gaudin, irf, spaces
from ellsov import theta as theta_module
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


@pytest.mark.parametrize("seed", [None, 7])
def test_derivative_vs_jet_is_a_check(tmp_path, monkeypatch, seed):
    """derivative_vs_jet compares theta_array's jet with a Cauchy integral of
    its degree-0 values.  It once compared two jets that sum the same 5 terms
    and read exactly 0.0; it now reads a rounding-level residual, and a
    first-derivative weight off by 1e-8 in the kernel fails it."""
    argv = ["theta", "eval", "--config", str(CONFIGS / "theta.json")] + ([] if seed is None else ["--seed", str(seed)])
    code, report = run_to_file(tmp_path, argv)
    check = next(c for c in report["checks"] if c["name"] == "derivative_vs_jet")
    assert code == 0 and 0.0 < check["residual"] <= 1e-13

    table = theta_module._term_table

    def off_by_1e8(tau, degree, trunc_tol):
        base, ph, signs, weights, tree, bounds = table(tau, degree, trunc_tol)
        weights = weights.copy()
        weights[:, 1:2] *= 1.0 + 1e-8  # no column 1 at degree 0
        return base, ph, signs, weights, tree, bounds

    monkeypatch.setattr(theta_module, "_term_table", off_by_1e8)
    code, report = run_to_file(tmp_path, argv, "broken.json")
    check = next(c for c in report["checks"] if c["name"] == "derivative_vs_jet")
    assert code == 1 and not check["pass"] and check["residual"] >= 1e-9


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


def test_overflowing_commutator_exits2(tmp_path, capsys):
    """At Im tau = 100 the grid matrices overflow: irf build once ended in a
    bare ZeroDivisionError, then in a commutator with no scale after numpy's
    overflow warnings.  The builder raises a ParameterError on its first
    non-finite entry, silently, so the task exits 2."""
    cfg = rewrite_config(tmp_path, "irf_n3.json", "steep.json", lambda c: c.update(tau=[0.31, 100.0]))
    assert cli.main(["irf", "build", "--config", cfg]) == 2
    assert "grid transfer-matrix entries overflow" in capsys.readouterr().err


def test_underflowing_partition_exits2(tmp_path, capsys):
    """At Im tau = 100 the grid rows of irf partition are finite near 1e-101,
    but their product underflows to zero and the bridge factor overflows: the
    report once held construction_consistency NaN and value_sov 0.0 and the
    task exited 1.  The row product's range is checked, so it exits 2."""
    cfg = rewrite_config(tmp_path, "irf_n3.json", "steep.json", lambda c: c.update(tau=[0.31, 100.0]))
    out = tmp_path / "partition.json"
    assert cli.main(["irf", "partition", "--config", cfg, "--out", str(out)]) == 2
    assert "row product leaves double range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "task, base, tau",
    [("theta eval", "theta.json", [0.31, 100.0]), ("irf spectrum", "irf_n5.json", [0.31, 20.0])],
)
def test_overflowing_multiplier_exits2(tmp_path, capsys, task, base, tau):
    """At these taus a sampled quasi-periodicity multiplier exp(-i pi k (s^2 tau
    + 2 s z)) leaves double range: both tasks once ended in a bare
    OverflowError traceback.  expected_multiplier raises ThetaOverflowError
    with the point named, so they exit 2."""
    cfg = rewrite_config(tmp_path, base, "steep.json", lambda c: c.update(tau=tau))
    assert cli.main(task.split() + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "multiplier at" in err and "overflows double precision" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "task, base, tau",
    [
        ("irf bethe", "irf_bethe_n4.json", [0.31, 100.0]),
        ("irf partition", "irf_n3.json", [0.31, 0.005]),
        ("irf partition", "irf_n3.json", [0.31, 0.003]),
        ("irf spectrum", "irf_n3.json", [0.31, 187.0]),
    ],
)
def test_overflowing_products_exit2(tmp_path, capsys, task, base, tau):
    """Products of finite thetas that leave double range: the Bethe system's
    terms, the partition chain and the cardinal-basis denominators.  Each
    task once escaped with numpy's overflow warning, and irf bethe without
    it as a bare LinAlgError from the Newton step; each now exits 2."""
    cfg = rewrite_config(tmp_path, base, "steep.json", lambda c: c.update(tau=tau))
    assert cli.main(task.split() + ["--config", cfg]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_cardinal_vector_exits2(tmp_path, capsys):
    """At tau = 0.31 + 40i a cardinal vector of irf spectrum's level-5 basis
    overflows: its NaN entries once reached the SVD, which ended in a bare
    LinAlgError traceback.  cardinal_vector raises ThetaOverflowError with the
    point named, so the task exits 2."""
    cfg = rewrite_config(tmp_path, "irf_n5.json", "steep.json", lambda c: c.update(tau=[0.31, 40.0]))
    assert cli.main(["irf", "spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ThetaOverflowError: cardinal vector at" in err and "overflows double precision" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("im_tau, step", [(0.005, "overflows at row 3"), (0.003, "overflows at row 2")])
def test_partition_range_error_names_the_step(tmp_path, capsys, im_tau, step):
    """The partition chain once overflowed to inf and a later row turned
    inf * 0 into NaN, so the message read "its entries peak at nan".  Each
    partial product is checked, so the message names the first row that
    leaves double range and which way it left."""
    cfg = rewrite_config(tmp_path, "irf_n3.json", "steep.json", lambda c: c.update(tau=[0.31, im_tau]))
    assert cli.main(["irf", "partition", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "row product leaves double range" in err and step in err
    assert "nan" not in err


def test_task_error_is_not_a_config_error(tmp_path, capsys):
    """A product that overflows on an admitted model once printed "config
    error: model outside task hypotheses"; an error raised while a task runs
    prints "task error" and its class, with exit 2 unchanged."""
    cfg = rewrite_config(tmp_path, "irf_bethe_n4.json", "steep.json", lambda c: c.update(tau=[0.31, 100.0]))
    assert cli.main(["irf", "bethe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("task error: ThetaOverflowError: Bethe system overflows double precision")
    assert "config error" not in err


# irf bethe exit codes over Im tau (Re tau = 0.31) on the bundled configs.  Before
# the ratio-form Bethe system n2 read the same, and n4 read 0 0 0 0 1 1 1 2 2: at
# Im tau = 20 and 40 every Newton start failed.  n4 fails eigen_residual at 10
# and 20 (cancelling summands, ROADMAP item 2), and at 40 the off-grid cardinal
# vector overflows; at 88 and 187 the Bethe system or theta itself overflows.
BETHE_SWEEP = (0.05, 0.2, 1.07, 4.0, 10.0, 20.0, 40.0, 88.0, 187.0)
BETHE_EXITS = {
    "irf_bethe_n2.json": (0, 0, 0, 0, 0, 0, 0, 2, 2),
    "irf_bethe_n4.json": (0, 0, 0, 0, 1, 1, 2, 2, 2),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("base", sorted(BETHE_EXITS))
def test_irf_bethe_tau_sweep(tmp_path, capsys, base):
    """No exception or warning escapes irf bethe from Im tau = 0.05 to 187:
    each run exits 0, fails a check with exit 1, or exits 2 with a typed
    error, and no report carries a NaN."""
    codes = []
    for im_tau in BETHE_SWEEP:
        cfg = rewrite_config(tmp_path, base, "sweep.json", lambda c: c.update(tau=[0.31, im_tau]))
        out = tmp_path / "sweep-report.json"
        out.unlink(missing_ok=True)
        codes.append(cli.main(["irf", "bethe", "--config", cfg, "--out", str(out)]))
        err = capsys.readouterr().err
        if codes[-1] == 2:
            assert err.startswith("task error: ") and not out.exists()
        else:
            assert "NaN" not in out.read_text() and "Infinity" not in out.read_text()
    assert tuple(codes) == BETHE_EXITS[base]


def test_spectrum_at_steep_tau_exits0(tmp_path):
    """At Im tau = 8 the eigenvalues of irf_n3 have moduli near 1e-7, so a
    cluster threshold floored at 1e-7 * 1.0 merged all eight into one
    cluster, and certificate_residuals read 1.5e16.  The threshold is
    relative to the largest modulus, so each is certified on its own."""
    cfg = rewrite_config(tmp_path, "irf_n3.json", "steep.json", lambda c: c.update(tau=[0.31, 8.0]))
    out = tmp_path / "spectrum.json"
    assert cli.main(["irf", "spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(check["pass"] for check in report["checks"])
    assert len(report["metrics"]["eigenvalues"]) == 8


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


def test_irf_partition_bridge_matches_kappa_reference(tmp_path):
    """construction_consistency, bit for bit, against the bridge
    (-1)^N prod kappa(w - eta) formed test-side, on four rows and on two."""
    for name, mutate in (
        ("four.json", lambda c: None),
        ("two.json", lambda c: c["irf"].update(rows=c["irf"]["rows"][:2])),
    ):
        path = rewrite_config(tmp_path, "irf_n3.json", name, mutate)
        code, report = run_to_file(tmp_path, ["irf", "partition", "--config", path])
        assert code == 0
        cfg = json.loads(Path(path).read_text())
        params = cli.build_params(cfg)
        ws = [complex(*w) for w in cfg["irf"]["rows"]]
        bridge = (-1.0) ** len(ws)
        for w in ws:
            bridge *= irf.kappa_factor(params, w - params.eta)
        paths = irf.partition_function(params, ws, kind="paths")
        shifted = irf.partition_function(params, [w - params.eta for w in ws], kind="sov")
        residuals = {c["name"]: c["residual"] for c in report["checks"]}
        assert residuals["construction_consistency"] == abs(paths - bridge * shifted) / max(1.0, abs(paths))


def test_irf_tasks_validate_each_model_once(tmp_path, monkeypatch):
    """validate_for_irf runs through the per-model cache irf._validated_for_irf,
    which both constructions read before their own caches (the path model, and
    the hop table as the grid matrix reads it), so every irf build, spectrum
    and partition task validates its model once (twice per build or partition
    task when each cache ran its own validator)."""
    calls = []
    original = ModelParams.validate_for_irf

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModelParams, "validate_for_irf", counted)
    for task, config in (("build", "irf_n5"), ("spectrum", "irf_n5"), ("partition", "irf_n3")):
        for cache in (irf._validated_for_irf, irf._path_model, eqg._hop_table):
            cache.cache_clear()
        calls.clear()
        code, _ = run_to_file(tmp_path, ["irf", task, "--config", str(CONFIGS / ("%s.json" % config))])
        assert code == 0 and len(calls) == 1, (task, len(calls))


def test_irf_caches_hold_one_model(tmp_path):
    """The IRF per-model caches (the validator, the path model and the hop table)
    keep one model each: after a task on a second model every one holds one
    entry, and the first model's task, rerun on the evicted caches, writes the
    report of a cold run, timing aside."""
    caches = (irf._validated_for_irf, irf._path_model, eqg._hop_table)
    assert all(cache.cache_info().maxsize == 1 for cache in caches)
    first = str(CONFIGS / "irf_n3.json")
    second = rewrite_config(tmp_path, "irf_n3.json", "moved.json", lambda cfg: cfg["sites"][2].update(z=[0.34, 0.49]))
    for task in ("build", "spectrum", "partition"):
        reports = []
        for run, config in enumerate((first, second, first)):
            if run == 0:
                for cache in caches:
                    cache.cache_clear()
            code, report = run_to_file(tmp_path, ["irf", task, "--config", config], "%s-%d.json" % (task, run))
            assert code == 0, (task, run)
            report.pop("timing")
            reports.append(report)
            if run == 1:
                assert [cache.cache_info().currsize for cache in caches] == [1, 1 if task != "spectrum" else 0, 1]
        assert reports[2] == reports[0] != reports[1], task


def reference_gaudin_check(cfg, seed):
    """gaudin check's residuals with every operator stack built and applied afresh, as a reference.

    The points are drawn up front, as the task draws them, and each family is
    built as the same stack over them (a theta_array row depends on its batch);
    each residual reads its point's column.
    """
    params = cli.build_params(cfg)
    rng = np.random.default_rng(seed)
    block = cfg["gaudin"]
    degree, samples, n = block["degree"], block["lambda_samples"], params.n
    dim = gaudin._gaudin_model(params).dim
    u = rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal((degree + 1, dim))
    lam0s = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(samples + 1)])
    zs = np.array([params.sample_generic(rng, avoid=params.zs) for _ in range(5)])

    def ham(i, jet):
        return gaudin.build_hamiltonians(params, lam0s, degree)[i].apply_jet(jet)

    def s_op(jet):
        return gaudin.build_S(params, zs, lam0s[samples], degree).apply_jet(jet)

    u = u[:, None]  # one jet for every point

    comm = 0.0
    for p in range(samples):
        scale = max(1.0, max(float(np.max(np.abs(ham(i, u)[:, p]))) for i in range(n + 1)))
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                dev = np.max(np.abs(ham(i, ham(j, u)) - ham(j, ham(i, u)))[:, p])
                comm = max(comm, float(dev) / scale)
    total = ham(1, u)[:, samples]
    scale = max(1.0, float(np.max(np.abs(total))))
    for i in range(2, n + 1):
        total += ham(i, u)[:, samples]
    ham_sum = float(np.max(np.abs(total))) / scale
    zeta, wp = (a.reshape(3, n) for a in params.evaluator().zeta_wp((zs[:3, None] - np.array(params.zs)).ravel()))
    s_dev = 0.0
    for p in range(3):
        lhs = s_op(u)[:, p]
        rows = lhs.shape[0]
        rhs = ham(0, u)[:, samples]
        for k in range(n):
            rhs += zeta[p, k] * ham(k + 1, u)[:rows, samples]
            rhs += gaudin.spectral_weight(params, k) * wp[p, k] * u[:rows, 0]
        scale = max(1.0, float(np.max(np.abs(lhs))))
        s_dev = max(s_dev, float(np.max(np.abs(lhs - rhs))) / scale)
    # S(z1) S(z2) u: the stack applied to S(z2) u in every column, read at z1; and back
    su = s_op(u)
    scale = max(1.0, float(np.max(np.abs(su[:, 3]))))
    s_comm = s_op(np.repeat(su[:, 4:5], 5, axis=1))[:, 3] - s_op(np.repeat(su[:, 3:4], 5, axis=1))[:, 4]
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
        "q_minus",
    }
    assert all(set(c) == keys for c in certs)
    assert all(len(c["q_minus"]) == 3 for c in certs)
    # q_plus is the same for every certificate, so the report holds it once
    assert len(report["metrics"]["q_plus"]) == 3
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


def _nan_membership(monkeypatch):
    original = irf.certify_spectrum

    def certify(*args, **kwargs):
        certs = original(*args, **kwargs)
        residuals = certs.membership_residuals.copy()
        residuals[-1] = math.nan
        return dataclasses.replace(certs, membership_residuals=residuals)

    monkeypatch.setattr(irf, "certify_spectrum", certify)


def _nan_second_qybe(monkeypatch):
    original, calls = eqg.qybe_residual, []

    def qybe(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else original(*args)

    monkeypatch.setattr(eqg, "qybe_residual", qybe)


def _nan_qp_residual(monkeypatch):
    original = spaces.membership_test
    monkeypatch.setattr(
        spaces, "membership_test", lambda *args: dataclasses.replace(original(*args), qp_residual=math.nan)
    )


@pytest.mark.parametrize(
    "task, config, check, inject",
    [
        ("irf spectrum", "irf_n3.json", "certificate_residuals", _nan_membership),
        ("eqg rll-check", "eqg_n2.json", "qybe", _nan_second_qybe),
        ("irf bethe", "irf_bethe_n2.json", "q_membership", _nan_qp_residual),
    ],
    ids=["irf-spectrum", "eqg-rll-check", "irf-bethe"],
)
def test_nan_residual_fails_its_check(tmp_path, monkeypatch, task, config, check, inject):
    """max(running, x) drops a NaN x, so a NaN residual once reached no check:
    irf spectrum exited 0 with certificate_residuals 1.1e-14 although the last
    certificate's own passed was False.  Residuals are folded with np.max, so
    the NaN reaches its check, which fails, and the task exits 1."""
    inject(monkeypatch)
    code, report = run_to_file(tmp_path, task.split() + ["--config", str(CONFIGS / config)])
    assert code == 1 and report["pass"] is False
    (entry,) = [c for c in report["checks"] if c["name"] == check]
    assert math.isnan(entry["residual"]) and entry["pass"] is False
    assert all(c["pass"] for c in report["checks"] if c["name"] != check)


def reference_certificate_rows(certs):
    """A per-cluster serializer, as the report once was written: one dict per
    cluster, each complex written through the encoder hook."""
    return [
        {
            "eigenvalue": certs.eigenvalues[k],
            "passed": bool(certs.passed[k]),
            "degenerate": bool(certs.degenerate[k]),
            "gap": float(certs.gaps[k]),
            "angle": float(certs.angles[k]),
            "membership_residual": float(certs.membership_residuals[k]),
            "cluster_residual": float(certs.cluster_residuals[k]),
            "quadratic_residuals": list(certs.quadratic_residuals[k]),
            "q_minus": list(certs.q_minus[k]),
        }
        for k in range(len(certs.eigenvalues))
    ]


def test_certificate_rows_match_the_per_cluster_serializer(tmp_path, monkeypatch):
    """irf spectrum writes its certificate rows column by column, each complex
    column as [re, im] lists from one tolist() call; they, and q_plus in
    metrics, encode to the bytes of the per-cluster serializer through
    _json_default.  Covered on a bundled config and on a certificate carrying
    -0.0 entries and a NaN residual."""
    original, seen, reports = irf.certify_spectrum, [], []
    dumps = json.dumps

    def capture(obj, **kwargs):
        reports.append(obj)
        return dumps(obj, **kwargs)

    def recorded(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    def signed(*args, **kwargs):
        certs = original(*args, **kwargs)
        eigenvalues, q_minus = certs.eigenvalues.copy(), certs.q_minus.copy()
        angles, residuals = certs.angles.copy(), certs.quadratic_residuals.copy()
        eigenvalues[0], q_minus[1, 2], angles[2] = complex(-0.0, 1.5), complex(0.25, -0.0), -0.0
        residuals[3, 1] = math.nan
        seen.append(dataclasses.replace(
            certs, eigenvalues=eigenvalues, q_minus=q_minus, angles=angles, quadratic_residuals=residuals
        ))
        return seen[-1]

    monkeypatch.setattr(json, "dumps", capture)
    for certify, code in ((recorded, 0), (signed, 1)):
        monkeypatch.setattr(irf, "certify_spectrum", certify)
        reports.clear()
        out = tmp_path / "report.json"
        assert cli.main(["irf", "spectrum", "--config", str(CONFIGS / "irf_n3.json"), "--out", str(out)]) == code
        rows = dumps(reports[0]["certificates"], sort_keys=True, default=cli._json_default)
        expect = dumps(reference_certificate_rows(seen[-1]), sort_keys=True, default=reference_json_default)
        assert rows == expect
        q_plus = dumps(reports[0]["metrics"]["q_plus"], default=cli._json_default)
        assert q_plus == dumps(list(seen[-1].q_plus), default=reference_json_default)
    assert '"eigenvalue": [-0.0, 1.5]' in rows and '"angle": -0.0' in rows and "NaN" in rows


def test_batched_character_law_matches_the_loop(tmp_path, monkeypatch):
    """irf spectrum reads every eigenvalue function at zlaw, zlaw + 1 and
    zlaw + tau from one cardinal_vector call and one product (certs.eps).
    The former loop, one cardinal_vector(z) @ eps_nodes[k] per cluster and
    point, gives the same values and the same character_laws residual to
    1e-13."""
    calls, original = [], irf.SpectralCertificates.eps

    def eps(certs, zs):
        calls.append((certs, zs, original(certs, zs)))
        return calls[-1][2]

    monkeypatch.setattr(irf.SpectralCertificates, "eps", eps)
    params = cli.build_params(cli.load_config(str(CONFIGS / "irf_n5.json")))
    code, report = run_to_file(tmp_path, ["irf", "spectrum", "--config", str(CONFIGS / "irf_n5.json")])
    assert code == 0 and len(calls) == 1
    certs, (zlaw, _, _), batched = calls[0]
    points = (zlaw, zlaw + 1, zlaw + params.lattice.tau)
    loop = np.array([[certs.basis.cardinal_vector(z) @ nodes for z in points] for nodes in certs.eps_nodes])
    assert len(loop) == 32
    assert np.max(np.abs(batched - loop) / np.maximum(1.0, np.abs(loop))) <= 1e-13
    chi0, law = irf.eigenvalue_character(params), 0.0
    for base, *moved in loop:
        for (r, s), value in zip(((1, 0), (0, 1)), moved):
            expect = spaces.expected_multiplier(chi0, params.n, zlaw, r, s, params.lattice.tau) * base
            law = max(law, abs(value - expect) / max(1.0, abs(expect)))
    (entry,) = [c for c in report["checks"] if c["name"] == "character_laws"]
    assert abs(entry["residual"] - law) <= 1e-13


def test_stacked_tasks_draw_the_per_point_loops_points(monkeypatch, tmp_path):
    """gaudin check, gaudin bethe and irf bethe draw every sample point up front
    and evaluate the stacks; the points equal those of the per-point loops
    they replaced, replayed here from the same generator state: gaudin check
    from u on (each commutator lam0, the shared lam0, three S-decomposition
    zs, z1, z2), gaudin bethe after its solve (one lam0 per eigenvector
    check), irf bethe after its solve (per eigen sample n coordinates, then
    zeta).  Each draw is recorded with its margin and avoided shifts."""
    original = ModelParams.sample_generic
    draws, states = [], {}

    def recorded(self, rng, margin=None, avoid=()):
        z = original(self, rng, margin, avoid)
        draws.append((margin, tuple(avoid), z))
        return z

    def snapshot(module, name):
        solve = getattr(module, name)

        def wrapped(params, rng):
            out = solve(params, rng)
            states["rng"], states["at"] = dict(rng.bit_generator.state), len(draws)
            return out

        monkeypatch.setattr(module, name, wrapped)

    monkeypatch.setattr(ModelParams, "sample_generic", recorded)
    snapshot(gaudin, "solve_gaudin_bethe")
    snapshot(irf, "continuous_bethe")

    def replay(params, rng, loops):
        out = []
        for count, margin, avoid in loops:
            for _ in range(count):
                out.append((margin, avoid, original(params, rng, margin, avoid)))
        return out

    for task, config in (("check", "gaudin_n3"), ("bethe", "gaudin_n3"), ("bethe", "irf_bethe_n4")):
        group = "irf" if config.startswith("irf") else "gaudin"
        cfg = json.loads((CONFIGS / ("%s.json" % config)).read_text())
        params = cli.build_params(cfg)
        draws.clear()
        code, _ = run_to_file(tmp_path, [group, task, "--config", str(CONFIGS / ("%s.json" % config))])
        assert code == 0
        if task == "check":
            rng = np.random.default_rng(cfg["seed"])
            cli._random_jet(rng, gaudin._gaudin_model(params).dim, cfg["gaudin"]["degree"])
            zs, samples = params.zs, cfg["gaudin"]["lambda_samples"]
            loops = [(samples, 5e-2, ()), (1, 5e-2, ()), (3, None, zs), (1, None, zs), (1, None, zs)]
            assert draws == replay(params, rng, loops)
            continue
        rng = np.random.default_rng()
        rng.bit_generator.state = states["rng"]
        if group == "gaudin":
            loops = [(1, 5e-2, ())] * 2
        else:
            loops = [(params.n, 5e-2, ()), (1, 5e-2, ())] * cfg["irf"]["eigen_samples"]
        expect = replay(params, rng, loops)
        assert draws[states["at"] : states["at"] + len(expect)] == expect
        assert len(draws) == states["at"] + len(expect) + (group == "irf")  # irf bethe: its character point
