"""Config parsing, report schema, exit codes, determinism of the batch front-end."""

import json
from pathlib import Path

import pytest

from ellsov import cli

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


def test_bethe_report(tmp_path):
    code, report = run_to_file(
        tmp_path, ["irf", "bethe", "--config", str(CONFIGS / "irf_bethe_n2.json")]
    )
    assert code == 0
    assert len(report["metrics"]["roots"]) == 1
    assert all(c["pass"] for c in report["checks"])
