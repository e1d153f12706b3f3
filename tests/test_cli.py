import json

import numpy as np
import pytest

from mnarmean.cli import main
from mnarmean.data import write_dataset
from mnarmean.simulate import example1, generate_dataset


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 600, seed=2024)
    data = root / "data.csv"
    write_dataset(ds, data)
    cfg = root / "model.json"
    cfg.write_text(sc.model_config().to_json(), encoding="utf-8")
    return root, str(data), str(cfg)


def test_fit_emits_valid_json(cli_files):
    root, data, cfg = cli_files
    out = root / "fit.json"
    rc = main(["fit", "--data", data, "--model-config", cfg, "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["schema_version"] == 1
    assert obj["converged"] is True
    assert obj["identifiability_report"]["identifiable"] is True
    lo, hi = obj["wald_ci"]
    assert lo <= obj["tau_hat"] <= hi
    assert len(obj["xi_hat"]) == 3 and len(obj["theta_hat"]) == 3
    assert obj["alpha0_hat"] == pytest.approx(
        obj["theta_hat"][0] - np.log(obj["m1_hat"]), rel=1e-12
    )


def test_fit_deterministic_bytes(cli_files):
    root, data, cfg = cli_files
    a, b = root / "a.json", root / "b.json"
    for out in (a, b):
        assert main([
            "fit", "--data", data, "--model-config", cfg,
            "--bootstrap", "100", "--diagnostics", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text(encoding="utf-8"))
    assert obj["schema_version"] == 1
    counts = obj["bootstrap_failure_counts"]
    assert isinstance(counts, dict)
    assert obj["bootstrap_successful"] + sum(counts.values()) == 100


def test_fit_without_bootstrap_has_no_failure_counts(cli_files):
    root, data, cfg = cli_files
    out = root / "plain.json"
    assert main(["fit", "--data", data, "--model-config", cfg, "--out", str(out)]) == 0
    assert "bootstrap_failure_counts" not in json.loads(out.read_text(encoding="utf-8"))


def test_fit_missing_file_exits_2(cli_files, capsys):
    _, _, cfg = cli_files
    rc = main(["fit", "--data", "/nonexistent.csv", "--model-config", cfg])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "IO"


def _csv_rows(path):
    return [line.split(",") for line in open(path, encoding="utf-8").read().splitlines()]


def _write_rows(path, rows):
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return str(path)


def test_fit_short_row_is_parse_error(cli_files, capsys):
    root, data, cfg = cli_files
    rows = _csv_rows(data)
    rows[5].pop()
    rc = main(["fit", "--data", _write_rows(root / "short.csv", rows), "--model-config", cfg])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PARSE"
    assert "row 5 " in err["message"]


@pytest.mark.parametrize(
    "column, value",
    [("y", "nan"), ("y", "inf"), ("x1", "nan"), ("x2", "-inf")],
    ids=["nan-y", "inf-y", "nan-x1", "inf-x2"],
)
def test_fit_non_finite_cell_is_parse_error(cli_files, capsys, column, value):
    """nan in y is not a missing outcome, inf in y does not reach the linear
    algebra, and a non-finite covariate is not a SINGULAR design."""
    root, data, cfg = cli_files
    rows = _csv_rows(data)
    i = next(i for i in range(3, len(rows)) if rows[i][0] != "")  # an observed row
    rows[i][rows[0].index(column)] = value
    bad = _write_rows(root / f"nonfinite_{column}_{value}.csv", rows)
    rc = main(["fit", "--data", bad, "--model-config", cfg])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PARSE"
    assert f"row {i}, column '{column}'" in err["message"]


def test_fit_unidentifiable_exits_2(cli_files, capsys):
    root, data, _ = cli_files
    bad = root / "bad_model.json"
    bad.write_text(
        json.dumps({"mean_basis": [[0, 0], [1, 0]], "x1_columns": [1]}),
        encoding="utf-8",
    )
    rc = main(["fit", "--data", data, "--model-config", str(bad)])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "IDENTIFIABILITY"


def test_simulate_csv_and_sidecar(cli_files):
    root, _, _ = cli_files
    out_csv = root / "study.csv"
    sidecar = root / "truth.json"
    args = [
        "simulate", "--scenario", "example1", "--alpha0", "-1.7", "--delta", "0",
        "--n", "300", "--reps", "4", "--methods", "oracle,proposed",
        "--seed", "3", "--truth-draws", "1000000",
        "--out-csv", str(out_csv), "--truth-json", str(sidecar),
    ]
    assert main(args) == 0
    lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",") == ["method", "rb_percent", "mse_x100", "ncr", "n_reps"]
    assert len(lines) == 3
    truth = json.loads(sidecar.read_text(encoding="utf-8"))
    assert truth["tau0"] == pytest.approx(2.177, abs=0.01)
    # byte-exact determinism
    first = out_csv.read_bytes()
    assert main(args) == 0
    assert out_csv.read_bytes() == first


def test_simulate_unknown_method_usage_error(capsys):
    rc = main([
        "simulate", "--scenario", "example1", "--n", "100", "--reps", "2",
        "--methods", "bogus", "--truth-draws", "1000",
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_simulate_reps_zero_usage_error(capsys):
    rc = main(["simulate", "--scenario", "example1", "--n", "100", "--reps", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_profile_gamma_csv(cli_files):
    root, data, cfg = cli_files
    out = root / "prof.csv"
    args = [
        "profile-gamma", "--data", data, "--model-config", cfg,
        "--alpha0", "-1.2", "--beta", "-0.4", "--grid", "-1", "2", "0.1",
        "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",") == ["gamma", "M_gamma", "is_root_bracket"]
    assert lines[-1].startswith("root")
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_profile_gamma_bad_grid(cli_files, capsys):
    _, data, cfg = cli_files
    rc = main([
        "profile-gamma", "--data", data, "--model-config", cfg,
        "--alpha0", "0", "--beta", "0", "--grid", "1", "1", "0.1",
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_diagnose_json(cli_files):
    root, data, cfg = cli_files
    out = root / "diag.json"
    assert main(["diagnose", "--data", data, "--model-config", cfg, "--out", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert 0.0 <= obj["ncv"]["p_value"] <= 1.0
    assert 0.0 <= obj["uss"]["p_value"] <= 1.0
    first = out.read_bytes()
    assert main(["diagnose", "--data", data, "--model-config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_version_flag():
    # argparse's SystemExit is converted into a return code
    assert main(["--version"]) == 0
