import json

import numpy as np
import pytest

from mnarmean.cli import main
from mnarmean.data import write_dataset
from mnarmean.simulate import (
    TRUTH_DRAWS,
    ErrorLaw,
    compute_truth,
    example1,
    generate_dataset,
    run_coverage_study,
)


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


def test_fit_percentile_bootstrap(cli_files):
    root, data, cfg = cli_files
    a, b = root / "pct-a.json", root / "pct-b.json"
    for out in (a, b):
        assert main([
            "fit", "--data", data, "--model-config", cfg, "--bootstrap", "99",
            "--bootstrap-method", "percentile", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text(encoding="utf-8"))
    assert obj["bootstrap_method"] == "bootstrap_percentile"
    assert obj["bootstrap_successful"] + sum(obj["bootstrap_failure_counts"].values()) == 99


@pytest.mark.parametrize("variant", [None, "alternative", "derived"])
def test_fit_reports_the_variant(cli_files, variant):
    """The JSON names the H1 variant that gave sigma2_tau (printed by default)."""
    from mnarmean.data import ModelConfig, parse_dataset
    from mnarmean.fitting import fit_mean_response

    root, data, cfg = cli_files
    out = root / f"variant-{variant}.json"
    flags = [] if variant is None else ["--variant", variant]
    assert main(["fit", "--data", data, "--model-config", cfg, "--out", str(out)] + flags) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["schema_version"] == 1
    assert obj["variant"] == (variant or "printed")
    model = ModelConfig.from_json(open(cfg, encoding="utf-8").read())
    res = fit_mean_response(parse_dataset(data), model, variant=obj["variant"])
    assert obj["sigma2_tau"] == res.variance.sigma2_tau


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


@pytest.mark.parametrize("header", ["y,x1,x1", "y,x1,y"])
def test_fit_repeated_header_name_is_parse_error(cli_files, capsys, header):
    root, _, cfg = cli_files
    rows = [header.split(",")] + [["1.5", "0.5", "-0.5"], ["2.5", "1.0", "0.2"]]
    data = _write_rows(root / "repeated.csv", rows)
    assert main(["fit", "--data", data, "--model-config", cfg]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PARSE"
    assert "appears more than once in the header" in err["message"]


@pytest.mark.parametrize("config", [
    '{"mean_basis": [[0, 0], [1.7, 0], [0, 1]], "x1_columns": [1]}',
    '{"mean_basis": [[0, 0], [1, 0], [0, 1]], "x1_columns": [1.9]}',
    '{"mean_basis": [[0, 0], ["1", 0], [0, 1]], "x1_columns": [1]}',
    '{"mean_basis": [[0, 0], [Infinity, 0], [0, 1]], "x1_columns": [1]}',
], ids=["exponent-1.7", "x1-1.9", "exponent-string", "exponent-inf"])
def test_fit_non_integer_model_config_is_parse_error(cli_files, capsys, config):
    root, data, _ = cli_files
    cfg = root / "non_integer.json"
    cfg.write_text(config, encoding="utf-8")
    assert main(["fit", "--data", data, "--model-config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "PARSE"


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


def test_simulate_sidecar_reports_ncr_reasons(cli_files):
    root, _, _ = cli_files
    out_csv = root / "study.csv"
    sidecar = root / "truth.json"
    assert main([
        "simulate", "--scenario", "section2", "--n", "500", "--reps", "6",
        "--methods", "proposed,ipw,gmm3", "--seed", "2", "--truth-draws", "100000",
        "--out-csv", str(out_csv), "--truth-json", str(sidecar),
    ]) == 0
    rows = [line.split(",") for line in out_csv.read_text(encoding="utf-8").strip().splitlines()]
    assert rows[0] == ["method", "rb_percent", "mse_x100", "ncr", "n_reps"]
    reasons = json.loads(sidecar.read_text(encoding="utf-8"))["ncr_reasons"]
    assert set(reasons) == {"proposed", "ipw", "gmm3"}
    for method, _, _, ncr, _ in rows[1:]:
        assert sum(reasons[method].values()) == int(ncr)
    assert sum(reasons["ipw"].values()) > 0


def test_simulate_unknown_method_usage_error(capsys):
    rc = main([
        "simulate", "--scenario", "example1", "--n", "100", "--reps", "2",
        "--methods", "bogus", "--truth-draws", "1000",
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_simulate_empty_method_list_usage_error(tmp_path, capsys):
    """--methods "," once ran every replication and wrote a header-only CSV."""
    out_csv = tmp_path / "empty.csv"
    rc = main([
        "simulate", "--scenario", "example1", "--n", "2000", "--reps", "50",
        "--methods", ",", "--truth-draws", "1000", "--out-csv", str(out_csv),
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"
    assert not out_csv.exists()


def test_simulate_reps_zero_usage_error(capsys):
    rc = main(["simulate", "--scenario", "example1", "--n", "100", "--reps", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_simulate_unknown_scenario_usage_error(capsys):
    rc = main(["simulate", "--scenario", "nope", "--n", "100", "--reps", "2"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_simulate_keeps_the_scenario_defaults(cli_files):
    """Without --alpha0 and --delta, example2 runs its own alpha0 = -2.7."""
    root, _, _ = cli_files
    sidecar = root / "example2.json"
    assert main([
        "simulate", "--scenario", "example2", "--n", "200", "--reps", "2",
        "--truth-draws", "1000", "--out-csv", str(root / "example2.csv"),
        "--truth-json", str(sidecar),
    ]) == 0
    assert json.loads(sidecar.read_text(encoding="utf-8"))["alpha0"] == -2.7


@pytest.mark.parametrize("flag", [["--alpha0", "5"], ["--delta", "0.3"]], ids=["alpha0", "delta"])
def test_simulate_section2_takes_no_scenario_flags(capsys, flag):
    """section2 is a fixed design; a flag it would ignore is a usage error."""
    rc = main(["simulate", "--scenario", "section2", "--n", "100", "--reps", "2", *flag])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


@pytest.mark.parametrize(
    "scenario, flags, law",
    [
        pytest.param("example1", ["--delta", "1"], ErrorLaw.delta_mixture(1.0).components,
                     id="example1-delta1"),
        pytest.param("example1", [], ErrorLaw.delta_mixture(0.0).components, id="example1"),
        pytest.param("section2", [], [(1.0, 0.0, 1.0)], id="section2"),
    ],
)
def test_simulate_sidecar_records_the_error_law(cli_files, scenario, flags, law):
    """The sidecar lists the error law's components as [weight, mean, variance]."""
    root, _, _ = cli_files
    sidecar = root / "error_law.json"
    assert main([
        "simulate", "--scenario", scenario, "--n", "100", "--reps", "1", *flags,
        "--truth-draws", "1000", "--out-csv", str(root / "error_law.csv"),
        "--truth-json", str(sidecar),
    ]) == 0
    assert json.loads(sidecar.read_text(encoding="utf-8"))["error_law"] == [list(c) for c in law]


def test_one_truth_default(cli_files):
    """A study without tau0, compute_truth over TRUTH_DRAWS draws and the
    CLI's default --truth-draws give one tau0 for one seed."""
    root, _, _ = cli_files
    seed = 4
    study = run_coverage_study(example1(), 50, 1, seed=seed)["tau0"]
    direct = compute_truth(example1(), TRUTH_DRAWS, seed=np.random.SeedSequence((seed, 1)))["tau0"]
    sidecar = root / "truth_default.json"
    assert main([
        "simulate", "--scenario", "example1", "--n", "50", "--reps", "1", "--seed", str(seed),
        "--out-csv", str(root / "truth_default.csv"), "--truth-json", str(sidecar),
    ]) == 0
    cli = json.loads(sidecar.read_text(encoding="utf-8"))["tau0"]
    assert study == direct == cli


@pytest.mark.parametrize("extra", [
    pytest.param(["--methods", "gmm0"], id="gmm0"),
    pytest.param(["--coverage", "wald", "--level", "1.5"], id="wald-level"),
    pytest.param(["--coverage", "bootstrap_t", "--bootstrap", "99", "--level", "1.5"],
                 id="bootstrap_t-level"),
    pytest.param(["--coverage", "bootstrap_t", "--bootstrap", "50"], id="bootstrap_t-B"),
])
def test_simulate_usage_error_writes_only_the_error(capsys, extra):
    """Every study runs before any output, so a usage error leaves stdout
    with its error JSON alone."""
    rc = main([
        "simulate", "--scenario", "example1", "--n", "100", "--reps", "2",
        "--truth-draws", "1000", *extra,
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "USAGE"


def test_simulate_sidecar_reports_coverage_failure_counts(cli_files):
    root, _, _ = cli_files
    sidecar = root / "coverage.json"
    assert main([
        "simulate", "--scenario", "section2", "--n", "25", "--reps", "8",
        "--seed", "5", "--truth-draws", "1000", "--coverage", "wald",
        "--out-csv", str(root / "coverage.csv"), "--truth-json", str(sidecar),
    ]) == 0
    counts = json.loads(sidecar.read_text(encoding="utf-8"))["failure_counts"]
    assert sum(counts.values()) > 0
    assert "USAGE" not in counts


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


def test_profile_gamma_wrong_beta_count(cli_files, capsys):
    """Two --beta values for the one x1 column: a usage error, not a crash."""
    _, data, cfg = cli_files
    rc = main([
        "profile-gamma", "--data", data, "--model-config", cfg,
        "--alpha0", "-1.2", "--beta", "-0.4", "0.1", "--grid", "-1", "2", "0.1",
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


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--variant", "derived"]])
def test_diagnose_takes_no_seed_or_variant(cli_files, flag):
    """diagnose reports the ncv and uss tests, which neither flag changes."""
    _, data, cfg = cli_files
    assert main(["diagnose", "--data", data, "--model-config", cfg, *flag]) == 2


def test_version_flag():
    # argparse's SystemExit is converted into a return code
    assert main(["--version"]) == 0
