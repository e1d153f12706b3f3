import warnings

import numpy as np
import pytest
from scipy.stats import norm

from mnarmean._workspace import Workspace
from mnarmean.bootstrap import (
    _child_rngs,
    bootstrap_percentile_ci,
    bootstrap_t_ci,
    t_interval_from_stats,
)
from mnarmean.errors import MnarError, NonConvergenceError, UsageError
from mnarmean.fitting import fit_with_variance, point_estimate
from mnarmean.inference import wald_ci
from mnarmean.simulate import example1, example2, generate_dataset


@pytest.fixture(scope="module")
def boot_data():
    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 400, seed=123)
    return ds, sc.model_config()


def test_symmetric_toy_quantiles():
    """t* = {-2,-1,0,1,2}, level 0.5: type-7 quantiles at 0.25/0.75 are -1/1,
    so the CI is tau_hat -+ sigma_tau/sqrt(n)."""
    t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    ci = t_interval_from_stats(tau_hat=5.0, sigma_tau=2.0, n=4, t_stats=t, level=0.5)
    assert ci.lower == pytest.approx(5.0 - 1.0)
    assert ci.upper == pytest.approx(5.0 + 1.0)


def test_bootstrap_t_matches_wald_under_normal_tstats():
    """Injecting exact normal quantiles as t* reproduces the Wald CI."""
    t = norm.ppf(np.linspace(0.0, 1.0, 100_001)[1:-1])
    ci = t_interval_from_stats(tau_hat=1.2, sigma_tau=3.0, n=100, t_stats=t, level=0.95)
    ref = wald_ci(1.2, 9.0, 100, level=0.95)
    assert ci.lower == pytest.approx(ref.lower, abs=1e-3)
    assert ci.upper == pytest.approx(ref.upper, abs=1e-3)


def test_bootstrap_t_deterministic_and_accounted(boot_data):
    ds, cfg = boot_data
    a = bootstrap_t_ci(ds, cfg, B=120, seed=9)
    b = bootstrap_t_ci(ds, cfg, B=120, seed=9)
    assert (a.ci.lower, a.ci.upper) == (b.ci.lower, b.ci.upper)
    assert np.array_equal(a.t_stats, b.t_stats)
    assert a.n_successful + sum(a.failure_counts.values()) == 120
    assert a.ci.lower <= a.ci.upper
    c = bootstrap_t_ci(ds, cfg, B=120, seed=10)
    assert (a.ci.lower, a.ci.upper) != (c.ci.lower, c.ci.upper)


def test_bootstrap_percentile_deterministic(boot_data):
    ds, cfg = boot_data
    a = bootstrap_percentile_ci("proposed", ds, cfg, B=120, seed=11)
    b = bootstrap_percentile_ci("proposed", ds, cfg, B=120, seed=11)
    assert (a.ci.lower, a.ci.upper) == (b.ci.lower, b.ci.upper)
    assert a.ci.method == "bootstrap_percentile"
    assert a.n_successful + sum(a.failure_counts.values()) == 120


def test_b_floor(boot_data):
    ds, cfg = boot_data
    with pytest.raises(UsageError):
        bootstrap_t_ci(ds, cfg, B=98)
    with pytest.raises(UsageError):
        bootstrap_percentile_ci("proposed", ds, cfg, B=50)


@pytest.mark.parametrize("level", [1.5, 0.0, 1.0, float("nan")])
@pytest.mark.parametrize("interval", ["t", "percentile"])
def test_level_is_checked_before_fitting(monkeypatch, boot_data, interval, level):
    import mnarmean.bootstrap as bs

    def no_fits(*args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(bs, "_resample", no_fits)
    ds, cfg = boot_data
    with pytest.raises(UsageError, match="confidence level must lie in"):
        if interval == "t":
            bootstrap_t_ci(ds, cfg, level=level, B=99)
        else:
            bootstrap_percentile_ci("proposed", ds, cfg, level=level, B=99)


@pytest.mark.parametrize("interval", ["t", "percentile"])
def test_failure_tolerance_enforced(monkeypatch, interval):
    """If more than 5% of resamples fail, the whole CI must error out rather
    than silently report a quantile from the survivors."""
    import mnarmean.bootstrap as bs

    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 500, seed=124)
    real_fit = bs.fit_replicates
    seen = {"k": 0}

    def flaky_fit(*args, **kwargs):
        # fail every third resample of the chunk results
        fits = real_fit(*args, **kwargs)
        k = seen["k"] + 1 + np.arange(len(fits.tau))
        seen["k"] += len(fits.tau)
        fits.errors.record(
            np.flatnonzero(k % 3 == 0),
            lambda j: NonConvergenceError("injected resample failure"),
        )
        return fits

    monkeypatch.setattr(bs, "fit_replicates", flaky_fit)
    with pytest.raises(NonConvergenceError, match="resamples succeeded"):
        if interval == "t":
            bootstrap_t_ci(ds, sc.model_config(), B=100, seed=12)
        else:
            bootstrap_percentile_ci("proposed", ds, sc.model_config(), B=100, seed=12)


def _per_resample_loop(ds, B, seed, statistic):
    """The reference: each resample drawn from its child RNG, gathered with
    take and fitted on its own; returns (statistics, failure counts)."""
    values, failures = [], {}
    for rng in _child_rngs(seed, B):
        star = ds.take(rng.integers(0, ds.n, size=ds.n))
        if star.n_observed in (0, star.n):
            code = "DEGENERATE"
        else:
            try:
                values.append(statistic(star))
                continue
            except MnarError as exc:
                code = exc.code
            except np.linalg.LinAlgError:
                code = "SINGULAR"
        failures[code] = failures.get(code, 0) + 1
    return np.asarray(values), failures


def _reference_t(ds, cfg, B, seed, variant="printed"):
    tau_hat = fit_with_variance(ds, cfg, variant)[0].tau_hat

    def t_star(star):
        tau, prop, var = fit_with_variance(star, cfg, variant)
        if not prop.converged or var.sigma2_tau <= 0:
            raise NonConvergenceError("resample fit did not converge or sigma2* <= 0")
        return np.sqrt(ds.n) * (tau.tau_hat - tau_hat) / np.sqrt(var.sigma2_tau)

    return _per_resample_loop(ds, B, seed, t_star)


@pytest.fixture(scope="module")
def separating_data():
    """n = 25 Example 1 data on which 6 of 199 resamples fail with SEPARATION
    and 1 is DEGENERATE."""
    sc = example1(alpha0=-1.7, delta=1.0)
    return generate_dataset(sc, 25, seed=35), sc.model_config()


@pytest.mark.parametrize("variant", ["printed", "derived"])
@pytest.mark.parametrize("seed", [0, 1])
def test_t_stats_match_per_resample_loop(variant, seed):
    sc = example1(alpha0=-1.7, delta=1.0)
    ds = generate_dataset(sc, 500, seed=40 + seed)
    cfg = sc.model_config()
    res = bootstrap_t_ci(ds, cfg, B=150, seed=seed, variant=variant)
    ref, failures = _reference_t(ds, cfg, 150, seed, variant)
    assert res.failure_counts == failures
    assert res.n_successful == len(ref)
    np.testing.assert_allclose(res.t_stats, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tag", ["proposed", "normal_plugin"])
def test_percentile_taus_match_per_resample_loop(monkeypatch, tag):
    import mnarmean.bootstrap as bs

    sc = example1(alpha0=-1.7, delta=1.0)
    ds = generate_dataset(sc, 400, seed=44)
    cfg = sc.model_config()
    taus = []
    real_resample = bs._resample

    def keep_taus(*args):
        original, values, failures = real_resample(*args)
        taus.append(values)
        return original, values, failures

    monkeypatch.setattr(bs, "_resample", keep_taus)
    res = bootstrap_percentile_ci(tag, ds, cfg, B=150, seed=5)
    ref, failures = _per_resample_loop(ds, 150, 5, lambda star: _converged_tau(tag, star, cfg))
    assert res.failure_counts == failures
    np.testing.assert_allclose(taus[0], ref, rtol=0, atol=1e-10)


def _converged_tau(tag, star, cfg):
    tau, _, converged = point_estimate(tag, star, cfg)
    if not converged:
        raise NonConvergenceError("resample fit did not converge")
    return tau


def test_percentile_counts_non_converged_resamples_as_failures():
    """On section 2 data IPW has a root on 1 of these 99 resamples; the
    stall points of the other fits are failures, not estimates."""
    from mnarmean.simulate import section2_design

    sc = section2_design()
    ds = generate_dataset(sc, 2000, 0)
    with pytest.raises(NonConvergenceError, match=r"only 1/99 .*'NONCONVERGENCE': 98"):
        bootstrap_percentile_ci("ipw", ds, sc.model_config(), B=99, seed=1)


def test_failure_counts_match_per_resample_loop_at_small_n(separating_data):
    ds, cfg = separating_data
    res = bootstrap_t_ci(ds, cfg, B=199, seed=35)
    ref, failures = _reference_t(ds, cfg, 199, 35)
    assert failures == {"SEPARATION": 6, "DEGENERATE": 1}
    assert res.failure_counts == failures
    np.testing.assert_allclose(res.t_stats, ref, rtol=0, atol=1e-10)


def test_chunk_boundaries_do_not_change_statistics(monkeypatch, separating_data):
    import mnarmean.bootstrap as bs

    ds, cfg = separating_data
    runs = []
    for rows in (bs.CHUNK_ROWS, 25, 7 * 25, 10**9):
        monkeypatch.setattr(bs, "CHUNK_ROWS", rows)
        runs.append(bootstrap_t_ci(ds, cfg, B=199, seed=35))
    for res in runs[1:]:
        assert res.failure_counts == runs[0].failure_counts
        np.testing.assert_array_equal(res.t_stats, runs[0].t_stats)
        assert (res.ci.lower, res.ci.upper) == (runs[0].ci.lower, runs[0].ci.upper)


def test_failed_resamples_raise_no_warning(separating_data):
    """The arithmetic that fitting many resamples at once runs on the failed
    ones must stay silent, including on all-missing and all-observed rows."""
    from mnarmean.fitting import fit_replicates

    ds, cfg = separating_data
    missing = np.resize(np.flatnonzero(ds.r == 0), ds.n)
    observed = np.resize(np.flatnonzero(ds.r == 1), ds.n)
    idx = np.stack([missing, observed, np.arange(ds.n)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = bootstrap_t_ci(ds, cfg, B=199, seed=35)
        pct = bootstrap_percentile_ci("proposed", ds, cfg, B=199, seed=35)
        fits = fit_replicates(ds, cfg, idx, workspace=Workspace())
    assert res.failure_counts["SEPARATION"] > 0
    assert pct.failure_counts["SEPARATION"] > 0
    assert [exc and exc.code for exc in fits.errors.errors] == ["DEGENERATE", "DEGENERATE", None]


def test_unknown_estimator_tag_is_usage_error(boot_data):
    """simulate.run_method and the percentile bootstrap share one registry."""
    from mnarmean.simulate import run_method

    ds, cfg = boot_data
    sc = example1(alpha0=-1.7, delta=0.0)
    for tag in ("bogus", "gmm", "gmmx"):
        with pytest.raises(UsageError, match="unknown estimator tag"):
            run_method(tag, ds, sc, 2.0)
        with pytest.raises(UsageError, match="unknown estimator tag"):
            bootstrap_percentile_ci(tag, ds, cfg, B=99, seed=1)


def test_percentile_ipw_with_one_covariate():
    """Example 2 has a single covariate; the just-identified IPW basis is
    then {1, x, x^2}."""
    sc = example2()
    ds = generate_dataset(sc, 2000, seed=7)
    res = bootstrap_percentile_ci("ipw", ds, sc.model_config(), B=99, seed=3)
    assert np.isfinite(res.ci.lower) and np.isfinite(res.ci.upper)
    assert res.ci.lower <= res.ci.upper


def test_kernel_errors_match_single_fits():
    """On data whose x2 column is zero but for three complete cases, some
    resamples are rank-deficient and others separate; every resample gets
    the error class and message of its own fit."""
    from mnarmean.data import Dataset
    from mnarmean.fitting import fit_replicates

    sc = example1(alpha0=-1.7, delta=1.0)
    cfg = sc.model_config()
    seen, messages = set(), []
    for seed in range(4):
        ds = generate_dataset(sc, 40, seed=seed)
        x = ds.x.copy()
        x[:, 1] = 0.0
        x[np.flatnonzero(ds.r == 1)[:3], 1] = [1.0, -2.0, 0.5]
        ds = Dataset(r=ds.r, y=ds.y, x=x)
        idx = np.stack([rng.integers(0, ds.n, size=ds.n) for rng in _child_rngs(seed, 60)])
        idx = idx[[0 < ds.r[rows].sum() < ds.n for rows in idx]]
        fits = fit_replicates(ds, cfg, idx, workspace=Workspace())
        for j, rows in enumerate(idx):
            try:
                tau, prop, var = fit_with_variance(ds.take(rows), cfg)
            except MnarError as exc:
                got = fits.errors.errors[j]
                assert (type(got), str(got)) == (type(exc), str(exc))
                seen.add(exc.code)
                messages.append(str(exc))
                continue
            assert fits.errors.errors[j] is None
            assert fits.converged[j] == prop.converged
            assert abs(fits.tau[j] - tau.tau_hat) <= 1e-10 * max(1.0, abs(tau.tau_hat))
            assert abs(fits.sigma2_tau[j] - var.sigma2_tau) <= 1e-10 * var.sigma2_tau
    assert seen == {"SINGULAR", "SEPARATION"}
    assert "rank-deficient design: columns [2] are linearly dependent" in "".join(messages)


def test_solver_linalg_error_is_a_singular_failure(monkeypatch):
    """point_estimate raises a solver's LinAlgError as SingularDesignError, so
    the percentile bootstrap and run_study count it under SINGULAR."""
    from mnarmean import fitting
    from mnarmean.errors import SingularDesignError
    from mnarmean.simulate import run_study

    solve_ipw, calls = fitting.solve_ipw, []

    def flaky_ipw(*args):
        calls.append(None)
        if len(calls) in (1, 4, 9):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve_ipw(*args)

    monkeypatch.setattr(fitting, "solve_ipw", flaky_ipw)
    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 2000, seed=515)
    with pytest.raises(SingularDesignError, match="Singular matrix"):
        point_estimate("ipw", ds, sc.model_config())
    boot = bootstrap_percentile_ci("ipw", ds, sc.model_config(), B=99, seed=515)
    assert boot.failure_counts == {"SINGULAR": 2}
    calls.clear()
    rows = run_study(sc, 300, 3, ["ipw"], seed=1, tau0=2.0)
    assert rows[0].ncr_reasons.get("SINGULAR") == 1


def test_bootstraps_check_identifiability_on_the_original_sample():
    """With mean basis {1, x1}, theta is not identifiable: both bootstraps
    raise fit_mean_response's IdentifiabilityError before any resample."""
    from mnarmean.data import BasisTerm, ModelConfig
    from mnarmean.errors import IdentifiabilityError
    from mnarmean.fitting import fit_mean_response

    ds = generate_dataset(example1(alpha0=-1.7, delta=0.0), 2000, seed=1)
    cfg = ModelConfig(mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0))), x1_columns=(1,))
    with pytest.raises(IdentifiabilityError) as expected:
        fit_mean_response(ds, cfg)
    message = str(expected.value)
    with pytest.raises(IdentifiabilityError) as got:
        bootstrap_t_ci(ds, cfg, B=99, seed=2)
    assert str(got.value) == message
    for tag in ("proposed", "normal_plugin"):
        with pytest.raises(IdentifiabilityError) as got:
            bootstrap_percentile_ci(tag, ds, cfg, B=99, seed=2)
        assert str(got.value) == message


def _interval(kind, ds, cfg, B, seed):
    """(resample statistics, CI endpoints, failure counts) of one interval:
    ``printed`` and ``derived`` bootstrap-t, or ``proposed`` and
    ``normal_plugin`` percentile."""
    import mnarmean.bootstrap as bs

    kept, real_resample = [], bs._resample

    def keep(*args):
        out = real_resample(*args)
        kept.append(out[1])
        return out

    bs._resample = keep
    try:
        if kind in ("printed", "derived"):
            res = bootstrap_t_ci(ds, cfg, B=B, seed=seed, variant=kind)
        else:
            res = bootstrap_percentile_ci(kind, ds, cfg, B=B, seed=seed)
    finally:
        bs._resample = real_resample
    return kept[0], (res.ci.lower, res.ci.upper), res.failure_counts


@pytest.mark.parametrize("kind", ["printed", "derived", "proposed", "normal_plugin"])
def test_workspace_reuse_is_invisible(monkeypatch, separating_data, kind):
    """The chunks of one bootstrap call share a workspace; the statistics,
    the interval and the failure counts are bit for bit those of chunks
    that allocate their own arrays, and nothing fit_replicates returns lies
    in the workspace.  Covered: 399 = 7 x 50 + 49 resamples at n = 500, so
    the last chunk is smaller; the n = 25 data in chunks of 30, whose
    DEGENERATE resample leaves a chunk of 29 and whose SEPARATION members
    stop Newton early, so that its compaction buffer is used; and calls at
    n = 500, 300 and 500 in turn."""
    import mnarmean.bootstrap as bs

    sc = example1(alpha0=-1.7, delta=1.0)
    cfg = sc.model_config()
    small, small_cfg = separating_data
    cases = [
        (generate_dataset(sc, n, seed=60 + k), cfg, 399, k) for k, n in enumerate((500, 300, 500))
    ]
    cases.append((small, small_cfg, 199, 35))
    real_fit, aliased = bs.fit_replicates, []

    def checked_fit(*args, workspace, **kwargs):
        fits = real_fit(*args, workspace=workspace, **kwargs)
        returned = [fits.tau, fits.sigma2_tau, fits.converged]
        aliased.extend(
            np.shares_memory(a, buf)
            for a in returned
            if a is not None
            for buf in workspace.buffers.values()
        )
        return fits

    def run_all(fit_replicates):
        monkeypatch.setattr(bs, "fit_replicates", fit_replicates)
        out = []
        for ds, model, B, seed in cases:
            monkeypatch.setattr(bs, "CHUNK_ROWS", 30 * ds.n if ds.n == 25 else 25_000)
            out.append(_interval(kind, ds, model, B, seed))
        return out

    shared = run_all(checked_fit)
    own = run_all(
        lambda *args, workspace, **kwargs: real_fit(*args, workspace=Workspace(), **kwargs)
    )
    assert aliased and not any(aliased)
    assert shared[-1][2].get("DEGENERATE") == 1 and shared[-1][2].get("SEPARATION", 0) > 0
    for (values, ci, failures), (ref_values, ref_ci, ref_failures) in zip(shared, own):
        np.testing.assert_array_equal(values, ref_values)
        assert ci == ref_ci
        assert failures == ref_failures


#: the workspace object, its dict and the headers of its buffers: under 1 kB,
#: where one (b, n) array of a chunk of 50 resamples of 500 rows is 200 kB
PEAK_SLACK = 2048


def test_workspace_does_not_raise_the_peak_memory(monkeypatch):
    """The tracemalloc peak of bootstrap_t_ci(B = 399) at n = 500 with the
    shared workspace is no higher than with arrays allocated per chunk.
    The workspace's buffers are carved so that at the peak, the score rows
    of the sandwich, all of them are in use; what remains is the workspace
    object itself, allowed for by PEAK_SLACK."""
    import tracemalloc

    import mnarmean.bootstrap as bs

    sc = example1(alpha0=-1.7, delta=1.0)
    ds, cfg = generate_dataset(sc, 500, seed=3), sc.model_config()
    real_fit = bs.fit_replicates

    def peak(fit_replicates):
        monkeypatch.setattr(bs, "fit_replicates", fit_replicates)
        bootstrap_t_ci(ds, cfg, B=399, seed=1)  # warm-up
        tracemalloc.start()
        try:
            bootstrap_t_ci(ds, cfg, B=399, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first traced call of a process also traces one-off caches
    tracemalloc.start()
    bootstrap_t_ci(ds, cfg, B=99, seed=5)
    tracemalloc.stop()
    shared = peak(real_fit)
    own = peak(
        lambda *args, workspace, **kwargs: real_fit(*args, workspace=Workspace(), **kwargs)
    )
    assert shared <= own + PEAK_SLACK, (shared, own)
