"""The replicate kernels against their reference forms in kernel_reference:
Newton bit for bit, least squares and the sandwich pieces to 1e-12, and no
kernel with a higher peak of traced allocations than its reference."""

import tracemalloc

import kernel_reference as ref
import numpy as np
import pytest

from mnarmean._workspace import Workspace
from mnarmean.data import build_design
from mnarmean.errors import ReplicateErrors
from mnarmean.inference import sandwich_batch
from mnarmean.outcome import least_squares_batch
from mnarmean.propensity import SCORE_TOL, newton_batch, z_stack
from mnarmean.simulate import example1, example2, generate_dataset


def _resample_inputs(sc, n, b, seed):
    """The kernel inputs of fit_replicates for b resamples of one dataset."""
    ds = generate_dataset(sc, n, seed)
    idx = np.random.default_rng(seed).integers(0, n, size=(b, n))
    star = ds.take(idx.ravel())
    dm = build_design(star, sc.model_config())
    M = dm.M.reshape(b, n, -1)
    r = star.r.reshape(b, n).astype(float)
    y = star.y.reshape(b, n)
    _, mu, eps, _ = least_squares_batch(M, r, y, ReplicateErrors(b), Workspace())
    z = z_stack(dm.X1.reshape(b, n, -1), mu, Workspace())
    theta = newton_batch(z, r, ReplicateErrors(b), Workspace())[0]
    return M, r, y, mu, eps, z, theta


def _codes(errs):
    return [exc and (exc.code, str(exc)) for exc in errs.errors]


def _mixed_newton_stack(n=12, b=400, seed=1):
    """Heavy-tailed random designs, some of which separate after several
    halved steps, plus an all-observed member (DEGENERATE), one whose x1
    column is the intercept (a near-singular hessian: its step is halved
    MAX_HALVINGS times, and it stops without an error) and one whose mu_hat
    column is twice its x1 column (SINGULAR)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(1, size=(b, n))
    mu = 3.0 * rng.standard_t(2, size=(b, n))
    lin = rng.normal(0.0, 3.0, (b, 1)) * x + rng.normal(0.0, 3.0, (b, 1)) * mu
    r = (rng.random((b, n)) < 1.0 / (1.0 + np.exp(np.clip(lin, -50, 50)))).astype(float)
    r[:, :2] = (1.0, 0.0)
    r[0] = 1.0
    x[1] = 1.0
    mu[2] = 2.0 * x[2]
    return z_stack(x[..., None], mu, Workspace()), r


def test_newton_is_bit_identical_to_the_reference(monkeypatch):
    z, r = _mixed_newton_stack()
    calls = []
    loglik = ref._loglik
    monkeypatch.setattr(ref, "_loglik", lambda r, *a: (calls.append(len(r)), loglik(r, *a))[1])
    want_errs, got_errs = ReplicateErrors(len(r)), ReplicateErrors(len(r))
    want = ref.newton_batch(z, r, want_errs)
    got = newton_batch(z, r, got_errs, Workspace())
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert _codes(got_errs) == _codes(want_errs)
    codes = {c and c[0] for c in _codes(got_errs)}
    assert codes == {None, "DEGENERATE", "SINGULAR", "SEPARATION"}
    # each member's log-likelihood is taken once at the start and once per
    # full step, and there is no step in the iteration where its score
    # passes SCORE_TOL or its hessian is singular: any more are halved steps
    full_steps = want[2].sum() - (got_errs.ok & (want[3] < SCORE_TOL)).sum() - 1
    assert sum(calls) > len(r) + full_steps
    assert len(set(want[2][got_errs.ok].tolist())) > 3  # members stop at different iterations


@pytest.mark.parametrize("n, seed", [(25, 35), (500, 4)])
def test_newton_on_resamples_is_bit_identical_to_the_reference(n, seed):
    _, r, _, _, _, z, _ = _resample_inputs(example1(alpha0=-1.7, delta=1.0), n, 60, seed)
    want_errs, got_errs = ReplicateErrors(len(r)), ReplicateErrors(len(r))
    for g, w in zip(newton_batch(z, r, got_errs, Workspace()), ref.newton_batch(z, r, want_errs)):
        np.testing.assert_array_equal(g, w)
    assert _codes(got_errs) == _codes(want_errs)


def _assert_close_per_replicate(got, want, ok):
    """got and want agree to 1e-12 of the largest |want| of each replicate."""
    got, want = got[ok], want[ok]
    scale = np.abs(want).reshape(len(want), -1).max(axis=1)
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    assert (err <= 1e-12 * scale).all(), (err / scale).max()


@pytest.mark.parametrize("sc", [example1(alpha0=-1.7, delta=1.0), example2()], ids=["ex1", "ex2"])
def test_least_squares_matches_the_q_forming_reference(sc):
    M, r, y, *_ = _resample_inputs(sc, 40, 60, 8)
    M = M.copy()
    M[1, :, 2] = M[1, :, 1]  # rank-deficient: SINGULAR
    r = r.copy()
    r[2, 2:] = 0.0  # 2 complete cases for 3 parameters: DEGENERATE
    y = np.where(r == 1, y, np.nan)
    y[2, :2] = 1.0
    want_errs, got_errs = ReplicateErrors(len(r)), ReplicateErrors(len(r))
    want = ref.least_squares_batch(M, r, y, want_errs)
    got = least_squares_batch(M, r, y, got_errs, Workspace())
    assert _codes(got_errs) == _codes(want_errs)
    assert {c and c[0] for c in _codes(got_errs)} == {None, "SINGULAR", "DEGENERATE"}
    for g, w in zip(got, want):
        _assert_close_per_replicate(g, w, got_errs.ok)


@pytest.mark.parametrize("sc", [example1(alpha0=-1.7, delta=1.0), example2()], ids=["ex1", "ex2"])
def test_sandwich_matches_the_row_major_reference(sc):
    M, r, _, mu, eps, z, theta = _resample_inputs(sc, 200, 40, 6)
    want_errs, got_errs = ReplicateErrors(len(r)), ReplicateErrors(len(r))
    want = ref.sandwich_batch(M, r, eps, mu, z, theta, want_errs)
    got = sandwich_batch(M, r, eps, mu, z, theta, got_errs, Workspace())
    assert _codes(got_errs) == _codes(want_errs)
    ok = got_errs.ok & np.isfinite(want.V).all(axis=(1, 2))
    assert ok.sum() > 30
    for name in ("A1", "A2", "A3", "A4", "C1", "C2", "V"):
        _assert_close_per_replicate(getattr(got, name), getattr(want, name), ok)
    for g, w in zip(got.B, want.B):
        np.testing.assert_allclose(g[ok], w[ok], rtol=1e-12)


def _traced_peak(fn, *args):
    """The peak of traced allocations while fn runs, above those before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["least_squares", "newton", "sandwich"])
def test_kernel_peak_memory_is_within_the_reference(kernel):
    """b = 50 resamples of n = 500 rows, the size of a bootstrap chunk."""
    M, r, y, mu, eps, z, theta = _resample_inputs(example1(), 500, 50, 7)
    new, old, args = {
        "least_squares": (least_squares_batch, ref.least_squares_batch, (M, r, y)),
        "newton": (newton_batch, ref.newton_batch, (z, r)),
        "sandwich": (sandwich_batch, ref.sandwich_batch, (M, r, eps, mu, z, theta)),
    }[kernel]
    got = _traced_peak(new, *args, ReplicateErrors(50), Workspace())
    want = _traced_peak(old, *args, ReplicateErrors(50))
    assert got <= want, (got / (50 * 500 * 8), want / (50 * 500 * 8))
