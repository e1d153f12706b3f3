"""The CLI commands and the study pools run OpenBLAS on one thread.

The caller is put at two threads first, so each test means the same whatever
``OPENBLAS_NUM_THREADS`` the suite runs under.  All are skipped when numpy's
BLAS is not OpenBLAS, where the pin does nothing."""

import os
import subprocess
import sys
import types

import numpy as np
import pytest

import mnarmean
from mnarmean import _blas, simulate
from mnarmean.data import write_dataset
from mnarmean.simulate import example2, generate_dataset

FUNCS = _blas._thread_functions(_blas._library())
pytestmark = pytest.mark.skipif(FUNCS is None, reason="numpy's BLAS is not OpenBLAS")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mnarmean.__file__)))


@pytest.fixture
def two_blas_threads():
    get, set_threads = FUNCS
    before = get()
    set_threads(2)
    yield
    set_threads(before)


def _task(_):
    """A product large enough for OpenBLAS to thread, then the thread counts."""
    a = np.random.default_rng(0).random((400, 400))
    a @ a
    tasks = f"/proc/{os.getpid()}/task"
    return FUNCS[0](), len(os.listdir(tasks)) if os.path.isdir(tasks) else None


@pytest.mark.parametrize("threads", [1, 2])
def test_study_tasks_see_one_blas_thread(two_blas_threads, threads):
    """A forked worker inherits the parent's count.  At two, its first
    threaded product started OpenBLAS's thread server: two OS threads, one
    of them spinning on the other core."""
    results = simulate._parallel_map(_task, range(16), threads)
    assert [blas for blas, _ in results] == [1] * 16
    if threads > 1 and sys.platform.startswith("linux"):
        assert [os_threads for _, os_threads in results] == [1] * 16
    assert FUNCS[0]() == 2


def test_cli_output_does_not_depend_on_openblas_threads(tmp_path):
    """With two threads the uss statistic of this fit differed in its last
    digits, since a threaded product sums in another order."""
    sc = example2(-2.7, 1.0)
    data, cfg = tmp_path / "data.csv", tmp_path / "model.json"
    write_dataset(generate_dataset(sc, 100_000, 5), data)
    cfg.write_text(sc.model_config().to_json(), encoding="utf-8")
    argv = [sys.executable, "-m", "mnarmean.cli", "fit", "--data", str(data),
            "--model-config", str(cfg), "--diagnostics"]
    outputs = [
        subprocess.run(
            argv, env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=count),
            capture_output=True, check=True,
        ).stdout
        for count in ("1", "2")
    ]
    assert b'"uss"' in outputs[0]
    assert outputs[0] == outputs[1]


def test_one_blas_thread_restores_the_callers_count(two_blas_threads):
    get = FUNCS[0]
    with pytest.raises(RuntimeError):
        with _blas.one_blas_thread():
            assert get() == 1
            with _blas.one_blas_thread():
                assert get() == 1
            assert get() == 1
            raise RuntimeError
    assert get() == 2


def test_one_blas_thread_is_a_no_op_without_openblas(two_blas_threads, monkeypatch):
    """A BLAS that exports none of the OpenBLAS names is left alone."""
    assert _blas._thread_functions(types.SimpleNamespace()) is None
    monkeypatch.setattr(_blas, "_library", types.SimpleNamespace)
    with _blas.one_blas_thread():
        assert FUNCS[0]() == 2
    assert FUNCS[0]() == 2
