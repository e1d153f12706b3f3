"""One OpenBLAS thread for the CLI commands and the study pools.

OpenBLAS starts a thread per core by default.  Here its second thread saves
no wall time: the per-row CSV parser makes no BLAS call at all, and a study
already runs one replication per worker process.  Yet the idle thread spins
on another core after each threaded call, and a threaded matrix product sums
in another order, which changes the last digits of a statistic.
``OPENBLAS_NUM_THREADS`` cannot fix this from inside the package, since
OpenBLAS reads it once, when numpy loads, so the count is set at run time.

The thread-count functions are looked up in numpy's linear-algebra
extension, whose symbol lookup covers the BLAS that numpy links.  With any
other BLAS nothing is found and nothing changes."""

from __future__ import annotations

import contextlib
import ctypes

#: (prefix, suffix) of the OpenBLAS symbols: scipy-openblas wheels with 64-
#: and 32-bit integers, then a system OpenBLAS with and without the suffix
_SYMBOLS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


def _library():
    from numpy.linalg import _umath_linalg

    return ctypes.CDLL(_umath_linalg.__file__)


def _thread_functions(lib):
    """(get_num_threads, set_num_threads) of the OpenBLAS in ``lib``, or
    None when it exports none of the names."""
    for prefix, suffix in _SYMBOLS:
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the caller's
    count.  Set it before a pool forks, never in a worker: in a forked
    child, setting the count restarts the thread server that the fork
    stopped.  A process already at one thread is left untouched, so a
    nested use costs nothing."""
    funcs = _thread_functions(_library())
    before = funcs[0]() if funcs else 1
    if before == 1:
        yield
        return
    set_threads = funcs[1]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
