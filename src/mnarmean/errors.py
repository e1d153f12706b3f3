"""Exception taxonomy. Each error carries a stable machine-readable code
used by the CLI when emitting error JSON."""

import numpy as np


class MnarError(Exception):
    """Base class for all estimation-related errors."""

    code = "INTERNAL"


class DataIOError(MnarError):
    code = "IO"


class ParseError(MnarError):
    code = "PARSE"


class IdentifiabilityError(MnarError):
    code = "IDENTIFIABILITY"


class SeparationError(MnarError):
    code = "SEPARATION"


class SingularDesignError(MnarError):
    code = "SINGULAR"


class MgfOverflowError(MnarError):
    code = "OVERFLOW"


class NonConvergenceError(MnarError):
    code = "NONCONVERGENCE"


class DegenerateDataError(MnarError):
    """Raised when the data admit no estimate (e.g. all rows observed,
    or all rows missing)."""

    code = "DEGENERATE"


class UsageError(Exception):
    """A wrong argument: not an MnarError, so never counted as a failed fit."""

    code = "USAGE"


class ReplicateErrors:
    """The first error of each of b replicates fitted together: entry j is
    the MnarError that replicate j's fit on its own would raise, or None.
    A batched step records a check with ``record``; a replicate keeps the
    error of the first check it fails, as the scalar fit stops there."""

    def __init__(self, b: int):
        self.errors: list = [None] * b
        self.ok = np.ones(b, dtype=bool)

    def record(self, rows, error) -> None:
        """``rows`` are the indices of the replicates that fail the check and
        ``error(j)`` builds the MnarError of replicate j; replicates that
        failed an earlier check keep theirs."""
        for j in rows:
            if self.ok[j]:
                self.errors[j] = error(j)
                self.ok[j] = False

    def raise_first(self) -> None:
        """The single-fit case: raise the error of the first failed replicate."""
        for exc in self.errors:
            if exc is not None:
                raise exc


def linalg_each(fn, shape, A, *args):
    """``fn(A, *args)``, an array of the given shape, for a numpy.linalg
    function over stacked operands.  LAPACK rejects the whole stack when one
    member is singular; the members are then taken one at a time, and the
    singular ones come back as NaN.  Returns the result and {member index:
    its LinAlgError}; the errors carry no traceback, which would keep the
    caller's frames and arrays alive until the cyclic garbage collector
    runs."""
    try:
        return fn(A, *args), {}
    except np.linalg.LinAlgError:
        pass
    out, errors = np.full(shape, np.nan), {}
    for k in range(len(A)):
        try:
            out[k] = fn(A[k], *(a[k] for a in args))
        except np.linalg.LinAlgError as exc:
            errors[k] = exc.with_traceback(None)
    return out, errors
