"""Exception types shared across the solver, analysis and driver layers,
and the integer check that every layer's counts pass."""

from __future__ import annotations

import operator


def check_integer(name: str, value) -> None:
    """Reject a count that is not an integer, naming its field.

    A float count would pass every range check and fail later in ``range``.
    """
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer (got {value!r})") from None


class SolverError(RuntimeError):
    """Base class for numerical failures (as opposed to bad arguments)."""

    #: The subinterval and pass (0 for the initial sweep) of the coarse step
    #: that raised the error, also named in its message; None elsewhere.
    subinterval: int | None = None
    k: int | None = None
    #: The run of a parareal batch that raised the error, its index among
    #: the batch's configs (0 for a single run); None outside parareal.  The
    #: message leaves it to the caller, who knows the run's name.
    run: int | None = None

    def name_coarse_step(self, subinterval: int, k: int, run: int) -> None:
        self.subinterval, self.k, self.run = subinterval, k, run
        self.add_context(f"coarse step on subinterval {subinterval} in pass {k}")

    def add_context(self, context: str) -> None:
        """Prefix the message with ``context``; the type and data are kept."""
        self.args = (f"{context}: {self}",)


class NonFiniteRhsError(SolverError):
    """The right-hand side returned a NaN or infinity at a collocation node."""

    def __init__(self, node: int, t: float):
        t = float(t)  # a numpy scalar would print as np.float64(...)
        super().__init__(f"non-finite right-hand side at node {node} (t={t!r})")
        self.node = node
        self.t = t


class NonConvergenceError(SolverError):
    """An inner iteration (Picard or Newton) hit its cap before the tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class SingularSystemError(SolverError):
    """A linear solve had no usable answer: a Newton stage matrix was
    singular, or a collocation solve overflowed to non-finite values.

    The collocation systems themselves are never singular on their domain,
    a symmetric positive semidefinite ``A``, whose shifts are all ``z >= 0``.
    """


class MaxIterationsError(SolverError):
    """The outer predictor-corrector loop hit its iteration cap.

    Carries the convergence history so the caller can diagnose stagnation.
    """

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


class SweepError(SolverError):
    """One or more rows (subintervals) of a stacked fine sweep failed.

    ``indices`` lists every failed row; ``cause`` is the error of the lowest.
    """

    def __init__(self, indices, cause: BaseException):
        super().__init__(f"fine propagator failed on subintervals {sorted(indices)}: {cause}")
        self.indices = sorted(indices)
        self.cause = cause


def raise_row_failures(failures: dict[int, BaseException], stacked: bool) -> None:
    """Raise the row failures of a stacked call, if there are any.

    ``failures`` maps a row to its error.  A stack raises ``SweepError``
    naming every failed row; a single state (``stacked`` false) raises its
    own error.
    """
    if not failures:
        return
    first = failures[min(failures)]
    if not stacked:
        raise first
    raise SweepError(failures.keys(), first) from first


class PointSearchError(SolverError):
    """The minimal-point-count search hit its cap without satisfying the
    endpoint criterion."""

    def __init__(self, z_max: float, cap: int, last_value: float):
        super().__init__(
            f"no point count up to M={cap} satisfies the endpoint criterion "
            f"at z_max={z_max:g} (last |R|={last_value:.6e})"
        )
        self.z_max = z_max
        self.cap = cap
        self.last_value = last_value
