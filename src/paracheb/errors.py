"""Exception types shared across the solver, analysis and driver layers."""

from __future__ import annotations


class SolverError(RuntimeError):
    """Base class for numerical failures (as opposed to bad arguments)."""

    #: The subinterval and pass (0 for the initial sweep) of the coarse step
    #: that raised the error, also named in its message; None elsewhere.
    subinterval: int | None = None
    k: int | None = None

    def name_coarse_step(self, subinterval: int, k: int) -> None:
        self.subinterval, self.k = subinterval, k
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
    """A collocation system was singular, i.e. the scaled problem sits on a
    pole of the rational stability function."""


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
