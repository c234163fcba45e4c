"""Test-problem catalog.

Three families drive the experiments and tests:

* symmetric positive definite linear systems ``u' + A u = 0`` whose
  eigenvalues map the contraction analysis onto scalar ``z`` values,
* a low-Earth-orbit two-body problem with an analytic Lagrange-coefficient
  reference propagated in the eccentric anomaly,
* the periodic viscous Burgers equation semi-discretized with fourth-order
  compact finite differences.

Every catalog entry reduces to an :class:`IvpProblem`, the uniform contract
consumed by the time integrators: a right-hand side, an initial state, a
horizon, and optional jacobian / linear-structure / reference hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .collocation import LinearRhs
from .errors import SolverError, check_integer

# Earth gravitational parameter, km^3 / s^2.
MU_EARTH = 3.986e5

_KEPLER_R0 = (464.856, 6667.880, 574.231)  # km
_KEPLER_V0 = (-2.8381188, -0.7871898, 7.0830275)  # km/s


@dataclass(frozen=True, eq=False)
class IvpProblem:
    """An initial-value problem ``du/dt = f(t, u)``, ``u(0) = u0``.

    ``u0`` is a nonempty vector (a scalar counts as one component), and the
    state dimension ``dim`` is its size.  ``f`` evaluates a stack of
    states: ``u`` has shape ``(..., dim)``, ``t`` is a float or an array
    that broadcasts against ``u[..., :1]``, and the result is a float array
    of ``u``'s shape whose row ``i`` is ``f(t_i, u_i)``, bit for bit the
    same whatever other rows share the call (the catalog's matrix products
    go through ``_matvec`` for that), so a stacked solve gives each row the
    bits it gets alone.  The constructor checks the shape once, on two
    copies of ``u0``.

    ``jacobian`` is the optional analytic hook used by implicit stage
    solves.  It takes the same ``(t, u)`` as ``f`` and returns the stack of
    Jacobians, shape ``(..., dim, dim)``, whose entry ``i`` is the Jacobian
    of ``f`` at ``(t_i, u_i)``; the constructor checks it like ``f``.

    ``reference`` gives the exact (or high-accuracy) state when one is
    known: a time gives the state ``(dim,)``, and a 1-D array of ``n``
    times gives one state per time, ``(n, dim)``, each row the bits of its
    time's own call.  ``linear`` is a ``collocation.LinearRhs`` when the
    right-hand side is ``-A u`` with symmetric positive semidefinite ``A``,
    which lets the collocation propagator use its direct linear solve in
    the eigenbasis of ``A``; ``LinearRhs`` checks ``A`` and takes that
    eigenbasis once, when it is built, so no step rejects it.
    Any other value of ``linear`` but None raises ``TypeError``.
    The constructor rejects an ``A`` that is not ``dim x dim``, and an
    ``f`` that differs from ``-A u`` by more than 1e-12 times their
    largest entry on ``u0`` and every ``u0 + e_i`` at ``t = 0`` and on
    ``u0`` at ``t = T``: one extra ``f`` call on ``dim + 1`` states.
    """

    f: Callable[[float, np.ndarray], np.ndarray]
    u0: np.ndarray
    T: float
    reference: Callable[[float | np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    linear: LinearRhs | None = None

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        if self.linear is not None and not isinstance(self.linear, LinearRhs):
            raise TypeError(f"linear must be a LinearRhs or None (got {type(self.linear).__name__})")
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.ndim != 1 or u0.size == 0:
            raise ValueError(f"u0 must be a nonempty vector (got shape {u0.shape})")
        object.__setattr__(self, "u0", u0)
        val = self.f(np.zeros((2, 1)), np.stack((u0, u0)))
        if np.shape(val) != (2, self.dim):
            raise ValueError(f"f(t, u) on two states has shape {np.shape(val)}, expected (2, {self.dim})")
        if not np.all(np.isfinite(val)):
            raise ValueError("f(0, u0) is not finite")
        if self.linear is not None:
            A = self.linear.A
            if A.shape != (self.dim, self.dim):
                raise ValueError(f"linear matrix has shape {A.shape}, expected ({self.dim}, {self.dim})")
            # u0 and u0 + e_i at t = 0 are dim + 1 affinely independent
            # states, so an affine f that agrees there agrees everywhere;
            # u0 at t = T catches an f that also depends on time.
            u = np.concatenate(([u0], u0 + np.eye(self.dim), [u0]))
            t = np.zeros((len(u), 1))
            t[-1] = self.T
            fu = np.concatenate((val[:1], self.f(t[1:], u[1:])))
            lin = -(u @ A.T)
            scale = max(np.abs(fu).max(), np.abs(lin).max())
            if not np.max(np.abs(fu - lin)) <= 1e-12 * scale:
                raise ValueError("f disagrees with -A u of linear at u0, u0 + e_i or t = T")
        if self.jacobian is not None:
            J = self.jacobian(np.zeros((2, 1)), np.stack((u0, u0)))
            expected = (2, self.dim, self.dim)
            if np.shape(J) != expected:
                raise ValueError(f"jacobian(t, u) on two states has shape {np.shape(J)}, expected {expected}")
            if not np.all(np.isfinite(J)):
                raise ValueError("jacobian(0, u0) is not finite")

    @property
    def dim(self) -> int:
        return self.u0.size


def _matvec(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``u -> u @ A.T`` that multiplies each state of ``u`` by ``A``
    on its own.

    A state or a stack of states, ``(dim,)`` or ``(N, dim)``, takes one
    matrix-vector product per state (``np.matvec``): one matrix product over
    the stack would give a row other bits at another stack height.  A stack
    of tables, ``(N, n, dim)`` (Picard node tables, Gauss stage pairs,
    forward-difference tables), is ``u @ A.T``, which numpy multiplies one
    table at a time.  That product takes ``A.T`` copied to C order: the same
    bits as the transposed view, about 2.5 times faster on a ``(128, 9, 16)``
    stack.
    """
    At = np.ascontiguousarray(np.transpose(A))

    def apply(u):
        return np.matvec(A, u) if u.ndim <= 2 else u @ At

    return apply


# ---------------------------------------------------------------------------
# Symmetric positive definite linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpdLinearProblem:
    """Linear system ``u' + A u = 0`` with symmetric positive definite A.

    The constructor builds ``linear``, the ``LinearRhs(A)`` that checks
    ``A`` (``ValueError`` for a matrix that is not square, finite,
    symmetric and positive semidefinite) and holds its eigendecomposition,
    and rejects an ``A`` whose smallest eigenvalue there is not positive.
    ``to_ivp`` takes the reference from that decomposition and passes
    ``linear`` on, so a run decomposes ``A`` once.
    """

    A: np.ndarray
    u0: np.ndarray
    T: float
    linear: LinearRhs = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        linear = LinearRhs(self.A)
        if linear.lam[0] <= 0.0:
            raise ValueError("A must be positive definite")
        n = len(linear.A)
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.shape != (n,):
            raise ValueError(f"u0 has shape {u0.shape}, but A is {n}x{n}")
        for name, value in (("A", linear.A), ("u0", u0), ("linear", linear)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def to_ivp(self) -> IvpProblem:
        A, lam, Q = self.A, self.linear.lam, self.linear.Q
        c0 = Q.T @ self.u0

        Qc = _matvec(Q)

        def reference(t):
            return Qc(np.exp(-np.asarray(t)[..., None] * lam) * c0)

        Au = _matvec(A)

        def f(t, u):
            return -Au(u)

        neg_A = -A

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=reference,
            jacobian=lambda t, u: np.broadcast_to(neg_A, u.shape + A.shape[-1:]),
            linear=self.linear,
        )


def spd_catalog(name: str, **params) -> SpdLinearProblem:
    """Named SPD instances.

    ``diag-spectrum``: a diagonal matrix with ``m`` log-spaced eigenvalues in
    ``[lambda_min, lambda_max]``.  ``laplacian-1d``: the second-difference
    matrix of ``m`` interior unit-interval points scaled by ``1 / dx**2``.
    Unknown names or parameters, and out-of-range values, raise ValueError.
    """
    known = {"diag-spectrum", "laplacian-1d"}
    if name not in known:
        raise ValueError(f"unknown SPD problem {name!r} (expected one of {sorted(known)})")

    T = float(params.pop("T", 1.0))

    m = params.pop("m", 3 if name == "diag-spectrum" else 32)
    check_integer("m", m)
    if name == "diag-spectrum":
        lam_min = float(params.pop("lambda_min", 1.0))
        lam_max = float(params.pop("lambda_max", 100.0))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
        if not (m >= 1 and 0 < lam_min <= lam_max < math.inf):  # a NaN bound fails
            raise ValueError("need m >= 1 and 0 < lambda_min <= lambda_max < inf")
        lam = np.geomspace(lam_min, lam_max, m) if m > 1 else np.array([lam_min])
        A = np.diag(lam)
    else:
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
        if m < 1:
            raise ValueError("need m >= 1")
        dx = 1.0 / (m + 1)
        A = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)) / dx**2

    return SpdLinearProblem(A=A, u0=np.ones(m), T=T)


# ---------------------------------------------------------------------------
# Two-body orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KeplerProblem:
    """Two-body motion in low Earth orbit, first-order six-dimensional form.

    State layout is ``[x, y, z, vx, vy, vz]`` in km and km/s.  The orbit
    is fixed: it starts at ``_KEPLER_R0``, ``_KEPLER_V0`` about a body of
    gravitational parameter ``MU_EARTH``.
    """

    T: float = 50.0

    @property
    def u0(self) -> np.ndarray:
        return np.concatenate((_KEPLER_R0, _KEPLER_V0))

    def to_ivp(self) -> IvpProblem:
        mu, eye = MU_EARTH, np.eye(3)

        def f(t, u):
            r = u[..., :3]
            rn = np.sqrt((r * r).sum(axis=-1, keepdims=True))
            return np.concatenate((u[..., 3:], -mu / rn**3 * r), axis=-1)

        def jacobian(t, u):
            r = u[..., :3]
            # Each state's |r|^2 as a dot product, the sum np.linalg.norm takes.
            rn = np.sqrt(r[..., None, :] @ r[..., :, None])
            grav = mu * (3.0 * (r[..., :, None] * r[..., None, :]) / rn**5 - eye / rn**3)
            J = np.zeros(u.shape + (6,))
            J[..., :3, 3:] = eye
            J[..., 3:, :3] = grav
            return J

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=kepler_reference,
            jacobian=jacobian,
        )


#: Newton updates of Kepler's equation a time may take before it raises.
_KEPLER_MAX_ITER = 50


def kepler_reference(t) -> np.ndarray:
    """Analytic state of the ``KeplerProblem`` orbit via Lagrange coefficients.

    ``t`` is a time, giving the state ``(6,)``, or a 1-D array of times,
    giving one state per time, ``(n, 6)``; every time must be nonnegative
    and finite (``ValueError``).  The orbit is an ellipse (``alpha``, the
    inverse semi-major axis ``1 / a``, is positive), so Kepler's equation
    in the change of eccentric anomaly, ``n t = dE + s (1 - cos dE) - c sin
    dE`` with the mean motion ``n``, ``s = e sin E0`` and ``c = e cos E0``,
    is monotone: its slope ``r / a`` is at least ``1 - e`` (Battin, *An
    Introduction to the Mathematics and Methods of Astrodynamics*, 1999,
    Sec. 5.4).  Newton's
    iteration solves it for every time at once from ``dE = n t``, and a time
    leaves the iteration once its update is within a few ulps, so each row
    of a table is the bits of its time's own call.  At ``t = 0`` the update
    is 0 and the state is the start state.  The Wronskian identity
    ``F*Gdot - Fdot*G = 1`` is checked on every state.  A time still moving
    after ``_KEPLER_MAX_ITER`` updates or a failed identity raises
    ``SolverError`` naming the time.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a time or a 1-D array of times (got shape {t.shape})")
    if not ((0.0 <= t) & (t < math.inf)).all():
        raise ValueError("t must be nonnegative and finite")
    ts = np.atleast_1d(t)
    r0, v0, mu = np.array(_KEPLER_R0), np.array(_KEPLER_V0), MU_EARTH
    r0n = float(np.linalg.norm(r0))
    alpha = 2.0 / r0n - float(v0 @ v0) / mu  # inverse semi-major axis, > 0: a bound orbit
    a, n = 1.0 / alpha, math.sqrt(mu * alpha**3)
    sqrt_mu_a = math.sqrt(mu * a)
    s, c = float(r0 @ v0) / sqrt_mu_a, 1.0 - r0n / a

    mean = n * ts
    dE = mean.copy()
    live = np.arange(len(ts))
    for _ in range(_KEPLER_MAX_ITER):
        x = dE[live]
        sin, cos = np.sin(x), np.cos(x)
        step = (x + s * (1.0 - cos) - c * sin - mean[live]) / (1.0 + s * sin - c * cos)
        dE[live] = x - step
        live = live[~(np.abs(step) <= 4.0 * np.spacing(np.abs(x)))]
        if not len(live):
            break
    else:
        raise SolverError(f"Kepler's equation did not converge at t={float(ts[live[0]])!r}")

    sin, versin = np.sin(dE), 1.0 - np.cos(dE)
    F = 1.0 - a / r0n * versin
    G = ts - (dE - sin) / n
    r = F[:, None] * r0 + G[:, None] * v0
    rn = np.linalg.norm(r, axis=-1)
    Fdot = -sqrt_mu_a * sin / (rn * r0n)
    Gdot = 1.0 - a / rn * versin
    v = Fdot[:, None] * r0 + Gdot[:, None] * v0

    defect = F * Gdot - Fdot * G - 1.0
    if (bad := ~(np.abs(defect) <= 1e-10)).any():
        i = np.flatnonzero(bad)[0]
        raise SolverError(f"Lagrange coefficient identity violated at t={float(ts[i])!r}: {defect[i]:.3e}")
    states = np.concatenate((r, v), axis=-1)
    return states if t.ndim else states[0]


# ---------------------------------------------------------------------------
# Periodic Burgers equation, fourth-order compact differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BurgersProblem:
    """Semi-discrete viscous Burgers equation on the periodic grid ``[0, 2)``.

    ``A1`` approximates ``-nu * d^2/dx^2`` and ``A2`` approximates ``d/dx``;
    the semi-discrete system is ``du/dt = -A1 u - u * (A2 u)`` with the
    componentwise product.  The constructor builds the grid ``x`` (spacing
    ``dx = 2 / Nx``) and the compact-difference operators from ``nu`` and
    ``Nx``, so ``dataclasses.replace`` rebuilds them; it solves the implicit
    stencil matrices against the explicit stencils to get ``A1`` and ``A2``
    as dense read-only matrices.
    """

    nu: float
    Nx: int
    T: float = 4.0
    dx: float = field(init=False)
    x: np.ndarray = field(init=False)
    A1: np.ndarray = field(init=False)
    A2: np.ndarray = field(init=False)

    def __post_init__(self):
        Nx = self.Nx
        check_integer("Nx", Nx)
        if Nx < 4:
            raise ValueError("Nx must be >= 4")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        nu = float(self.nu)
        dx = 2.0 / Nx
        i = np.arange(Nx)
        x = i * dx
        shift = (i[:, None] - i) % Nx

        def stencil(main, sup, sub):
            # Periodic tridiagonal matrix: first column [main, sub, 0, ..., 0, sup].
            return np.concatenate(([main, sub], np.zeros(Nx - 3), [sup]))[shift]

        P1 = stencil(5.0 / 6.0, 1.0 / 12.0, 1.0 / 12.0)
        Q1 = stencil(-2.0, 1.0, 1.0)
        P2 = stencil(2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
        Q2 = stencil(0.0, 1.0, -1.0)

        A1 = -(nu / dx**2) * np.linalg.solve(P1, Q1)
        A2 = (1.0 / (2.0 * dx)) * np.linalg.solve(P2, Q2)
        for arr in (x, A1, A2):
            arr.setflags(write=False)
        for name, value in (("nu", nu), ("dx", dx), ("x", x), ("A1", A1), ("A2", A2)):
            object.__setattr__(self, name, value)

    @property
    def u0(self) -> np.ndarray:
        return burgers_exact(self, self.x, 0.0)

    def to_ivp(self) -> IvpProblem:
        A1, A2 = self.A1, self.A2
        x = self.x

        A1u, A2u = _matvec(A1), _matvec(A2)

        def f(t, u):
            # -A1 u - u * (A2 u), negated, multiplied and subtracted in place.
            out, A2_u = A1u(u), A2u(u)
            np.negative(out, out=out)
            return np.subtract(out, np.multiply(u, A2_u, out=A2_u), out=out)

        neg_A1, eye = -A1, np.eye(self.Nx)

        def jacobian(t, u):
            # -A1 - diag(A2 u) - u * A2 for each state, with A2 u one
            # matrix-vector product per state.
            return neg_A1 - (A2 @ u[..., None]) * eye - u[..., :, None] * A2

        def reference(t):
            # burgers_exact takes math.exp of each time: numpy's exp of a
            # time array differs from it in the last bit for some times.
            return np.array([burgers_exact(self, x, s) for s in t]) if np.ndim(t) else burgers_exact(self, x, t)

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=reference,
            jacobian=jacobian,
        )


def burgers_exact(problem: BurgersProblem, x, t: float):
    """Closed-form solution of the viscous Burgers test case.

    At ``t = 0`` this reduces to the initial profile; the denominator
    ``2 + decay * cos(pi x)`` stays at or above 1, so the expression is well
    defined everywhere.
    """
    x = np.asarray(x, dtype=float)
    decay = math.exp(-math.pi**2 * problem.nu * t)
    return (
        2.0 * problem.nu * math.pi * decay * np.sin(math.pi * x)
        / (2.0 + decay * np.cos(math.pi * x))
    )

