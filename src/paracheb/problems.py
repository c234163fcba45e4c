"""Test-problem catalog.

Three families drive the experiments and tests:

* symmetric positive definite linear systems ``u' + A u = g`` whose
  eigenvalues map the contraction analysis onto scalar ``z`` values,
* a low-Earth-orbit two-body problem with an analytic Lagrange-coefficient
  reference propagated in universal variables,
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
from scipy.linalg import circulant, lu_factor, lu_solve
from scipy.optimize import brentq

from .errors import SolverError

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
    of ``u``'s shape whose row ``i`` is ``f(t_i, u_i)``.  The constructor
    checks this once, on two copies of ``u0``.  The forcing ``g(t)`` of
    ``linear`` follows the same rule.

    ``jacobian`` is the optional analytic hook used by implicit stage
    solves.  It takes the same ``(t, u)`` as ``f`` and returns the stack of
    Jacobians, shape ``(..., dim, dim)``, whose entry ``i`` is the Jacobian
    of ``f`` at ``(t_i, u_i)``; the constructor checks it like ``f``.

    ``reference`` maps a time to the exact (or high-accuracy) state when one
    is known.  ``linear`` carries ``(A, g)`` when the right-hand side has
    the form ``g(t) - A u`` with symmetric ``A``, which lets the collocation
    propagator use its direct linear solve in the eigenbasis of ``A`` (a
    non-symmetric ``A`` there raises ValueError).  The constructor rejects
    an ``A`` that is not ``dim x dim``, and an ``f`` that differs from
    ``g(t) - A u`` by more than 1e-12 times their largest entry on ``u0``
    and every ``u0 + e_i`` at ``t = 0`` and on ``u0`` at ``t = T``: one
    extra ``f`` call on ``dim + 1`` states.
    """

    f: Callable[[float, np.ndarray], np.ndarray]
    u0: np.ndarray
    T: float
    reference: Callable[[float], np.ndarray] | None = None
    jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    linear: tuple[np.ndarray, Callable[[float], np.ndarray] | None] | None = None

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
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
            A, g = self.linear
            if np.shape(A) != (self.dim, self.dim):
                raise ValueError(f"linear matrix has shape {np.shape(A)}, expected ({self.dim}, {self.dim})")
            # u0 and u0 + e_i at t = 0 are dim + 1 affinely independent
            # states, so an affine f that agrees there agrees everywhere;
            # u0 at t = T checks the forcing at a second time.
            u = np.concatenate(([u0], u0 + np.eye(self.dim), [u0]))
            t = np.zeros((len(u), 1))
            t[-1] = self.T
            fu = np.concatenate((val[:1], self.f(t[1:], u[1:])))
            lin = -(u @ np.transpose(A))
            if g is not None:
                lin = g(t) + lin
            scale = max(np.abs(fu).max(), np.abs(lin).max())
            if not np.max(np.abs(fu - lin)) <= 1e-12 * scale:
                raise ValueError("f disagrees with g(t) - A u of linear at u0, u0 + e_i or t = T")
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


# ---------------------------------------------------------------------------
# Symmetric positive definite linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpdLinearProblem:
    """Linear system ``u' + A u = g(t)`` with symmetric positive definite A."""

    A: np.ndarray
    u0: np.ndarray
    T: float
    g: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0.0:
            raise ValueError("A must be positive definite")
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.shape != (len(A),):
            raise ValueError(f"u0 has shape {u0.shape}, but A is {len(A)}x{len(A)}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u0", u0)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def to_ivp(self) -> IvpProblem:
        A, g = self.A, self.g
        reference = None
        if g is None:
            lam, Q = np.linalg.eigh(A)
            c0 = Q.T @ self.u0

            def reference(t):
                return Q @ (np.exp(-lam * t) * c0)

        def f(t, u):
            return -(u @ A.T) if g is None else g(t) - u @ A.T

        neg_A = -A

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=reference,
            jacobian=lambda t, u: np.broadcast_to(neg_A, u.shape + A.shape[-1:]),
            linear=(A, g),
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
    u0 = params.pop("u0", None)

    if name == "diag-spectrum":
        m = int(params.pop("m", 3))
        lam_min = float(params.pop("lambda_min", 1.0))
        lam_max = float(params.pop("lambda_max", 100.0))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
        if not (m >= 1 and 0 < lam_min <= lam_max < math.inf):  # a NaN bound fails
            raise ValueError("need m >= 1 and 0 < lambda_min <= lambda_max < inf")
        lam = np.geomspace(lam_min, lam_max, m) if m > 1 else np.array([lam_min])
        A = np.diag(lam)
    else:
        m = int(params.pop("m", 32))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
        if m < 1:
            raise ValueError("need m >= 1")
        dx = 1.0 / (m + 1)
        A = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)) / dx**2

    u0 = np.ones(m) if u0 is None else np.atleast_1d(np.asarray(u0, dtype=float))
    return SpdLinearProblem(A=A, u0=u0, T=T)


# ---------------------------------------------------------------------------
# Two-body orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KeplerProblem:
    """Two-body motion in low Earth orbit, first-order six-dimensional form.

    State layout is ``[x, y, z, vx, vy, vz]`` in km and km/s.
    """

    mu: float = MU_EARTH
    r0: np.ndarray = field(default_factory=lambda: np.array(_KEPLER_R0))
    v0: np.ndarray = field(default_factory=lambda: np.array(_KEPLER_V0))
    T: float = 50.0

    @property
    def u0(self) -> np.ndarray:
        return np.concatenate((np.asarray(self.r0, float), np.asarray(self.v0, float)))

    def to_ivp(self) -> IvpProblem:
        mu = self.mu

        def f(t, u):
            r = u[..., :3]
            rn = np.sqrt((r * r).sum(axis=-1, keepdims=True))
            return np.concatenate((u[..., 3:], -mu / rn**3 * r), axis=-1)

        def jacobian(t, u):
            r = u[..., :3]
            # Each state's |r|^2 as a dot product, the sum np.linalg.norm takes.
            rn = np.sqrt(r[..., None, :] @ r[..., :, None])
            grav = mu * (3.0 * (r[..., :, None] * r[..., None, :]) / rn**5 - np.eye(3) / rn**3)
            J = np.zeros(u.shape + (6,))
            J[..., :3, 3:] = np.eye(3)
            J[..., 3:, :3] = grav
            return J

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=lambda t: kepler_reference(self, t),
            jacobian=jacobian,
        )


def _stumpff(z: float) -> tuple[float, float]:
    """Stumpff functions C(z) and S(z), series-evaluated near zero."""
    if abs(z) < 1e-6:
        C = 1.0 / 2.0 - z / 24.0 + z * z / 720.0 - z**3 / 40320.0
        S = 1.0 / 6.0 - z / 120.0 + z * z / 5040.0 - z**3 / 362880.0
        return C, S
    if z > 0:
        sz = math.sqrt(z)
        return (1.0 - math.cos(sz)) / z, (sz - math.sin(sz)) / sz**3
    sz = math.sqrt(-z)
    return (math.cosh(sz) - 1.0) / (-z), (math.sinh(sz) - sz) / sz**3


def kepler_reference(problem: KeplerProblem, t: float) -> np.ndarray:
    """Analytic state at time ``t`` via Lagrange coefficients.

    Solves the universal-variable Kepler equation for the anomaly by Brent's
    method (``scipy.optimize.brentq``; the time residual is monotone in the
    anomaly, so a bracket is always available), then combines the initial
    position and velocity with the F and G coefficients.  The Wronskian
    identity ``F*Gdot - Fdot*G = 1`` is verified before returning.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    r0 = np.asarray(problem.r0, dtype=float)
    v0 = np.asarray(problem.v0, dtype=float)
    mu = problem.mu
    if t == 0.0:
        return np.concatenate((r0, v0))

    r0n = float(np.linalg.norm(r0))
    vr0 = float(r0 @ v0) / r0n
    alpha = 2.0 / r0n - float(v0 @ v0) / mu  # inverse semi-major axis
    sqrt_mu = math.sqrt(mu)

    def residual(chi: float) -> float:
        z = alpha * chi * chi
        C, S = _stumpff(z)
        return (
            r0n * vr0 / sqrt_mu * chi * chi * C
            + (1.0 - alpha * r0n) * chi**3 * S
            + r0n * chi
            - sqrt_mu * t
        )

    chi = sqrt_mu * abs(alpha) * t if abs(alpha) > 1e-12 else sqrt_mu * t / r0n

    # Expand a sign-changing bracket from the guess; residual(0) < 0 for t > 0.
    hi = max(chi, 1.0)
    while residual(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise SolverError("failed to bracket the universal Kepler equation")

    # brentq's smallest rtol (4 ulp) decides; its default xtol of 2e-12
    # would stop chi up to that far off, ~1.6e-10 km of position.
    chi, info = brentq(
        residual, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, full_output=True, disp=False
    )
    if not info.converged:
        raise SolverError(f"universal Kepler equation did not converge at t={t!r}")

    z = alpha * chi * chi
    C, S = _stumpff(z)
    F = 1.0 - chi * chi * C / r0n
    G = t - chi**3 * S / sqrt_mu
    r = F * r0 + G * v0
    rn = float(np.linalg.norm(r))
    Fdot = sqrt_mu / (rn * r0n) * chi * (z * S - 1.0)
    Gdot = 1.0 - chi * chi * C / rn
    v = Fdot * r0 + Gdot * v0

    wronskian = F * Gdot - Fdot * G
    if abs(wronskian - 1.0) > 1e-10:
        raise SolverError(f"Lagrange coefficient identity violated: {wronskian - 1.0:.3e}")
    return np.concatenate((r, v))


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
    ``Nx``, so ``dataclasses.replace`` rebuilds them; it factors the implicit
    stencil matrices once and applies them to the explicit stencils to get
    ``A1`` and ``A2`` as dense read-only matrices.
    """

    nu: float
    Nx: int
    alpha: float = 2.0
    T: float = 4.0
    dx: float = field(init=False)
    x: np.ndarray = field(init=False)
    A1: np.ndarray = field(init=False)
    A2: np.ndarray = field(init=False)

    def __post_init__(self):
        Nx = self.Nx
        if Nx < 4:
            raise ValueError("Nx must be >= 4")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        nu = float(self.nu)
        dx = 2.0 / Nx
        x = np.arange(Nx) * dx

        def stencil(main, sup, sub):
            # Periodic tridiagonal matrix: first column [main, sub, 0, ..., 0, sup].
            return circulant(np.concatenate(([main, sub], np.zeros(Nx - 3), [sup])))

        P1 = stencil(5.0 / 6.0, 1.0 / 12.0, 1.0 / 12.0)
        Q1 = stencil(-2.0, 1.0, 1.0)
        P2 = stencil(2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
        Q2 = stencil(0.0, 1.0, -1.0)

        A1 = -(nu / dx**2) * lu_solve(lu_factor(P1), Q1)
        A2 = (1.0 / (2.0 * dx)) * lu_solve(lu_factor(P2), Q2)
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

        def f(t, u):
            return -(u @ A1.T) - u * (u @ A2.T)

        neg_A1, eye = -A1, np.eye(self.Nx)

        def jacobian(t, u):
            # -A1 - diag(A2 u) - u * A2 for each state, with A2 u one
            # matrix-vector product per state.
            return neg_A1 - (A2 @ u[..., None]) * eye - u[..., :, None] * A2

        return IvpProblem(
            f=f,
            u0=self.u0,
            T=self.T,
            reference=lambda t: burgers_exact(self, x, t),
            jacobian=jacobian,
        )


def burgers_exact(problem: BurgersProblem, x, t: float):
    """Closed-form solution of the viscous Burgers test case.

    At ``t = 0`` this reduces to the initial profile; the denominator stays
    at or above ``alpha - 1`` so the expression is well defined everywhere.
    """
    x = np.asarray(x, dtype=float)
    decay = math.exp(-math.pi**2 * problem.nu * t)
    return (
        2.0 * problem.nu * math.pi * decay * np.sin(math.pi * x)
        / (problem.alpha + decay * np.cos(math.pi * x))
    )

