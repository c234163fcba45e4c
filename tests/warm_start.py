"""A warm coarse step as ``parareal``'s correction takes it, and a record of
the correction's row steps, for the tests."""

import numpy as np

from paracheb import parareal
from paracheb.errors import raise_row_failures


def warm_advance(spec, f, t, u, dT, guess, guess_from=None, inverse=None, jac=None):
    """A warm coarse (backward Euler) step of ``u``, one state or a stack,
    from the cached step ``guess_from`` -> ``guess`` (``u`` itself when
    None), through ``parareal._warm_steps``: ``predictor`` and ``warm_step``
    with ``inverse`` where the predictor is finite, ``_newton_start`` and
    ``warm_step`` without it elsewhere.
    ``t`` is a float or one time per row; a single state without an
    inverse steps as its one-row stack.  Returns the end states, or raises
    as ``advance`` does: a single state its own error, a stack a
    ``SweepError``."""
    u = np.asarray(u, dtype=float)
    stacked = u.ndim == 2
    U = u if stacked or inverse is not None else u[None]
    G = np.asarray(guess, dtype=float).reshape(U.shape)
    G_from = U if guess_from is None else np.asarray(guess_from, dtype=float).reshape(U.shape)
    t = np.asarray(t, dtype=float)[:, None] if np.ndim(t) else float(t)
    x, failures, _ = parareal._warm_steps(spec, f, t, U, dT, G, G_from, inverse, jac)
    raise_row_failures(failures, stacked)
    return x if stacked or U is u else x[0]


def record_row_steps(monkeypatch):
    """Record ``(spec, rows)`` of each row step of ``parareal``'s correction,
    a ``_warm_steps`` call from ``_correct``: one state (one row) or a
    batch's stack, whose rows ``_warm_steps`` steps through itself again,
    not recorded.  Returns the list; during a step its last entry is that
    step."""
    steps, depth = [], [0]
    step = parareal._warm_steps

    def recording(spec, f, t, u, *args):
        if not depth[0]:
            steps.append((spec, len(u) if np.ndim(u) == 2 else 1))
        depth[0] += 1
        try:
            return step(spec, f, t, u, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(parareal, "_warm_steps", recording)
    return steps
