"""A warm coarse step as ``parareal``'s correction takes it, for the tests."""

import numpy as np

from paracheb import parareal
from paracheb.errors import raise_row_failures


def warm_advance(spec, f, t, u, dT, guess, guess_from=None, inverse=None, jac=None):
    """A warm ``beuler:1`` or ``tr:1`` step of ``u``, one state or a stack,
    from the cached step ``guess_from`` -> ``guess`` (``u`` itself when
    None), through ``parareal._warm_steps``: ``predictor`` and ``warm_step``
    with ``inverse`` where the predictor is finite, without it elsewhere.
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
    x, failures = parareal._warm_steps(spec, f, t, U, dT, G, G_from, inverse, jac)
    raise_row_failures(failures, stacked)
    return x if stacked or U is u else x[0]
