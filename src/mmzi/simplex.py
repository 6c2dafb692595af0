"""Nelder-Mead simplex minimization: the polish of every likelihood refit
and working point."""

from __future__ import annotations

import numpy as np


def nelder_mead(objective, x0, xatol: float, fatol: float, maxiter: int):
    """(x, fun): the best vertex [n] and ``min`` of the vertex values (NaN
    when one is NaN) once every vertex lies within ``xatol`` of the best on
    each axis and every value within ``fatol`` of its value, or after
    ``maxiter - 1`` iterations.  ``objective`` takes a float array [n] and
    returns a float.

    The steps are those of scipy 1.17.1's ``minimize(method="Nelder-Mead")``
    without bounds or adaptive parameters, operation for operation, so the
    iterates are scipy's bit for bit.  The vertices are Python floats,
    ordered by ``np.argsort`` wherever scipy orders them: tied values then
    keep scipy's order, which a stable sort would not."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).ravel().tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [float(objective(np.array(v))) for v in sim]

    def ordered():
        order = np.argsort(np.array(fsim)).tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = ordered()
    sim, fsim = ordered()  # scipy orders twice before its first iteration
    for _ in range(maxiter - 1):
        best, worst = sim[0], sim[-1]
        # ``all`` fails on a NaN difference, as scipy's np.max(...) <= tol does
        if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        xbar = sim[0]
        for v in sim[1:-1]:
            xbar = [s + a for s, a in zip(xbar, v)]
        xbar = [s / n for s in xbar]
        xr = [2 * b - w for b, w in zip(xbar, worst)]
        fxr = float(objective(np.array(xr)))
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe = float(objective(np.array(xe)))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]  # contract outside, or else inside
            xc = [1.5 * b - 0.5 * w if outside else 0.5 * b + 0.5 * w
                  for b, w in zip(xbar, worst)]
            fxc = float(objective(np.array(xc)))
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                    fsim[j] = float(objective(np.array(sim[j])))
        sim, fsim = ordered()
    return np.array(sim[0]), float(np.min(fsim))
