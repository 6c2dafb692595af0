"""A 40-digit reference for the paper's numbers, used by the tests only.

It shares no code with mmzi: the preset splitters are written from their
exact entries, the n-photon sector matrices come from permanents summed
over permutations, and the probabilities of a Fock probe, their phase
gradients, the classical Fisher matrix and the QFIM follow in mpmath at
40 significant digits.  Float inputs (phases, per-mode controls) are taken
as exact, so the oracle is the function the package computes in floats.
"""

from functools import lru_cache
from itertools import permutations
from math import factorial

import mpmath

mp = mpmath.MPContext()  # a private context: the precision is not global state
mp.dps = 40


@lru_cache(maxsize=None)
def splitter(d):
    """The tritter (d = 3: 3^-1/2 on the diagonal, 3^-1/2 e^{2 pi i/3} off it)
    or the quarter (d = 4: 1/2 on the diagonal, -1/2 off it)."""
    diag, off = ((1 / mp.sqrt(3), mp.expjpi(mp.mpf(2) / 3) / mp.sqrt(3)) if d == 3
                 else (mp.mpf(1) / 2, mp.mpf(-1) / 2))
    return tuple(tuple(diag if i == j else off for j in range(d)) for i in range(d))


@lru_cache(maxsize=None)
def basis(d, n):
    """Occupations of n photons in d modes, lexicographic descending."""
    if d == 1:
        return ((n,),)
    return tuple((k,) + rest for k in range(n, -1, -1) for rest in basis(d - 1, n - k))


def _permanent(a):
    return mp.fsum(mp.fprod(row[j] for row, j in zip(a, s)) for s in permutations(range(len(a))))


@lru_cache(maxsize=None)
def sector(d, n):
    """<x| U |m> of the d-mode splitter on the n-photon basis, [x][m]."""
    u, states = splitter(d), basis(d, n)
    modes = [[i for i, c in enumerate(occ) for _ in range(c)] for occ in states]
    norms = [mp.sqrt(mp.fprod(factorial(c) for c in occ)) for occ in states]
    return tuple(tuple(_permanent([[u[i][j] for j in modes[m]] for i in modes[x]])
                       / (norms[x] * norms[m]) for m in range(len(states)))
                 for x in range(len(states)))


def fock_fisher(theta, unknown=(0, 1), zero_prob=0.0):
    """(p, dp, F) of one photon per mode through the preset with per-mode
    phases ``theta``; dp[x][j] is d p[x] / d theta[unknown[j]] and F sums
    dp dp^T / p over the outcomes with p >= ``zero_prob``."""
    d = len(theta)
    states, t = basis(d, d), sector(d, d)
    probe = states.index((1,) * d)
    v = [mp.expj(-mp.fsum(c * mp.mpf(th) for c, th in zip(m, theta))) * t[k][probe]
         for k, m in enumerate(states)]
    p, dp = [], []
    for row in t:
        amp = mp.fsum(a * b for a, b in zip(row, v))
        damp = [-1j * mp.fsum(m[mode] * a * b for m, a, b in zip(states, row, v)) for mode in unknown]
        p.append(abs(amp) ** 2)
        dp.append([2 * mp.re(mp.conj(amp) * g) for g in damp])
    kept = [x for x in range(len(p)) if p[x] >= zero_prob]
    f = [[mp.fsum(dp[x][i] * dp[x][j] / p[x] for x in kept) for j in range(len(unknown))]
         for i in range(len(unknown))]
    return p, dp, f


def qfim(d, occupations, unknown=(0, 1)):
    """4 x the covariance of the unknown modes' photon numbers in the Fock
    state ``occupations`` after the entrance splitter."""
    n = sum(occupations)
    states = basis(d, n)
    w = [abs(a) ** 2 for a in (row[states.index(tuple(occupations))] for row in sector(d, n))]
    mean = [mp.fsum(wk * m[i] for wk, m in zip(w, states)) for i in unknown]
    return [[4 * (mp.fsum(wk * m[i] * m[j] for wk, m in zip(w, states)) - mi * mj)
             for j, mj in zip(unknown, mean)] for i, mi in zip(unknown, mean)]


def trace_inverse(f):
    """Tr F^-1 of a 2 x 2 matrix."""
    return (f[0][0] + f[1][1]) / (f[0][0] * f[1][1] - f[0][1] * f[1][0])
