"""Photon-number (Fock) basis enumeration and multiphoton transition amplitudes.

Multiphoton amplitudes through a linear-optical unitary are permanents of
row/column-repeated submatrices; the permanent here uses Ryser's formula
with Gray-code subset iteration, O(2^k k) for a k x k matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def enumerate_fock_basis(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors of ``n`` photons in ``d`` modes.

    Order is lexicographic descending, e.g. (2,0), (1,1), (0,2); the
    ordering is stable and shared by every distribution in the package.
    Count is C(n+d-1, d-1).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if d == 1:
        return ((n,),)
    states = []
    for first in range(n, -1, -1):
        for rest in enumerate_fock_basis(d - 1, n - first):
            states.append((first,) + rest)
    return tuple(states)


@lru_cache(maxsize=None)
def basis_index(d: int, n: int) -> dict:
    """Occupation tuple -> position in enumerate_fock_basis(d, n)."""
    return {occ: i for i, occ in enumerate(enumerate_fock_basis(d, n))}


def permanent(m: np.ndarray) -> complex:
    """Permanent of a square complex matrix (Ryser, Gray-code order)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"permanent requires a square matrix, got shape {m.shape}")
    k = m.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    if k == 1:
        return complex(m[0, 0])
    row_sums = np.zeros(k, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for step in range(1, 1 << k):
        new_gray = step ^ (step >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            row_sums += m[:, j]
        else:
            row_sums -= m[:, j]
        # subset-size parity sets the Ryser sign
        total += (-1.0) ** new_gray.bit_count() * np.prod(row_sums)
        gray = new_gray
    return complex((-1.0) ** k * total)


def _repeat_indices(occ) -> list[int]:
    idx = []
    for i, n in enumerate(occ):
        idx.extend([i] * int(n))
    return idx


def transition_amplitude(u: np.ndarray, input_occ, output_occ) -> complex:
    """Amplitude <output| U |input> for Fock states through a mode unitary.

    Zero when total photon numbers differ.  Equals the permanent of the
    submatrix of ``u`` with row i repeated output_occ[i] times and column j
    repeated input_occ[j] times, divided by sqrt(prod n_i! prod m_j!).
    """
    u = np.asarray(u, dtype=complex)
    input_occ = tuple(int(x) for x in input_occ)
    output_occ = tuple(int(x) for x in output_occ)
    if sum(input_occ) != sum(output_occ):
        return 0.0 + 0.0j
    rows = _repeat_indices(output_occ)
    cols = _repeat_indices(input_occ)
    if not rows:
        return 1.0 + 0.0j
    sub = u[np.ix_(rows, cols)]
    norm = 1.0
    for n in input_occ + output_occ:
        norm *= factorial(n)
    return permanent(sub) / np.sqrt(norm)


# Sector matrices kept, least recently used evicted first.  The presets use
# four (u_in and u_out of the three- and four-mode circuits); an evicted
# matrix stays valid and read-only for whoever holds it.
SECTOR_CACHE_SIZE = 32
_SECTOR_CACHE: OrderedDict = OrderedDict()


def sector_unitary(u: np.ndarray, n: int) -> np.ndarray:
    """Matrix of transition amplitudes on the n-photon sector.

    Entry [x, m] is <basis[x]| U |basis[m]> with both indices running over
    enumerate_fock_basis(d, n).  Unitary whenever ``u`` is.  Results are
    memoized on the matrix bytes since sector matrices are reused heavily
    (the ``SECTOR_CACHE_SIZE`` most recently used), and returned read-only
    so that no caller can alter the cached copy.
    """
    u = np.ascontiguousarray(u, dtype=complex)
    d = u.shape[0]
    key = (u.tobytes(), d, n)
    hit = _SECTOR_CACHE.get(key)
    if hit is not None:
        _SECTOR_CACHE.move_to_end(key)
        return hit
    basis = enumerate_fock_basis(d, n)
    size = len(basis)
    out = np.empty((size, size), dtype=complex)
    for col, occ_in in enumerate(basis):
        for row, occ_out in enumerate(basis):
            out[row, col] = transition_amplitude(u, occ_in, occ_out)
    out.flags.writeable = False
    _SECTOR_CACHE[key] = out
    if len(_SECTOR_CACHE) > SECTOR_CACHE_SIZE:
        _SECTOR_CACHE.popitem(last=False)
    return out

