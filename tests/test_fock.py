import itertools
from collections import OrderedDict
from math import comb, factorial

import numpy as np
import pytest

import mmzi.fock as fock
from mmzi.fock import (
    enumerate_fock_basis,
    permanent,
    sector_unitary,
    single_mode_sector_state,
    transition_amplitude,
)
from mmzi.optics import multiport_unitary, three_mode_mzi
from mmzi.probes import Probe, build_model


def naive_permanent(m):
    """Factorial-expansion oracle, independent of the Ryser path."""
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def test_basis_counts():
    assert len(enumerate_fock_basis(3, 3)) == 10
    assert len(enumerate_fock_basis(4, 4)) == 35
    assert enumerate_fock_basis(2, 0) == ((0, 0),)
    for d, n in [(2, 5), (3, 4), (5, 2)]:
        assert len(enumerate_fock_basis(d, n)) == comb(n + d - 1, d - 1)


def test_basis_order_lexicographic_descending():
    basis = enumerate_fock_basis(2, 2)
    assert basis == ((2, 0), (1, 1), (0, 2))
    basis3 = enumerate_fock_basis(3, 2)
    assert basis3[0] == (2, 0, 0)
    assert basis3[-1] == (0, 0, 2)
    assert list(basis3) == sorted(basis3, reverse=True)


def test_basis_totals_conserved():
    for occ in enumerate_fock_basis(4, 4):
        assert sum(occ) == 4


def test_permanent_small_cases():
    assert permanent(np.array([[3.0 + 1j]])) == 3.0 + 1j
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.isclose(permanent(m), 1 * 4 + 2 * 3)
    assert np.isclose(permanent(np.ones((3, 3))), factorial(3))


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_permanent_matches_naive_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(permanent(m) - naive_permanent(m)) < 1e-12 * max(1.0, abs(naive_permanent(m)))


def test_transition_identity():
    assert np.isclose(transition_amplitude(np.eye(3), (1, 1, 1), (1, 1, 1)), 1.0)


def test_transition_photon_number_mismatch():
    assert transition_amplitude(np.eye(2), (1, 0), (1, 1)) == 0.0


def test_hong_ou_mandel():
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert abs(transition_amplitude(bs, (1, 1), (1, 1))) < 1e-14
    # coincidence loss goes to bunched outputs with probability 1/2 each
    assert np.isclose(abs(transition_amplitude(bs, (1, 1), (2, 0))) ** 2, 0.5)


def test_tritter_bunching_probability():
    u = multiport_unitary(3, "tritter")
    amp = transition_amplitude(u, (1, 1, 1), (3, 0, 0))
    assert np.isclose(abs(amp) ** 2, 2.0 / 9.0)


def brute_force_sector_matrix(u, n):
    basis = enumerate_fock_basis(u.shape[0], n)
    out = np.empty((len(basis), len(basis)), dtype=complex)
    for c, occ_in in enumerate(basis):
        for r, occ_out in enumerate(basis):
            cols = [j for j, k in enumerate(occ_in) for _ in range(k)]
            rows = [i for i, k in enumerate(occ_out) for _ in range(k)]
            norm = np.prod([factorial(k) for k in occ_in + occ_out])
            out[r, c] = naive_permanent(u[np.ix_(rows, cols)]) / np.sqrt(norm)
    return out


@pytest.mark.parametrize(
    "u,n",
    [
        (multiport_unitary(3, "tritter"), 3),
        (multiport_unitary(4, "quarter"), 4),
    ],
)
def test_sector_unitarity(u, n):
    su = sector_unitary(u, n)
    eye = np.eye(su.shape[0])
    assert np.max(np.abs(su.conj().T @ su - eye)) < 1e-10


def test_sector_matrix_matches_brute_force():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    su = sector_unitary(q, 2)
    assert np.allclose(su, brute_force_sector_matrix(q, 2), atol=1e-12)


def test_single_mode_sector_state_matches_permanents():
    u = multiport_unitary(3, "tritter")
    for n in [1, 2, 3]:
        state = single_mode_sector_state(u, 0, n)
        basis = enumerate_fock_basis(3, n)
        probe = tuple(n if i == 0 else 0 for i in range(3))
        expected = np.array([transition_amplitude(u, probe, occ) for occ in basis])
        assert np.allclose(state, expected, atol=1e-12)
        assert np.isclose(np.linalg.norm(state), 1.0)


def test_cached_sector_matrices_are_read_only():
    u = multiport_unitary(3, "tritter")
    before = build_model(three_mode_mzi(), Probe.fock((1, 1, 1))).t_out.copy()
    su = sector_unitary(u, 3)
    with pytest.raises(ValueError):
        su[0, 0] = 99
    with pytest.raises(ValueError):
        su[:, 1] *= 2.0
    assert sector_unitary(u, 3) is su
    later = build_model(three_mode_mzi(), Probe.fock((1, 1, 1)))
    assert np.array_equal(later.t_out, before)


def test_sector_cache_evicts_the_least_recently_used_and_stays_read_only(monkeypatch):
    monkeypatch.setattr(fock, "SECTOR_CACHE_SIZE", 2)
    monkeypatch.setattr(fock, "_SECTOR_CACHE", OrderedDict())
    rng = np.random.default_rng(5)
    us = [np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
          for _ in range(3)]
    first, second = sector_unitary(us[0], 2), sector_unitary(us[1], 2)
    assert sector_unitary(us[0], 2) is first  # a hit makes us[0] the most recent
    third = sector_unitary(us[2], 2)  # evicts us[1]
    assert len(fock._SECTOR_CACHE) == 2
    assert sector_unitary(us[0], 2) is first and sector_unitary(us[2], 2) is third
    again = sector_unitary(us[1], 2)  # recomputed, evicting us[0]
    assert again is not second and again.tobytes() == second.tobytes()
    assert sector_unitary(us[0], 2) is not first
    for su in (first, second, third, again):
        assert not su.flags.writeable
        with pytest.raises(ValueError):
            su[0, 0] = 99
