"""The package's Fisher numbers against the 40-digit oracle (``oracle.py``):
the paper's QFIM table, Tr F^-1 at the three- and four-mode working points,
and ``fisher_matrix`` at random points."""

import numpy as np
import pytest

import oracle
from mmzi.fisher import fisher_matrix, invert_fisher, qfim_for_probe
from mmzi.optics import four_mode_mzi, three_mode_mzi
from mmzi.probes import ZERO_PROB, Probe, build_model

THREE = three_mode_mzi()
FOUR = four_mode_mzi(0.01)


def _theta(model, phases):
    """Exact per-mode phases of ``model`` at unknown phases in [0, 2pi)."""
    theta = [oracle.mp.mpf(v) for v in model.theta_offset]
    for phase, mode in zip(phases, model.unknown_modes):
        theta[mode] += oracle.mp.mpf(phase)
    return theta


def _trace_inverse(model, phases):
    return invert_fisher(fisher_matrix(model.distribution(phases))).trace_inverse()


def _photons(d):
    """One photon in each mode, as d one-photon states of weight 1."""
    return [(1, tuple(int(k == j) for k in range(d))) for j in range(d)]


@pytest.mark.parametrize("interf,probe,states,expected", [
    (THREE, Probe.fock((1, 1, 1)), [(1, (1, 1, 1))], 0.5),
    (THREE, Probe.distinguishable((1, 1, 1)), _photons(3), 1.0),
    (THREE, Probe.coherent(np.sqrt(3.0)), [(3, (1, 0, 0))], 1.0),
    (FOUR, Probe.fock((1, 1, 1, 1)), [(1, (1, 1, 1, 1))], 0.375),
    (FOUR, Probe.distinguishable((1, 1, 1, 1)), _photons(4), 0.75),
    (FOUR, Probe.coherent(2.0), [(4, (1, 0, 0, 0))], 0.75),
])
def test_qfim_table(interf, probe, states, expected):
    # the QFIM of (weight, Fock state) pairs is the weighted sum of theirs:
    # distinguishable photons add their one-photon matrices, and coherent
    # light is alpha^2 one-photon matrices of its input mode
    parts = [(w, oracle.qfim(interf.d, occ)) for w, occ in states]
    exact = oracle.trace_inverse([[sum(w * q[i][j] for w, q in parts) for j in range(2)]
                                  for i in range(2)])
    assert abs(exact - expected) < 1e-35
    assert abs(invert_fisher(qfim_for_probe(interf, probe)).trace_inverse() - expected) < 1e-12


def test_three_mode_working_pair_trace():
    q1 = (0.8920298, 2.1908384)
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    exact = oracle.trace_inverse(oracle.fock_fisher(_theta(model, q1))[2])
    assert abs(exact - oracle.mp.mpf("0.591687044245105219533697")) < 1e-24
    assert abs(_trace_inverse(model, np.array(q1)) / exact - 1) < 1e-12


def test_four_mode_trace_at_pi_pi_under_the_zero_prob_rule():
    # the four outcomes with every photon in one mode have p = 5.86e-15 <
    # ZERO_PROB at (pi, pi): the rule drops them, which costs 1.2e-10 of
    # Tr F^-1 against the full sum
    model = build_model(FOUR, Probe.fock((1, 1, 1, 1)))
    theta = _theta(model, (np.pi, np.pi))
    p, _, ruled = oracle.fock_fisher(theta, zero_prob=ZERO_PROB)
    low = [oracle.basis(4, 4)[x] for x in range(len(p)) if p[x] < ZERO_PROB]
    assert low == [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)]
    assert all(5.85e-15 < p[x] < 5.87e-15 for x in (0, 20, 30, 34))
    exact = oracle.trace_inverse(oracle.fock_fisher(theta)[2])
    assert abs(exact - oracle.mp.mpf("0.375070319473093")) < 1e-15
    assert 1.1e-10 < oracle.trace_inverse(ruled) - exact < 1.3e-10
    assert abs(_trace_inverse(model, np.array([np.pi, np.pi])) / oracle.trace_inverse(ruled) - 1) < 1e-12


def test_fisher_matrix_at_random_points():
    # 61 points per preset with random controls; the largest error measured
    # is 1.2e-14 of the largest entry (three modes), bounded here at 1e-12
    rng = np.random.default_rng(15)
    worst = 0.0
    for interf in (THREE, FOUR):
        for _ in range(61):
            model = build_model(interf, Probe.fock((1,) * interf.d), psis=rng.uniform(-np.pi, np.pi, 2))
            phases = rng.uniform(0.0, 2.0 * np.pi, 2)
            exact = oracle.fock_fisher(_theta(model, phases), zero_prob=ZERO_PROB)[2]
            got = fisher_matrix(model.distribution(phases)).matrix
            scale = max(abs(v) for row in exact for v in row)
            error = max(abs(float(got[i, j]) - exact[i][j]) for i in range(2) for j in range(2))
            worst = max(worst, error / scale)
    assert worst < 1e-12
