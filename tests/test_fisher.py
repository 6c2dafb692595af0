import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import gammaln

from mmzi.fisher import (
    COND_THRESHOLD,
    DET_THRESHOLD,
    FisherMatrix,
    SingularSupportError,
    entanglement_witness,
    fisher_matrix,
    invert_fisher,
    mmzi_separable_spec,
    qfim_for_probe,
    qfim_pure,
    separable_bounds,
)
from mmzi.fock import enumerate_fock_basis, transition_amplitude
from mmzi.optics import TWO_PI, four_mode_mzi, three_mode_mzi
from mmzi.probes import OutcomeDistribution, Probe, build_model

THREE = three_mode_mzi()
FOUR = four_mode_mzi(0.001)

Q1 = np.array([0.8920298, 2.1908384])

PAPER_PROBES = [
    (THREE, Probe.fock((1, 1, 1))),
    (THREE, Probe.distinguishable((1, 1, 1))),
    (FOUR, Probe.fock((1, 1, 1, 1))),
    (FOUR, Probe.distinguishable((1, 1, 1, 1))),
]


def synthetic_distribution(probs, grads):
    return OutcomeDistribution(
        outcomes=tuple((k,) for k in range(len(probs))),
        probs=np.asarray(probs, dtype=float),
        grads=np.asarray(grads, dtype=float),
    )


def test_fim_zero_for_phase_independent():
    dist = synthetic_distribution([0.5, 0.5], [[0.0], [0.0]])
    assert np.allclose(fisher_matrix(dist).matrix, 0.0)


def test_fim_two_outcome_interferometer():
    # p = (cos^2(phi/2), sin^2(phi/2)) gives unit information for any phi
    for phi in [0.3, 1.2, 2.7]:
        p = np.array([np.cos(phi / 2) ** 2, np.sin(phi / 2) ** 2])
        dp = np.array([[-np.sin(phi) / 2], [np.sin(phi) / 2]])
        f = fisher_matrix(synthetic_distribution(p, dp))
        assert np.isclose(f.matrix[0, 0], 1.0, atol=1e-12)


def test_fim_singular_support_error():
    dist = synthetic_distribution([0.0, 1.0], [[0.5], [-0.5]])
    with pytest.raises(SingularSupportError):
        fisher_matrix(dist)
    # outcome (1,) is below ZERO_PROB with a vanishing gradient and is
    # dropped; the message names (2,), which makes the information diverge
    dist = synthetic_distribution([0.6, 1e-15, 1e-15, 0.4],
                                  [[0.1], [1e-12], [-0.3], [0.2]])
    with pytest.raises(SingularSupportError, match=r"^outcome \(2,\) has probability 1\.000e-15 "
                                                   r"with gradient 3\.000e-01$"):
        fisher_matrix(dist)


def test_fim_drops_removable_zero_outcomes():
    dist = synthetic_distribution([0.0, 0.4, 0.6], [[0.0], [0.2], [-0.2]])
    f = fisher_matrix(dist)
    assert np.isclose(f.matrix[0, 0], 0.04 / 0.4 + 0.04 / 0.6)


def test_fim_diag_at_first_working_point():
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    f = fisher_matrix(model.distribution(Q1))
    inv = invert_fisher(f)
    diag = sorted(np.diag(inv.inverse))
    assert abs(diag[0] - 0.282) < 0.001
    assert abs(diag[1] - 0.309) < 0.001
    assert abs(np.trace(inv.inverse) - 0.5917) < 0.001


def test_invert_identity_and_diagonal():
    inv = invert_fisher(FisherMatrix(np.eye(2)))
    assert not inv.singular
    assert np.allclose(inv.inverse, np.eye(2))
    inv2 = invert_fisher(FisherMatrix(np.diag([4.0, 2.0])))
    assert np.allclose(inv2.inverse, np.diag([0.25, 0.5]))


def test_invert_singular_verdict():
    inv = invert_fisher(FisherMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert inv.singular
    assert inv.inverse is None
    assert abs(inv.det) < 1e-12
    with pytest.raises(ValueError):
        inv.trace_inverse()


@pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan), [[np.inf, 0.0], [0.0, 1.0]],
                                    [[1.0, np.nan], [np.nan, 1.0]], [[-np.inf, 0.0], [0.0, -np.inf]]])
def test_a_non_finite_matrix_inverts_as_singular_and_is_no_fisher_matrix(matrix):
    # such a matrix has a NaN condition number; np.linalg.inv would give
    # [[inf, 0], [0, 1]] the confident "inverse" [[0, 0], [0, 1]]
    with np.errstate(invalid="ignore"):
        inv = invert_fisher(np.array(matrix))
    assert inv.singular and inv.inverse is None
    with pytest.raises(ValueError, match="finite"):
        FisherMatrix(np.array(matrix))


def test_singular_verdict_of_finite_matrices_is_the_threshold_comparison():
    # the NaN-safe verdict is (cond >= threshold) or (|det| < threshold) for
    # every finite matrix, at and around both thresholds
    eps = np.finfo(float).eps
    matrices = [np.eye(2), np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]], np.diag([1.0, -1.0]),
                np.diag([1.0, 1.0 / COND_THRESHOLD]), np.diag([1.0, (1 + 4 * eps) / COND_THRESHOLD]),
                np.diag([1.0, DET_THRESHOLD]), np.diag([1.0, (1 - 4 * eps) * DET_THRESHOLD]),
                np.diag([1e-7, 1e-5]), np.diag([1e-6, 1e-6])]
    rng = np.random.default_rng(3)
    matrices += [a @ a.T for a in rng.normal(size=(20, 2, 2))]
    for m in matrices:
        inv = invert_fisher(np.array(m))
        assert inv.singular == ((inv.cond >= COND_THRESHOLD) or (abs(inv.det) < DET_THRESHOLD))
        assert (inv.inverse is None) == inv.singular


def test_invert_singular_at_white_region_point():
    # the zero-phase point of the triple-Fock landscape has det F = 0 exactly
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    f = fisher_matrix(model.distribution([0.0, 0.0]))
    inv = invert_fisher(f)
    assert inv.singular
    assert abs(inv.det) < 1e-12


def test_qfim_requires_normalized_state():
    basis = enumerate_fock_basis(3, 1)
    with pytest.raises(ValueError):
        qfim_pure(np.array([1.0, 1.0, 0.0]), basis, (0, 1))


@pytest.mark.parametrize(
    "interf,probe,expected",
    [
        (THREE, Probe.fock((1, 1, 1)), 0.5),
        (THREE, Probe.distinguishable((1, 1, 1)), 1.0),
        (THREE, Probe.coherent(np.sqrt(3.0)), 1.0),
        (FOUR, Probe.fock((1, 1, 1, 1)), 0.375),
        (FOUR, Probe.distinguishable((1, 1, 1, 1)), 0.75),
        (FOUR, Probe.coherent(2.0), 0.75),
    ],
)
def test_qfim_trace_inverse_table(interf, probe, expected):
    fq = qfim_for_probe(interf, probe)
    assert abs(invert_fisher(fq).trace_inverse() - expected) < 1e-6


def test_distinguishable_qfim_closed_form():
    fq = qfim_for_probe(THREE, Probe.distinguishable((1, 1, 1)))
    expected = (4.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(fq.matrix, expected, atol=1e-12)


def sector_qfim_of_product_photons(interf, occupations):
    """The sector formula the closed form replaced: one pure-state QFIM of
    U_in |one photon in mode k> per photon, summed in mode order."""
    basis = enumerate_fock_basis(interf.d, 1)
    modes = interf.unknown_modes
    total = np.zeros((len(modes), len(modes)))
    for mode, count in enumerate(occupations):
        if count == 0:
            continue
        state = np.array([transition_amplitude(interf.u_in, basis[mode], occ)
                          for occ in basis])
        total += count * qfim_pure(state, basis, modes).matrix
    return total


def one_mode_sector_state(u, mode, n):
    """U |n photons in ``mode``> over the n-photon basis: the product-state
    multinomial sqrt(n! / prod x_i!) prod_i u[i, mode]^x_i."""
    occ = np.array(enumerate_fock_basis(u.shape[0], n))
    log_norm = 0.5 * (gammaln(n + 1) - gammaln(occ + 1).sum(axis=1))
    return np.exp(log_norm) * np.prod(u[:, mode] ** occ, axis=1)


def poisson_sector_mixture_qfim(interf, alpha, mode):
    """Poisson-weighted sum of the pure-sector QFIMs of a coherent probe
    without a phase reference, cut where the Poisson tail is below 1e-16."""
    mean = alpha**2
    n_max = int(sps.poisson.isf(1e-16, mean)) + 1
    total = 0.0
    for n in range(n_max + 1):
        state = one_mode_sector_state(interf.u_in, mode, n)
        basis = enumerate_fock_basis(interf.d, n)
        total = total + sps.poisson.pmf(n, mean) * qfim_pure(state, basis, interf.unknown_modes).matrix
    return total


def test_one_mode_sector_state_matches_permanents():
    # the sector states that the Poisson mixture below is built from
    u = THREE.u_in
    for n, mode in itertools.product([1, 2, 3], range(3)):
        basis = enumerate_fock_basis(3, n)
        probe = tuple(n if i == mode else 0 for i in range(3))
        expected = np.array([transition_amplitude(u, probe, occ) for occ in basis])
        state = one_mode_sector_state(u, mode, n)
        assert np.allclose(state, expected, atol=1e-12)
        assert np.isclose(np.linalg.norm(state), 1.0)


@pytest.mark.parametrize(
    "interf,occupations",
    [(THREE, (1, 1, 1)), (THREE, (2, 0, 1)), (THREE, (0, 3, 1)),
     (FOUR, (1, 1, 1, 1)), (FOUR, (2, 0, 1, 0)), (FOUR, (0, 3, 0, 1))],
)
def test_distinguishable_qfim_is_the_sector_formula_bit_for_bit(interf, occupations):
    fq = qfim_for_probe(interf, Probe.distinguishable(occupations)).matrix
    assert np.array_equal(fq, sector_qfim_of_product_photons(interf, occupations))


@pytest.mark.parametrize("alpha", [0.5, np.sqrt(3.0), 2.0])
@pytest.mark.parametrize("interf", [THREE, FOUR])
def test_coherent_qfim_is_the_poisson_sector_mixture(interf, alpha):
    for mode in range(interf.d):
        fq = qfim_for_probe(interf, Probe.coherent(alpha, input_mode=mode)).matrix
        mixture = poisson_sector_mixture_qfim(interf, alpha, mode)
        assert np.max(np.abs(fq - mixture)) <= 1e-10 * np.max(np.abs(mixture))


@pytest.mark.parametrize(
    "interf,alpha,expected", [(THREE, np.sqrt(3.0), 1.0), (FOUR, 2.0, 0.75)]
)
def test_coherent_qfim_trace_inverse_is_exact(interf, alpha, expected):
    fq = qfim_for_probe(interf, Probe.coherent(alpha))
    assert abs(invert_fisher(fq).trace_inverse() - expected) <= 1e-15


def coherent_classical_fim(interf, alpha, mode, phis):
    """Independent Poisson counts with means mu_i = |beta_i|^2, where
    beta = alpha U(phis) e_mode: F = sum_i dmu_i dmu_i^T / mu_i."""
    u = interf.unitary(phis)
    beta = alpha * u[:, mode]
    # d U / d phi_j = u_out (-i P_m) diag(e^-i theta) u_in, with m the j-th unknown mode
    inner = interf.u_out.conj().T @ u[:, mode]
    dbeta = np.stack([-1j * alpha * interf.u_out[:, m] * inner[m]
                      for m in interf.unknown_modes], axis=1)
    dmu = 2.0 * (beta.conj()[:, None] * dbeta).real
    keep = np.abs(beta) > 0  # a dark mode has dmu = 0 too
    return (dmu[keep] / np.abs(beta[keep, None]) ** 2).T @ dmu[keep]


@pytest.mark.parametrize("interf,alpha", [(THREE, np.sqrt(3.0)), (FOUR, 2.0)])
def test_coherent_classical_fim_helper_matches_the_model(interf, alpha):
    points = np.random.default_rng(3).uniform(0, TWO_PI, (5, 2))
    for mode in range(interf.d):
        model = build_model(interf, Probe.coherent(alpha, input_mode=mode))
        f_model, _ = model.fim_batch(points)
        for point, expected in zip(points, f_model):
            got = coherent_classical_fim(interf, alpha, mode, point)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([THREE, FOUR]), st.floats(0.05, 10.0), st.integers(0, 3),
       st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)))
def test_coherent_qfim_is_alpha_squared_one_photons_and_bounds_the_counts(
        interf, alpha, mode, phis):
    mode %= interf.d
    fq = qfim_for_probe(interf, Probe.coherent(alpha, input_mode=mode)).matrix
    e_mode = tuple(int(i == mode) for i in range(interf.d))
    one = qfim_for_probe(interf, Probe.distinguishable(e_mode)).matrix
    np.testing.assert_allclose(fq, alpha**2 * one, rtol=1e-14, atol=0.0)
    f = coherent_classical_fim(interf, alpha, mode, np.array(phis))
    assert np.min(np.linalg.eigvalsh(fq - f)) >= -1e-9 * alpha**2


def test_separable_bound_values():
    b3 = separable_bounds(mmzi_separable_spec(3, 2))
    assert np.allclose(b3.f_jj_max, 3.0)
    assert np.allclose(b3.inv_diag_min, 1.0 / 3.0)
    assert abs(b3.trace_min - 2.0 / 3.0) < 1e-12
    b4 = separable_bounds(mmzi_separable_spec(4, 2))
    assert abs(b4.trace_min - 0.5) < 1e-12
    assert np.allclose(b4.inv_diag_min, 0.25)
    b1 = separable_bounds(mmzi_separable_spec(1, 1))
    assert np.allclose(b1.f_jj_max, 1.0)
    # coherent light is bounded at its mean photon number alpha^2
    b_quarter = separable_bounds(mmzi_separable_spec(0.25, 2))
    assert np.array_equal(b_quarter.f_jj_max, [0.25, 0.25])
    assert b_quarter.trace_min == 8.0
    for bad in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="need N > 0"):
            mmzi_separable_spec(bad, 2)


def test_witness_flags_entangled_fock_probe():
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    f = fisher_matrix(model.distribution(Q1))
    verdict = entanglement_witness(f, mmzi_separable_spec(3, 2))
    assert verdict.trace_violation
    assert all(verdict.inv_diag_violation)
    assert verdict.entangled


def test_witness_zero_matrix_no_violation():
    verdict = entanglement_witness(
        FisherMatrix(np.zeros((2, 2))), mmzi_separable_spec(3, 2)
    )
    assert verdict.fjj_violation == (False, False)
    assert verdict.trace_violation is None  # zero matrix is singular
    assert not verdict.entangled


def test_witness_singular_still_reports_fjj():
    f = FisherMatrix(np.array([[5.0, 5.0], [5.0, 5.0]]))
    verdict = entanglement_witness(f, mmzi_separable_spec(3, 2))
    assert verdict.trace_violation is None
    assert verdict.fjj_violation == (True, True)
    assert verdict.entangled


def test_witness_rejects_quantum_matrix():
    with pytest.raises(ValueError):
        entanglement_witness(
            FisherMatrix(np.eye(2), kind="quantum"), mmzi_separable_spec(3, 2)
        )


@pytest.mark.parametrize("interf,probe", PAPER_PROBES)
def test_cauchy_schwarz_chain(interf, probe):
    rng = np.random.default_rng(17)
    model = build_model(interf, probe)
    for _ in range(40):
        f = fisher_matrix(model.distribution(rng.uniform(0, 2 * np.pi, 2)))
        inv = invert_fisher(f)
        if inv.singular:
            continue
        for j in range(2):
            assert inv.inverse[j, j] * f.matrix[j, j] >= 1.0 - 1e-9


@pytest.mark.parametrize("interf,probe", PAPER_PROBES)
def test_classical_bounded_by_quantum(interf, probe):
    rng = np.random.default_rng(23)
    model = build_model(interf, probe)
    fq = qfim_for_probe(interf, probe).matrix
    for _ in range(100):
        f = fisher_matrix(model.distribution(rng.uniform(0, 2 * np.pi, 2))).matrix
        # diagonal bound
        assert np.all(np.diag(f) <= np.diag(fq) + 1e-9)
        # matrix bound
        assert np.min(np.linalg.eigvalsh(fq - f)) >= -1e-9


def test_variance_bound_on_qfim_diagonal():
    basis = enumerate_fock_basis(3, 3)
    occ = np.array(basis, dtype=float)
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        state = z / np.linalg.norm(z)
        fq = qfim_pure(state, basis, (0, 1)).matrix
        w = np.abs(state) ** 2
        for j, mode in enumerate((0, 1)):
            var = w @ occ[:, mode] ** 2 - (w @ occ[:, mode]) ** 2
            assert fq[j, j] <= 4.0 * var + 1e-9


def test_qfim_additivity_on_product_states():
    # N independent single photons: QFIM is the sum of the single-photon ones
    single = qfim_for_probe(THREE, Probe.distinguishable((1, 0, 0))).matrix
    single2 = qfim_for_probe(THREE, Probe.distinguishable((0, 1, 0))).matrix
    single3 = qfim_for_probe(THREE, Probe.distinguishable((0, 0, 1))).matrix
    total = qfim_for_probe(THREE, Probe.distinguishable((1, 1, 1))).matrix
    assert np.allclose(total, single + single2 + single3, atol=1e-10)


def test_saturation_for_scalar_matrix():
    f = FisherMatrix(2.5 * np.eye(3))
    inv = invert_fisher(f)
    for j in range(3):
        assert np.isclose(inv.inverse[j, j] * f.matrix[j, j], 1.0)
