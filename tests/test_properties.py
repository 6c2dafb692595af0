"""Property tests of the probability models and the information widths:
probability mass, gradients summing to zero, phase-group invariance,
Fisher additivity and the one classical Fisher sum that ``fisher_matrix``,
``fim_batch``, ``_fim_at`` and the scoring information share, including
phases near phi1 = phi2 and phi0 -> 0+."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmzi.adaptive import (
    FOUR_MODE_PHASE_GROUP,
    THREE_MODE_PHASE_GROUP,
    _joint_sigma,
    _stacked_loglik,
    sample_outcomes,
)
from mmzi.fisher import SingularSupportError, fisher_matrix
from mmzi.optics import TWO_PI, four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe, build_model

PROPERTY = settings(max_examples=15, deadline=None)
ONE_SUM = settings(max_examples=60, deadline=None)  # cheap: many examples per bit-for-bit case
phase = st.floats(-7.0, 7.0, allow_nan=False)
# generic pairs and pairs within 1e-6 of the diagonal phi1 = phi2
phases = st.one_of(
    st.tuples(phase, phase),
    st.tuples(phase, st.floats(-1e-6, 1e-6)).map(lambda t: (t[0], t[0] + t[1])),
)
phi0 = st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, TWO_PI))
presets = st.one_of(st.just(three_mode_mzi()), phi0.map(four_mode_mzi))
KINDS = ("fock", "distinguishable", "coherent")
GROUPS = {3: THREE_MODE_PHASE_GROUP, 4: FOUR_MODE_PHASE_GROUP}


def _model(interf, kind, psis):
    if kind == "coherent":
        probe = Probe.coherent(1.2)
    else:
        probe = Probe(kind, occupations=(1,) * interf.d)
    return build_model(interf, probe, psis=np.array(psis))


@PROPERTY
@given(presets, st.sampled_from(KINDS), phases, phases)
def test_probability_mass_and_gradient_sum(interf, kind, psis, phis):
    model = _model(interf, kind, psis)
    dist = model.distribution(np.mod(phis, TWO_PI))
    assert np.all(dist.probs >= -1e-14)
    assert abs(dist.probs.sum() - 1.0) <= model.mass_tol
    assert np.max(np.abs(dist.grads.sum(axis=0))) <= model.mass_tol


@PROPERTY
@given(presets, st.sampled_from(("fock", "distinguishable")), phases, phases)
def test_phase_group_shifts_leave_the_probabilities_unchanged(interf, kind, psis, phis):
    # one photon per mode; a coherent probe in one input mode has no such group
    model = _model(interf, kind, psis)
    base = model.distribution(np.mod(phis, TWO_PI)).probs
    for shift in GROUPS[interf.d]:
        shifted = model.distribution(np.mod(np.add(phis, shift), TWO_PI)).probs
        assert np.max(np.abs(shifted - base)) < 1e-12


@PROPERTY
@given(presets, st.sampled_from(KINDS), phases, phases, st.integers(1, 10),
       st.integers(0, 2**32 - 1))
def test_fisher_information_adds_over_copies(interf, kind, psis, phis, nu, seed):
    model = _model(interf, kind, psis)
    counts = sample_outcomes(model.distribution(np.mod(phis, TWO_PI)), nu, seed)
    single = _joint_sigma([(counts, model)], phis)
    assume(single is not None)
    # summing k copies rounds differently from scaling by k; the inverse
    # magnifies that by the condition number of the information matrix
    cond = np.linalg.cond(fisher_matrix(model.distribution(np.mod(phis, TWO_PI))).matrix)
    for k in range(1, 11):
        assert np.allclose(_joint_sigma([(counts, model)] * k, phis), single / np.sqrt(k),
                           rtol=1e-12 + 1e-14 * cond, atol=0.0)


def _preset(modes, phi0_value):
    return three_mode_mzi() if modes == 3 else four_mode_mzi(phi0_value)


@pytest.mark.parametrize("modes", (3, 4))
@pytest.mark.parametrize("kind", ("fock", "distinguishable"))
@ONE_SUM
@given(phi0, phases, phases)
def test_fisher_matrix_is_fim_batchs_sum_bit_for_bit(modes, kind, phi0_value, psis, phis):
    model = _model(_preset(modes, phi0_value), kind, psis)
    phis = np.array(phis)
    batch, support_bad = model.fim_batch(phis[None])
    try:
        single = fisher_matrix(model.distribution(phis)).matrix
    except SingularSupportError:
        assert support_bad[0]
        return
    assert not support_bad[0] and single.tobytes() == batch[0].tobytes()
    if kind == "fock":
        f11, f22, f12, bad = model._fim_at()(phis)
        assert not bad and np.array([f11, f12, f12, f22]).tobytes() == single.tobytes()


@pytest.mark.parametrize("modes", (3, 4))
@ONE_SUM
@given(phi0, st.lists(phases, min_size=1, max_size=4), phases, phases,
       st.integers(1, 10_000), st.integers(0, 2**32 - 1))
def test_scoring_information_is_the_count_weighted_fisher_sum_bit_for_bit(
        modes, phi0_value, controls, truth, phis, nu, seed):
    interf = _preset(modes, phi0_value)
    models = [_model(interf, "fock", psis) for psis in controls]
    rng = np.random.default_rng(seed)
    batches = [(sample_outcomes(m.distribution(truth), nu + k, rng), m) for k, m in enumerate(models)]
    want = np.zeros((2, 2))
    try:
        for counts, model in batches:
            want += counts.total * fisher_matrix(model.distribution(phis)).matrix
    except SingularSupportError:
        assume(False)
    with np.errstate(divide="ignore", invalid="ignore"):
        info = _stacked_loglik(batches)(np.array(phis))[2]
    assert info.tobytes() == want.tobytes()
