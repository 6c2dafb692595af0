"""Property tests of the probability models and the information widths:
probability mass, gradients summing to zero, phase-group invariance and
Fisher additivity, including phases near phi1 = phi2 and phi0 -> 0+."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmzi.adaptive import (
    FOUR_MODE_PHASE_GROUP,
    THREE_MODE_PHASE_GROUP,
    _joint_sigma,
    sample_outcomes,
)
from mmzi.fisher import fisher_matrix
from mmzi.optics import TWO_PI, four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe, build_model

PROPERTY = settings(max_examples=15, deadline=None)
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
