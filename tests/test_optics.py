import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmzi.optics import (
    TWO_PI,
    Interferometer,
    four_mode_mzi,
    multiport_unitary,
    three_mode_mzi,
    unitarity_defect,
)
from mmzi.probes import Probe, build_model

PROPERTY = settings(max_examples=25, deadline=None)
phase = st.floats(-20.0, 20.0, allow_nan=False)
phase_pair = st.tuples(phase, phase)
presets = st.one_of(st.just(three_mode_mzi()), phase.map(four_mode_mzi))


def test_tritter_matrix_entries():
    u = multiport_unitary(3, "tritter")
    assert np.allclose(np.diag(u), 1 / np.sqrt(3))
    off = u[0, 1]
    assert np.isclose(off, np.exp(2j * np.pi / 3) / np.sqrt(3))
    # all off-diagonal entries identical
    mask = ~np.eye(3, dtype=bool)
    assert np.allclose(u[mask], off)
    # flat intensity
    assert np.allclose(np.abs(u) ** 2, 1 / 3)


def test_quarter_matrix_entries():
    u = multiport_unitary(4, "quarter")
    assert np.allclose(np.diag(u), 0.5)
    mask = ~np.eye(4, dtype=bool)
    assert np.allclose(u[mask], -0.5)


@pytest.mark.parametrize("d,kind", [(3, "tritter"), (4, "quarter")])
def test_multiport_unitarity(d, kind):
    assert unitarity_defect(multiport_unitary(d, kind)) < 1e-12


@pytest.mark.parametrize("d,kind", [(2, "tritter"), (3, "quarter"), (5, "tritter")])
def test_multiport_rejects_unsupported(d, kind):
    with pytest.raises(ValueError):
        multiport_unitary(d, kind)


def test_phase_layer_identity_at_zero():
    eye = np.eye(3, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    assert np.array_equal(interf.control_phases(), np.zeros(3))
    assert np.array_equal(interf.control_phases([0.0, 0.0]), np.zeros(3))
    assert np.allclose(interf.unitary([0.0, 0.0]), np.eye(3))


def test_phase_layer_single_entry():
    eye = np.eye(3, dtype=complex)
    layer = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1)).unitary([np.pi, 0.0])
    assert np.isclose(layer[0, 0], np.exp(-1j * np.pi))
    assert np.isclose(layer[1, 1], 1.0)
    assert np.isclose(layer[2, 2], 1.0)


def test_phase_layer_control_on_third_mode():
    eye = np.eye(4, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1),
                            fixed_controls=((2, 0.01),))
    layer = interf.unitary([0.0, 0.0])
    assert np.isclose(layer[2, 2], np.exp(-1j * 0.01))
    assert np.isclose(layer[3, 3], 1.0)


def test_phase_layer_duplicate_index_rejected():
    eye = np.eye(3, dtype=complex)
    for kwargs in [
        {"unknown_modes": (0, 0)},
        {"unknown_modes": (0, 1), "fixed_controls": ((1, 0.2),)},  # a control on an unknown mode
        {"unknown_modes": (0, 1), "fixed_controls": ((2, 0.1), (2, 0.2))},
        {"unknown_modes": (0, 3)},  # out of range
        {"unknown_modes": (0, 1), "fixed_controls": ((-1, 0.1),)},
    ]:
        with pytest.raises(ValueError):
            Interferometer(u_in=eye, u_out=eye, **kwargs)


@PROPERTY
@given(presets, phase_pair)
def test_phase_values_reduced_mod_2pi(interf, psis):
    theta = interf.control_phases(psis)
    assert np.all((theta >= 0.0) & (theta < TWO_PI))
    expected = np.zeros(interf.d)
    for mode, value in interf.fixed_controls:
        expected[mode] = value
    expected[list(interf.unknown_modes)] = psis
    assert np.allclose(np.exp(-1j * theta), np.exp(-1j * expected), atol=1e-12)
    theta = four_mode_mzi(0.05).control_phases([2 * np.pi + 0.5, -0.25])
    assert np.allclose(theta, [0.5, 2 * np.pi - 0.25, 0.05, 0.0])


def test_tiny_negative_controls_reduce_to_zero():
    # float(v) % 2pi is exactly 2pi for v in about (-4.5e-16, 0)
    for interf in (three_mode_mzi(), four_mode_mzi(0.3)):
        for tiny in (-1e-100, -2.7e-102, -1e-17, -4e-16):
            assert np.array_equal(interf.control_phases([tiny, 0.0]),
                                  interf.control_phases([0.0, 0.0]))
        assert np.array_equal(interf.unitary([0.4, 1.1], psis=[-1e-100, 0.0]),
                              interf.unitary([0.4, 1.1], psis=[0.0, 0.0]))


@pytest.mark.parametrize("psis", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_control_phases_of_the_wrong_length_are_rejected(psis):
    interf = three_mode_mzi()
    with pytest.raises(ValueError):
        interf.control_phases(psis)
    with pytest.raises(ValueError):
        build_model(interf, Probe.fock((1, 1, 1)), psis=psis)
    with pytest.raises(ValueError):
        interf.unitary([0.3, 0.4], psis=psis)


def test_compose_identity():
    eye = np.eye(3, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    assert np.allclose(interf.unitary([0.0, 0.0], psis=[0.0, 0.0]), np.eye(3))
    u = multiport_unitary(3, "tritter")
    assert np.allclose(three_mode_mzi().unitary([0.0, 0.0]), u @ u)


@PROPERTY
@given(presets, phase_pair, st.one_of(st.none(), phase_pair))
def test_compose_matches_product(interf, phis, psis):
    theta = interf.control_phases(psis)
    theta[list(interf.unknown_modes)] += phis
    expected = interf.u_out @ np.diag(np.exp(-1j * theta)) @ interf.u_in
    assert np.allclose(interf.unitary(phis, psis), expected, atol=1e-12)


def test_compose_dimension_mismatch():
    for u_in, u_out in [(np.eye(3), np.eye(4)), (np.ones((3, 4)), np.ones((3, 4))),
                        (np.ones(3), np.ones(3))]:
        with pytest.raises(ValueError):
            Interferometer(u_in=u_in, u_out=u_out, unknown_modes=(0, 1))
    with pytest.raises(ValueError):
        three_mode_mzi().unitary([0.3])


@PROPERTY
@given(presets, phase_pair, st.one_of(st.none(), phase_pair))
def test_composed_unitarity(interf, phis, psis):
    assert unitarity_defect(interf.unitary(phis, psis)) < 1e-12


@PROPERTY
@given(presets, phase_pair, phase_pair, phase, st.integers(0, 1))
def test_control_and_unknown_shift_cancel(interf, phis, psis, x, j):
    # shifting psi_j and phi_j on the same mode by (+x, -x) leaves the circuit alone
    shift = np.zeros(2)
    shift[j] = x
    base = interf.unitary(phis, psis)
    shifted = interf.unitary(np.add(phis, -shift), np.add(psis, shift))
    assert np.allclose(base, shifted, atol=1e-11)


@PROPERTY
@given(phase, phase_pair, phase_pair)
def test_disjoint_phase_layers_commute(phi0, phis, psis):
    # with identity splitters the circuit is the phase layer itself: the
    # unknown, control and fixed layers multiply in any order
    eye = np.eye(4, dtype=complex)
    bare = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    fixed = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1),
                           fixed_controls=((2, phi0),))
    a, b = bare.unitary(phis), fixed.unitary([0.0, 0.0], psis)
    assert np.allclose(a @ b, b @ a, atol=1e-12)
    assert np.allclose(a @ b, fixed.unitary(phis, psis), atol=1e-12)


def _phase_config_offset(interf, psis):
    """The models' per-mode phase offset as the former ``PhaseConfig`` built
    it: unknowns at zero, then the fixed controls, then ``psis`` on the
    control modes, each value reduced with ``float(v) % 2pi`` and summed
    per mode in that order.  A value that reduced to exactly 2pi (a tiny
    negative control) counts as 0, the one place the former formula left
    [0, 2pi)."""
    unknown = [(int(m), float(0.0) % TWO_PI) for m in interf.unknown_modes]
    control = list(interf.fixed_controls)
    if psis is not None:
        control.extend(zip(interf.unknown_modes, np.atleast_1d(np.asarray(psis, dtype=float))))
    control = [(int(m), float(v) % TWO_PI) for m, v in control]
    control = [(m, 0.0 if v == TWO_PI else v) for m, v in control]
    theta = np.zeros(interf.d)
    for mode, value in unknown + control:
        theta[mode] += value
    return theta


@settings(max_examples=100, deadline=None)
@given(presets, st.one_of(st.none(), phase_pair))
def test_theta_offset_matches_the_phase_config_formula_bit_for_bit(interf, psis):
    probe = Probe.distinguishable((1,) * interf.d)
    model = build_model(interf, probe, psis=None if psis is None else np.array(psis))
    assert model.theta_offset.tobytes() == _phase_config_offset(interf, psis).tobytes()


def test_unitarity_defect_values():
    assert unitarity_defect(np.eye(5)) == 0.0
    assert unitarity_defect(multiport_unitary(3, "tritter")) < 1e-14
    perturbed = multiport_unitary(3, "tritter")
    perturbed[0, 0] += 1e-3
    assert unitarity_defect(perturbed) >= 1e-4


def test_interferometer_presets():
    m3 = three_mode_mzi()
    assert m3.d == 3
    assert m3.unknown_modes == (0, 1)
    assert unitarity_defect(m3.unitary([0.1, 0.2])) < 1e-12
    m4 = four_mode_mzi(0.01)
    assert m4.d == 4
    assert m4.fixed_controls == ((2, 0.01),)
    u = m4.unitary([0.3, 0.4], psis=[0.1, 0.2])
    assert unitarity_defect(u) < 1e-12


def test_interferometer_config_counts_controls():
    m4 = four_mode_mzi(0.05)
    assert np.array_equal(m4.control_phases([0.1, 0.2]), [0.1, 0.2, 0.05, 0.0])
    u = multiport_unitary(4, "quarter")
    expected = u @ np.diag(np.exp(-1j * np.array([0.4, 0.6, 0.05, 0.0]))) @ u
    assert np.allclose(m4.unitary([0.3, 0.4], psis=[0.1, 0.2]), expected)
