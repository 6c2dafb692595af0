import itertools

import numpy as np
import pytest
from scipy import stats as sps

from mmzi.fock import basis_index, enumerate_fock_basis
from mmzi import probes
from mmzi.optics import TWO_PI, Interferometer, four_mode_mzi, three_mode_mzi
from mmzi.probes import (
    CoherentProbeModel,
    Probe,
    _ProbeModel,
    build_model,
    coherent_cutoff,
    stacked_fock_probs,
)

THREE = three_mode_mzi()
FOUR = four_mode_mzi(0.01)


def finite_difference_grads(model, phis, h=1e-5):
    phis = np.asarray(phis, dtype=float)
    grads = np.zeros((len(model.outcomes), len(phis)))
    for j in range(len(phis)):
        e = np.zeros(len(phis))
        e[j] = h
        hi = model.distribution(phis + e).probs
        lo = model.distribution(phis - e).probs
        grads[:, j] = (hi - lo) / (2 * h)
    return grads


def test_probe_validation():
    with pytest.raises(ValueError):
        Probe.fock((0, 0, 0))
    with pytest.raises(ValueError):
        Probe.coherent(0.0)
    with pytest.raises(ValueError):
        Probe(kind="squeezed")


@pytest.mark.parametrize(
    "interf,probe",
    [
        (THREE, Probe.fock((1, 1, 1))),
        (FOUR, Probe.fock((1, 1, 1, 1))),
        (THREE, Probe.distinguishable((1, 1, 1))),
        (FOUR, Probe.distinguishable((1, 1, 1, 1))),
    ],
)
def test_probability_conservation_and_gradient_sum(interf, probe):
    rng = np.random.default_rng(42)
    model = build_model(interf, probe)
    for _ in range(25):
        phis = rng.uniform(0, 2 * np.pi, 2)
        dist = model.distribution(phis)
        assert abs(dist.probs.sum() - 1.0) < 1e-10
        assert np.max(np.abs(dist.grads.sum(axis=0))) < 1e-10


def test_coherent_conservation_at_truncation_tolerance():
    rng = np.random.default_rng(7)
    model = build_model(THREE, Probe.coherent(np.sqrt(3.0)))
    for _ in range(10):
        dist = model.distribution(rng.uniform(0, 2 * np.pi, 2))
        assert abs(dist.probs.sum() - 1.0) < 2e-8


@pytest.mark.parametrize(
    "interf,probe",
    [
        (THREE, Probe.fock((1, 1, 1))),
        (FOUR, Probe.fock((1, 1, 1, 1))),
        (THREE, Probe.distinguishable((1, 1, 1))),
        (THREE, Probe.coherent(np.sqrt(3.0))),
        (FOUR, Probe.coherent(2.0)),
    ],
)
def test_analytic_gradients_match_finite_differences(interf, probe):
    rng = np.random.default_rng(11)
    model = build_model(interf, probe)
    for _ in range(100):
        phis = rng.uniform(0, 2 * np.pi, 2)
        dist = model.distribution(phis)
        fd = finite_difference_grads(model, phis)
        # relative to the dominant gradient: per-entry ratios are
        # ill-conditioned where the gradient itself vanishes
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(dist.grads - fd)) / scale < 1e-6


def test_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    for probe in [Probe.fock((1, 1, 1)), Probe.distinguishable((1, 1, 1)),
                  Probe.coherent(1.2)]:
        model = build_model(THREE, probe)
        points = rng.uniform(0, 2 * np.pi, (6, 2))
        probs, grads = model.prob_batch(points)
        for k, phis in enumerate(points):
            dist = model.distribution(phis)
            assert np.allclose(probs[k], dist.probs, atol=1e-12)
            assert np.allclose(grads[k], dist.grads, atol=1e-12)
        # the gradient-free path returns the same probabilities, bit for bit
        for batch in (points, points[:1]):
            lean, none = model.prob_batch(batch, grads=False)
            assert none is None
            assert np.array_equal(lean, model.prob_batch(batch)[0])


def test_distinguishable_matches_labeled_enumeration():
    """Brute-force oracle: every photon is labeled and assigned a mode."""
    model = build_model(THREE, Probe.distinguishable((1, 1, 1)), psis=None)
    phis = np.array([0.83, 2.11])
    u = THREE.unitary(phis)
    single = np.abs(u) ** 2  # single[i, q]: photon entering q exits i
    expected = {}
    for assignment in itertools.product(range(3), repeat=3):
        counts = tuple(assignment.count(m) for m in range(3))
        weight = np.prod([single[assignment[q], q] for q in range(3)])
        expected[counts] = expected.get(counts, 0.0) + weight
    dist = model.distribution(phis)
    for occ, p in zip(dist.outcomes, dist.probs):
        assert np.isclose(p, expected.get(occ, 0.0), atol=1e-12)


def test_coherent_identity_circuit_is_poisson():
    eye = np.eye(3, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    model = CoherentProbeModel(interf, Probe.coherent(np.sqrt(3.0), input_mode=0))
    dist = model.distribution([0.0, 0.0])
    for occ, p in zip(dist.outcomes, dist.probs):
        if occ[1] == 0 and occ[2] == 0:
            assert np.isclose(p, sps.poisson.pmf(occ[0], 3.0), atol=1e-12)
        else:
            assert p < 1e-14


def test_coherent_cutoff_is_minimal_for_tail():
    for mean in [3.0, 4.0]:
        n_max = coherent_cutoff(mean)
        assert sps.poisson.sf(n_max, mean) < 1e-8
        assert sps.poisson.sf(n_max - 1, mean) >= 1e-8
    assert (coherent_cutoff(3.0), coherent_cutoff(4.0)) == (17, 20)


def test_coherent_cutoff_is_the_pdtrc_loop_over_a_dense_grid_of_means():
    # the cutoff sums the Poisson tail itself; scipy's pdtrc is the reference
    from scipy.special import pdtrc

    def reference(means, tail):
        n_max = np.floor(means)
        while (more := pdtrc(n_max, means) >= tail).any():
            n_max += more
        return n_max.astype(int).tolist()

    means = np.linspace(0.01, 60.0, 6000)
    assert [coherent_cutoff(m) for m in means] == reference(means, 1e-8)
    for tail in (1e-4, 1e-12):
        assert [coherent_cutoff(m, tail) for m in means[::7]] == reference(means[::7], tail)


def test_coherent_truncation_tail():
    model = build_model(THREE, Probe.coherent(np.sqrt(3.0)))
    assert sps.poisson.sf(model.n_max, 3.0) < 1e-8
    totals = np.array([sum(occ) for occ in model.outcomes])
    assert totals.max() == model.n_max


def test_models_check_probe_kind_and_mode_count():
    with pytest.raises(ValueError, match="CoherentProbeModel requires a coherent probe"):
        CoherentProbeModel(THREE, Probe.fock((1, 1, 1)))
    with pytest.raises(ValueError, match="mode count"):
        build_model(THREE, Probe.fock((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="mode count"):
        build_model(THREE, Probe.distinguishable((1, 1)))
    fock = build_model(THREE, Probe.fock((1, 1, 1)))
    coherent = build_model(THREE, Probe.coherent(np.sqrt(3.0)))
    assert fock.mass_tol == 1e-10
    assert coherent.mass_tol == 2e-8


def test_fock_outcomes_equal_sector_basis():
    model = build_model(FOUR, Probe.fock((1, 1, 1, 1)))
    assert len(model.outcomes) == 35
    assert all(sum(occ) == 4 for occ in model.outcomes)


@pytest.mark.parametrize("phis", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_distribution_rejects_the_wrong_phase_count(phis):
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    with pytest.raises(ValueError):
        model.distribution(phis)


def _outcome_sum_fim(model, points, chunk=50):
    """sum_x g g^T / p over every outcome of ``model`` with p > 0: the
    Fisher information of the truncated outcome list, with no floor."""
    parts = []
    for start in range(0, len(points), chunk):
        p, g = model.prob_batch(points[start:start + chunk])
        w = np.where(p > 0.0, 1.0 / np.where(p > 0.0, p, 1.0), 0.0)
        parts.append((g * w[:, :, None]).transpose(0, 2, 1) @ g)
    return np.concatenate(parts)


@pytest.mark.parametrize("interf,probe", [(THREE, Probe.coherent(np.sqrt(3.0))),
                                          (FOUR, Probe.coherent(2.0))])
def test_coherent_closed_form_matches_the_outcome_sum(interf, probe, monkeypatch):
    # The Poisson closed form is exact; an outcome sum approaches it as its
    # tail shrinks.  At tail 1e-12 they agree to ~1e-12 of the largest
    # diagonal entry.  The base class's outcome sum at the default tail 1e-8,
    # which also drops outcomes below ZERO_PROB, is ~2e-8 away.
    points = np.random.default_rng(23).uniform(0.0, 2 * np.pi, (400, 2))
    model = build_model(interf, probe)
    f, support_bad = model.fim_batch(points)
    assert f.shape == (400, 2, 2) and not support_bad.any()
    assert np.array_equal(f, f.transpose(0, 2, 1))
    scale = np.max(np.diagonal(f, axis1=1, axis2=2))
    monkeypatch.setattr(probes, "COHERENT_TAIL", 1e-12)
    reference = _outcome_sum_fim(CoherentProbeModel(interf, probe), points)
    assert np.max(np.abs(f - reference)) <= 1e-10 * scale
    floored = np.concatenate([_ProbeModel.fim_batch(model, points[k:k + 50])[0]
                              for k in range(0, len(points), 50)])
    assert np.max(np.abs(floored - reference)) > 1e-9 * scale


def _reference_theta(model, points):
    """``_theta`` as a fancy-index add of the points reduced modulo 2pi, the
    formula it replaces."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    theta = np.empty((points.shape[0], len(model.theta_offset)))
    theta[:] = model.theta_offset
    theta[:, model.unknown_modes] += np.mod(points, TWO_PI)
    return theta


def _reference_fock_prob_batch(model, points, grads):
    """``FockProbeModel.prob_batch`` with a new array per step."""
    theta = _reference_theta(model, points)
    w = np.exp(-1j * (model.occ @ theta.T))
    v = w * model.t_in[:, None]
    amps = model.t_out @ v
    probs = (amps.real**2 + amps.imag**2).T
    if not grads:
        return probs, None
    out = np.empty(probs.shape + (model.n_params,))
    for j in range(model.n_params):
        damps = model.t_out @ (v * (-1j * model.occ[:, model.unknown_modes[j]])[:, None])
        out[:, :, j] = 2.0 * (amps.conj() * damps).real.T
    return probs, out


def _same_array(got, want):
    return (got is want is None) or (
        got.shape == want.shape and got.strides == want.strides and got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize(
    "interf,probe",
    [
        (THREE, Probe.fock((1, 1, 1))),
        (FOUR, Probe.fock((1, 1, 1, 1))),
        # unknown modes neither adjacent nor ascending
        (Interferometer(u_in=THREE.u_in, u_out=THREE.u_out, unknown_modes=(2, 0)),
         Probe.fock((1, 1, 1))),
    ],
)
def test_fock_prob_batch_and_theta_match_the_reference_bit_for_bit(interf, probe):
    rng = np.random.default_rng(31)
    steps = 126  # the rough-step torus of the adaptive protocol
    axis = np.arange(steps) * 2 * np.pi / steps
    torus = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    chunks = np.split(rng.uniform(-7.0, 7.0, (2 * 8192, 2)), 2)
    singles = [rng.uniform(-7.0, 7.0, 2) for _ in range(20)] + [[0.0, 0.0], [np.pi, -np.pi]]
    for psis in (None, rng.uniform(-4.0, 4.0, 2)):
        model = build_model(interf, probe, psis=psis)
        for points in [torus, *chunks, *singles]:
            assert _same_array(model._theta(points), _reference_theta(model, points))
            for grads in (False, True):
                got = model.prob_batch(points, grads=grads)
                want = _reference_fock_prob_batch(model, points, grads)
                assert all(_same_array(g, w) for g, w in zip(got, want)), (len(points), grads)


def _reference_distinguishable_prob_batch(model, points, grads):
    """``DistinguishableProbeModel.prob_batch`` as one loop over states and
    modes per photon, one point column at a time, the formula its layers
    replace."""
    theta = _reference_theta(model, points)
    n_pts, d, n_params = theta.shape[0], model.interf.d, model.n_params
    phase = np.exp(-1j * theta)
    u_in_cols = model.interf.u_in[:, model.photon_modes]
    c = np.einsum("im,pm,mq->piq", model.interf.u_out, phase, u_in_cols)
    p_single = c.real**2 + c.imag**2
    g_single = np.empty((n_pts, d, len(model.photon_modes), n_params))
    for j, mode in enumerate(model.unknown_modes):
        dc = np.einsum("i,p,q->piq", model.interf.u_out[:, mode], -1j * phase[:, mode],
                       u_in_cols[mode, :])
        g_single[:, :, :, j] = 2.0 * (c.conj() * dc).real
    dist = np.ones((n_pts, 1))
    grad = np.zeros((n_pts, 1, n_params))
    for q in range(model.n):
        upper_idx = basis_index(d, q + 1)
        new_dist = np.zeros((n_pts, len(upper_idx)))
        new_grad = np.zeros((n_pts, len(upper_idx), n_params))
        pq = p_single[:, :, q]
        for s, occ in enumerate(enumerate_fock_basis(d, q)):
            for mode in range(d):
                occ_up = list(occ)
                occ_up[mode] += 1
                t = upper_idx[tuple(occ_up)]
                new_dist[:, t] += dist[:, s] * pq[:, mode]
                new_grad[:, t, :] += (grad[:, s, :] * pq[:, mode, None]
                                      + dist[:, s, None] * g_single[:, mode, q, :])
        dist, grad = new_dist, new_grad
    return dist, (grad if grads else None)


@pytest.mark.parametrize(
    "interf,probe",
    [
        (THREE, Probe.distinguishable((1, 1, 1))),
        (FOUR, Probe.distinguishable((1, 1, 1, 1))),
        (Interferometer(u_in=THREE.u_in, u_out=THREE.u_out, unknown_modes=(2, 0)),
         Probe.distinguishable((1, 1, 1))),
        (THREE, Probe.distinguishable((2, 0, 1))),
    ],
)
def test_distinguishable_layers_match_the_loop_bit_for_bit(interf, probe):
    # sizes around the 1,024-point convolution block, and a scan chunk
    rng = np.random.default_rng(37)
    for psis in (None, rng.uniform(-4.0, 4.0, 2)):
        model = build_model(interf, probe, psis=psis)
        for n_pts in (1, 7, 1023, 1024, 1025, 8192):
            points = rng.uniform(-7.0, 7.0, (n_pts, 2))
            for grads in (False, True):
                got = model.prob_batch(points, grads=grads)
                want = _reference_distinguishable_prob_batch(model, points, grads)
                assert all(_same_array(g, w) for g, w in zip(got, want)), (n_pts, grads)


def _same_arrays(got, want):
    return all(_same_array(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize(
    "interf,probe",
    [
        (THREE, Probe.fock((1, 1, 1))),
        (FOUR, Probe.fock((1, 1, 1, 1))),
        (THREE, Probe.distinguishable((1, 1, 1))),
        (FOUR, Probe.distinguishable((1, 1, 1, 1))),
        (THREE, Probe.coherent(np.sqrt(3.0))),
        (FOUR, Probe.coherent(2.0)),
    ],
)
def test_every_evaluation_path_reduces_unreduced_phases_once(interf, probe):
    # Models take any real phases and reduce them with np.mod once.  Where
    # np.mod(x) lies below 2pi, reducing it again changes nothing, so a call
    # at x has the bytes of the call at np.mod(x).  A tiny negative phase
    # reduces to exactly 2pi, which a second np.mod would turn into 0: there
    # the one-point paths must give the bytes of the batch call, whose theta
    # is the one-reduction reference.
    rng = np.random.default_rng(47)
    points = np.array([*rng.uniform(-7.0, 7.0, (40, 2)), [TWO_PI, -TWO_PI], [-TWO_PI, 0.5],
                       [-1e-100, 0.3], [0.3, -1e-100], [-1e-100, -1e-100]])
    reduced = np.mod(points, TWO_PI)
    inside = (reduced < TWO_PI).all(axis=1)
    assert inside.sum() == len(points) - 3
    model = build_model(interf, probe, psis=rng.uniform(-4.0, 4.0, 2))
    assert _same_array(model._theta(points), _reference_theta(model, points))
    for grads in (False, True):
        assert _same_arrays(model.prob_batch(points[inside], grads=grads),
                            model.prob_batch(reduced[inside], grads=grads))
    assert _same_arrays(model.fim_batch(points[inside]), model.fim_batch(reduced[inside]))
    for x, y in zip(points[inside], reduced[inside]):
        for call in (model.prob_batch, model.fim_batch):
            assert _same_arrays(call(x[None, :]), call(y[None, :])), x
    if probe.kind != "fock":
        return
    fim_at = model._fim_at()
    others = [build_model(interf, probe, psis=rng.uniform(-4.0, 4.0, 2)) for _ in range(2)]
    stack = [model, *others]
    probs_at = stacked_fock_probs(stack)

    def fim_at_hex(x):
        *entries, bad = fim_at(x)
        return [v.hex() for v in entries] + [bad]

    for x, y, once in zip(points, reduced, inside):
        f, bad = model.fim_batch(x[None, :])
        assert fim_at_hex(x) == [v.hex() for v in f[0].flat[[0, 3, 1]]] + [bad[0]], x
        rows = np.concatenate([m.prob_batch(x[None, :], grads=False)[0] for m in stack])
        assert probs_at(x).tobytes() == rows.tobytes(), x
        if once:
            assert fim_at_hex(x) == fim_at_hex(y), x
            assert probs_at(x).tobytes() == probs_at(y).tobytes(), x
