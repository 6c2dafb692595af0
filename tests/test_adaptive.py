import numpy as np
import pytest

from mmzi.adaptive import (
    THREE_MODE_PHASE_GROUP,
    FOUR_MODE_PHASE_GROUP,
    CountRecord,
    GaussianPrior,
    ProtocolConfig,
    _joint_sigma,
    _likelihood_peaks,
    _polish,
    _sigma_from_curvature,
    _width,
    _window_peaks,
    derive_seeds,
    log_likelihood,
    monte_carlo,
    quotient_errors,
    run_protocol,
    run_record_dict,
    sample_outcomes,
    wrap_angle,
    write_run_record,
)
from mmzi.optics import four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe, build_model

THREE = three_mode_mzi()
Q1 = np.array([0.8920298, 2.1908384])


@pytest.fixture(scope="module")
def q1_model():
    return build_model(THREE, Probe.fock((1, 1, 1)))


def test_gaussian_prior_validation():
    with pytest.raises(ValueError):
        GaussianPrior(mean=[0.0, 0.0], sigma=[0.1, -0.1])


def test_count_record_total_enforced():
    with pytest.raises(ValueError):
        CountRecord(counts=np.array([2, 3]), total=6)


def test_sample_outcomes_determinism(q1_model):
    dist = q1_model.distribution(Q1)
    a = sample_outcomes(dist, 500, 123)
    b = sample_outcomes(dist, 500, 123)
    assert np.array_equal(a.counts, b.counts)
    assert a.total == 500
    with pytest.raises(ValueError):
        sample_outcomes(dist, 0, 1)


def test_sample_outcomes_single_draw(q1_model):
    record = sample_outcomes(q1_model.distribution(Q1), 1, 5)
    assert record.counts.sum() == 1
    assert np.count_nonzero(record.counts) == 1


def test_sample_outcomes_frequencies(q1_model):
    dist = q1_model.distribution(Q1)
    nu = 1_000_000
    record = sample_outcomes(dist, nu, 77)
    freq = record.counts / nu
    sigma = np.sqrt(dist.probs * (1 - dist.probs) / nu)
    assert np.all(np.abs(freq - dist.probs) < 4 * sigma + 1e-9)


def test_log_likelihood_prior_only(q1_model):
    counts = CountRecord(counts=np.zeros(len(q1_model.outcomes), dtype=int), total=0)
    prior = GaussianPrior(mean=[1.0, 2.0], sigma=[0.5, 0.5])
    value = log_likelihood(counts, prior, [1.1, 1.9], q1_model)
    assert np.isclose(value, prior.log_density([1.1, 1.9]))


def test_log_likelihood_linear_in_counts(q1_model):
    dist = q1_model.distribution(Q1)
    counts = sample_outcomes(dist, 400, 3)
    doubled = CountRecord(counts=2 * counts.counts, total=800)
    prior = GaussianPrior(mean=Q1, sigma=[0.3, 0.3])
    base = log_likelihood(counts, None, Q1, q1_model)
    assert np.isclose(log_likelihood(doubled, None, Q1, q1_model), 2 * base)
    with_prior = log_likelihood(doubled, prior, Q1, q1_model)
    assert np.isclose(with_prior, 2 * base + prior.log_density(Q1))


def _distribution_log_likelihood(counts, prior, phases, model):
    """Reference: the likelihood read from ``model.distribution`` (with
    gradients) through a boolean mask of the observed outcomes."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    dist = model.distribution(np.mod(phases, 2.0 * np.pi))
    value = prior.log_density(phases) if prior is not None else 0.0
    observed = counts.counts > 0
    p = dist.probs[observed]
    if np.any(p <= 0.0):
        return -np.inf
    return value + float(np.dot(counts.counts[observed], np.log(p)))


def test_log_likelihood_zero_probability():
    # identity circuit maps |1,1,1> to itself, every other outcome has
    # exactly zero probability: observing one is -inf, and outcomes of
    # zero probability that were not observed do not count
    from mmzi.optics import Interferometer

    eye = np.eye(3, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    model = build_model(interf, Probe.fock((1, 1, 1)))
    counts = np.zeros(len(model.outcomes), dtype=int)
    dead = next(k for k, occ in enumerate(model.outcomes) if occ != (1, 1, 1))
    counts[dead] = 1
    record = CountRecord(counts=counts, total=1)
    assert log_likelihood(record, None, [0.3, 0.4], model) == -np.inf
    alive = CountRecord(counts=5 * np.array([occ == (1, 1, 1) for occ in model.outcomes]),
                        total=5)
    assert np.isfinite(log_likelihood(alive, None, [0.3, 0.4], model))
    for phases in ([0.3, 0.4], [2.0, -1.0]):
        for r in (record, alive):
            assert (log_likelihood(r, None, phases, model)
                    == _distribution_log_likelihood(r, None, phases, model))


@pytest.mark.parametrize("interf,probe", [
    (THREE, Probe.fock((1, 1, 1))),
    (four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1))),
    (THREE, Probe.distinguishable((1, 1, 1))),
    (THREE, Probe.coherent(1.2)),
])
def test_log_likelihood_matches_the_distribution_value_bit_for_bit(interf, probe):
    rng = np.random.default_rng(11)
    model = build_model(interf, probe, psis=rng.uniform(-1.0, 1.0, 2))
    counts = sample_outcomes(model.distribution([0.7, 1.3]), 300, rng)
    prior = GaussianPrior(mean=[0.6, 1.4], sigma=[0.2, 0.3])
    for phases in [[0.7, 1.3], [-0.4, 7.1], [3.0, 0.0], *rng.uniform(-7, 7, (5, 2))]:
        for p in (None, prior):
            assert (log_likelihood(counts, p, phases, model)
                    == _distribution_log_likelihood(counts, p, phases, model))


def test_likelihood_peaks_keep_the_truth_for_exact_counts(q1_model):
    # counts proportional to the true distribution maximize the likelihood
    # at the true phases (Gibbs): fractional counts are fine for the math.
    # A single control setting leaves exactly tied images, so the truth
    # must be among the kept peaks (modulo the phase group), to within the
    # sub-grid step grid_step / 5.
    dist = q1_model.distribution(Q1)
    counts = CountRecord(counts=1000.0 * dist.probs, total=1000.0 * dist.probs.sum())
    peaks = _likelihood_peaks([(counts, q1_model)], grid_step=0.05)
    group = [np.array(s) for s in THREE_MODE_PHASE_GROUP]
    errors = [np.max(np.abs(quotient_errors(x, Q1, group))) for x, _value in peaks]
    assert min(errors) <= 0.01 + 1e-12


def test_refine_prior_pull(q1_model):
    dist = q1_model.distribution(Q1)
    counts = sample_outcomes(dist, 50, 11)
    tight = GaussianPrior(mean=Q1 + 0.05, sigma=[1e-4, 1e-4])
    x, value = _polish(lambda x: -log_likelihood(counts, tight, x, q1_model), Q1)
    assert value == log_likelihood(counts, tight, x, q1_model)
    assert np.max(np.abs(x - (Q1 + 0.05))) < 5e-3


def test_sigma_from_curvature_at_singular_point(q1_model):
    # the zero-phase point has an exactly singular FIM, so run_protocol falls
    # back to the likelihood curvature (here dominated by the prior)
    dist = q1_model.distribution([0.0, 0.0])
    counts = sample_outcomes(dist, 500, 3)
    assert _joint_sigma([(counts, q1_model)], np.zeros(2)) is None
    prior = GaussianPrior(mean=[0.0, 0.0], sigma=[0.01, 0.01])
    sigma = _sigma_from_curvature(counts, prior, q1_model, np.zeros(2))
    assert np.all(sigma > 0)
    assert np.all(sigma <= 0.01 + 1e-9)


class _PointCounter:
    """Stands in for a model: keeps every batch of points it is asked for
    and gives two equally likely outcomes."""

    n_params = 2

    def __init__(self):
        self.batches = []

    def prob_batch(self, points, grads=True):
        self.batches.append(points)
        return np.full((len(points), 2), 0.5), None


def test_likelihood_window_is_capped_at_the_torus():
    # a four-mode rough step at nu = 20 (derive_seeds(7, 24)[9], true phases
    # (0.7, 1.3), phi0 = 0.01) has widths (3.95, 3.50): uncapped, mean +/- 5
    # sigma at step 0.02 is a 1,973 x 1,753 window per model
    counter = _PointCounter()
    counts = CountRecord(counts=np.array([3, 1]), total=4)
    _window_peaks([(counts, counter)], np.array([0.7, 1.3]), np.array([3.95, 3.50]), 0.02)
    [points] = counter.batches
    limit = int(np.ceil(2 * np.pi / 0.02)) + 1
    axis_sizes = [len(np.unique(points[:, j])) for j in range(2)]
    assert max(axis_sizes) <= limit
    assert len(points) == axis_sizes[0] * axis_sizes[1]


def test_width_of_a_diagonal_matrix():
    assert np.array_equal(_width(np.diag([4.0, 100.0])), [0.5, 0.1])
    info = np.array([[3.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(_width(info), np.sqrt(np.diag(np.linalg.inv(info))))


def test_width_of_a_singular_matrix_is_none():
    assert _width(np.zeros((2, 2))) is None
    assert _width(np.array([[1.0, 1.0], [1.0, 1.0]])) is None
    assert _width(np.diag([1.0, 1e-13])) is None  # condition number 1e13


@pytest.mark.parametrize(
    "group,interf,probe",
    [
        (THREE_MODE_PHASE_GROUP, THREE, Probe.fock((1, 1, 1))),
        (FOUR_MODE_PHASE_GROUP, four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1))),
    ],
)
def test_phase_group_is_exact_invariance(group, interf, probe):
    rng = np.random.default_rng(13)
    for psis in [None, rng.uniform(0, 2 * np.pi, 2)]:
        model = build_model(interf, probe, psis=psis)
        for _ in range(5):
            phis = rng.uniform(0, 2 * np.pi, 2)
            base = model.distribution(phis).probs
            for shift in group[1:]:
                shifted = model.distribution(np.mod(phis + np.array(shift), 2 * np.pi)).probs
                assert np.max(np.abs(shifted - base)) < 1e-12


def test_quotient_errors_pick_nearest_image():
    group = [np.array(s) for s in THREE_MODE_PHASE_GROUP]
    true = np.array([1.0, 2.0])
    est = np.mod(true + np.array(THREE_MODE_PHASE_GROUP[1]) + 0.01, 2 * np.pi)
    err = quotient_errors(est, true, group)
    assert np.allclose(err, 0.01, atol=1e-12)


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(modes=5, true_phases=(0.1, 0.2))
    with pytest.raises(ValueError):
        ProtocolConfig(modes=3, true_phases=(0.1, 0.2), fractions=(0.5, 0.5))
    with pytest.raises(ValueError):
        ProtocolConfig(modes=3, true_phases=(0.1, 0.2), fractions=(0.2, 0.2, 0.2))
    cfg = ProtocolConfig(modes=4, true_phases=(0.1, 0.2), phi0=0.0)
    with pytest.raises(ValueError):
        cfg.interferometer()


def test_four_mode_zero_phi0_rejected():
    with pytest.raises(ValueError):
        run_protocol(ProtocolConfig(modes=4, true_phases=(0.5, 1.0), phi0=0.0, nu=200), 1)


def test_trace_resource_accounting():
    trace = run_protocol(ProtocolConfig(modes=3, true_phases=(2.0, 1.0), nu=2000), 5)
    assert trace.nu_total == 2000
    assert sum(trace.budgets()) == 2000
    assert all(s.counts.counts.sum() <= s.nu for s in trace.steps)
    assert np.all(trace.final_estimate >= 0)
    assert np.all(trace.final_estimate < 2 * np.pi)
    assert np.all(trace.final_sigma > 0)


def test_protocol_determinism():
    config = ProtocolConfig(modes=3, true_phases=(2.0, 1.0), nu=2000)
    a = run_protocol(config, 33)
    b = run_protocol(config, 33)
    assert np.array_equal(a.final_estimate, b.final_estimate)
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.counts.counts, sb.counts.counts)
        assert np.array_equal(sa.psis, sb.psis)
    c = run_protocol(config, 34)
    assert not np.array_equal(a.steps[0].counts.counts, c.steps[0].counts.counts)


def test_true_phases_at_working_point_give_small_controls():
    trace = run_protocol(ProtocolConfig(modes=3, true_phases=tuple(Q1), nu=4000), 8)
    # step-2 controls should be close to zero (modulo the exact shift group)
    psis = trace.steps[1].psis
    images = [wrap_angle(psis + np.array(s)) for s in THREE_MODE_PHASE_GROUP]
    assert min(np.max(np.abs(img)) for img in images) < 0.1


def test_derive_seeds_deterministic():
    a = derive_seeds(42, 5)
    b = derive_seeds(42, 5)
    assert a == b
    assert len(set(a)) == 5


def test_monte_carlo_requires_two_reps():
    cfg = ProtocolConfig(modes=3, true_phases=(2.0, 1.0), nu=1000)
    with pytest.raises(ValueError):
        monte_carlo(cfg, 1, master_seed=1)


def test_monte_carlo_determinism_and_record(tmp_path):
    cfg = ProtocolConfig(modes=3, true_phases=(2.0, 1.0), nu=1000)
    out = tmp_path / "record.json"
    stats_a = monte_carlo(cfg, 4, master_seed=9)
    write_run_record(run_record_dict(stats_a), out)
    stats_b = monte_carlo(cfg, 4, master_seed=9)
    assert np.array_equal(stats_a.estimates, stats_b.estimates)
    assert np.allclose(stats_a.std, stats_b.std)
    import json

    record = json.loads(out.read_text())
    assert record["schema_version"] == 1
    assert record["master_seed"] == 9
    assert len(record["estimates"]) == 4
    assert "created_at" in record
