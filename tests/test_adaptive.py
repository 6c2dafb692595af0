import concurrent.futures
import copy
import inspect
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmzi.adaptive as adaptive
from mmzi import parallel
from mmzi.adaptive import (
    THREE_MODE_PHASE_GROUP,
    FOUR_MODE_PHASE_GROUP,
    CountRecord,
    GaussianPrior,
    ProtocolConfig,
    RoughStepError,
    _joint_loglik_batch,
    _stacked_loglik,
    _joint_sigma,
    _likelihood_peaks,
    _polish,
    _width,
    _window_peaks,
    _with_prior,
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
from mmzi.optics import TWO_PI, Interferometer, four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe, build_model, stacked_fock_probs
from mmzi.simplex import nelder_mead

THREE = three_mode_mzi()
Q1 = np.array([0.8920298, 2.1908384])


@pytest.fixture(scope="module")
def q1_model():
    return build_model(THREE, Probe.fock((1, 1, 1)))


def test_gaussian_prior_validation():
    with pytest.raises(ValueError):
        GaussianPrior(mean=[0.0, 0.0], sigma=[0.1, -0.1])
    # a non-finite mean or sigma would make the log density NaN or -inf everywhere
    for mean, sigma in [([0.0, 0.0], [0.1, np.nan]), ([0.0, 0.0], [np.inf, 0.1]),
                        ([np.nan, 0.0], [0.1, 0.1]), ([0.0, -np.inf], [0.1, 0.1])]:
        with pytest.raises(ValueError, match="finite"):
            GaussianPrior(mean=mean, sigma=sigma)


def test_a_nan_information_takes_the_nelder_mead_fallback(monkeypatch):
    # a NaN information inverts to a NaN step, whose trial value is NaN, so
    # step halving never ends; the singular verdict sends it to the simplex
    def objective(x):
        return -float(x @ x), -2.0 * x, np.full((2, 2), np.nan)

    calls = []

    def recording(f, x0, **options):
        calls.append(np.array(x0))
        return nelder_mead(f, x0, **options)

    monkeypatch.setattr(adaptive, "nelder_mead", recording)
    x, value, info = _polish(objective, np.array([0.3, 0.2]))
    assert len(calls) == 1 and calls[0].tolist() == [0.3, 0.2]
    assert np.max(np.abs(x)) < 1e-4 and value == -float(x @ x) and np.isnan(info).all()


angle = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(angle, angle), st.tuples(angle, angle),
       st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)))
def test_prior_log_density_is_the_per_call_formula_bit_for_bit(mean, at, sigma):
    prior = GaussianPrior(mean=mean, sigma=sigma)
    delta = wrap_angle(np.asarray(at, dtype=float) - prior.mean)
    want = float(np.sum(-0.5 * (delta / prior.sigma) ** 2
                        - np.log(np.sqrt(TWO_PI) * prior.sigma)))
    assert prior.log_density(at) == want


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
    peaks = _likelihood_peaks([(counts, q1_model)])
    group = [np.array(s) for s in THREE_MODE_PHASE_GROUP]
    errors = [np.max(np.abs(quotient_errors(x, Q1, group))) for x, _value in peaks]
    assert min(errors) <= 0.01 + 1e-12


def test_refine_prior_pull(q1_model):
    # a prior 1e-4 wide pulls the polish onto its mean against 50 counts
    dist = q1_model.distribution(Q1)
    counts = sample_outcomes(dist, 50, 11)
    tight = GaussianPrior(mean=Q1 + 0.05, sigma=[1e-4, 1e-4])
    posterior = _with_prior(_stacked_loglik([(counts, q1_model)]), tight)
    x, value, info = _polish(posterior, Q1)
    assert value == log_likelihood(counts, tight, x, q1_model)
    # the information returned is the posterior's at the point returned
    assert info.tobytes() == posterior(x)[2].tobytes()
    assert np.max(np.abs(x - (Q1 + 0.05))) < 5e-3
    # the stationary point of log prior + log L: the prior's pull balances
    # the data's gradient
    _, score, _ = _stacked_loglik([(counts, q1_model)])(x)
    np.testing.assert_allclose(score, (x - tight.mean) / tight.sigma**2, rtol=1e-6, atol=1e-3)


def test_singular_information_takes_the_nelder_mead_fallback(q1_model, monkeypatch):
    # the controls-at-zero model has an exactly singular information at the
    # zero-phase point, so scoring cannot take its first step there
    counts = sample_outcomes(q1_model.distribution([0.0, 0.0]), 500, 3)
    loglik = _stacked_loglik([(counts, q1_model)])
    assert _width(loglik(np.zeros(2))[2]) is None
    calls = []

    def recording(objective, x0, **options):
        calls.append((np.array(x0), options))
        return nelder_mead(objective, x0, **options)

    monkeypatch.setattr(adaptive, "nelder_mead", recording)
    x, value, info = _polish(loglik, np.zeros(2))
    [(x0, options)] = calls
    assert x0.tolist() == [0.0, 0.0]
    assert options == {"xatol": adaptive.REFINE_TOL, "fatol": 1e-10, "maxiter": 400}
    with np.errstate(divide="ignore"):
        want_x, want_fun = nelder_mead(lambda y: -loglik(y)[0], np.zeros(2), **options)
    assert x.tobytes() == want_x.tobytes() and value == -want_fun
    # one more evaluation gives the information at the simplex's result
    assert info.tobytes() == loglik(want_x)[2].tobytes()
    # a regular point takes no fallback
    calls.clear()
    _polish(loglik, np.array([0.3, 0.2]))
    assert calls == []


def test_a_minus_inf_seed_takes_the_nelder_mead_fallback(monkeypatch):
    eye = np.eye(3, dtype=complex)
    model = build_model(Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1)), Probe.fock((1, 1, 1)))
    counts = np.zeros(len(model.outcomes), dtype=int)
    counts[next(k for k, occ in enumerate(model.outcomes) if occ != (1, 1, 1))] = 2
    calls = []
    monkeypatch.setattr(adaptive, "nelder_mead",
                        lambda objective, x0, **options: calls.append(x0) or (x0, np.inf))
    x, value, _ = _polish(_stacked_loglik([(CountRecord(counts=counts, total=2), model)]),
                          np.array([0.3, 0.4]))
    assert len(calls) == 1 and value == -np.inf and x.tolist() == [0.3, 0.4]


def _central_difference(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(len(x))])


@pytest.mark.parametrize("interf,probe", [
    (THREE, Probe.fock((1, 1, 1))),
    (four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1))),
])
def test_likelihood_gradient_and_information_with_the_prior(interf, probe):
    rng = np.random.default_rng(31)
    model = build_model(interf, probe, psis=rng.uniform(-1.0, 1.0, 2))
    counts = sample_outcomes(model.distribution([0.7, 1.3]), 3000, rng)
    prior = GaussianPrior(mean=[0.6, 1.4], sigma=[0.7, 0.9])
    posterior = _with_prior(_stacked_loglik([(counts, model)]), prior)
    # offsets from the prior mean beyond +/- pi on either axis, where the
    # wrapped offset has jumped by 2 pi, and inside
    for delta in [[0.1, -0.2], [np.pi + 0.3, 0.2], [-np.pi - 0.4, 2.0], [3.0, -3.3],
                  [2 * np.pi + 0.1, -2 * np.pi - 0.2], *rng.uniform(-7.0, 7.0, (4, 2))]:
        x = prior.mean + np.array(delta)
        value, score, info = posterior(x)
        assert value == log_likelihood(counts, prior, x, model)
        want = _central_difference(lambda y: log_likelihood(counts, prior, y, model), x)
        np.testing.assert_allclose(score, want, rtol=1e-6, atol=1e-4 * np.max(np.abs(want)))
        fim = counts.total * adaptive.fisher_matrix(model.distribution(x)).matrix
        np.testing.assert_allclose(info, fim + np.diag(1.0 / prior.sigma**2), rtol=1e-12)


def test_exhausted_rough_step_retries_raise(q1_model, monkeypatch):
    # the zero-phase point has an exactly singular FIM; a rough step whose
    # information stays singular through every re-draw raises, naming the seed
    dist = q1_model.distribution([0.0, 0.0])
    counts = sample_outcomes(dist, 500, 3)
    assert _joint_sigma([(counts, q1_model)], np.zeros(2)) is None
    monkeypatch.setattr(adaptive, "_joint_sigma", lambda batches, estimate: None)
    cfg = ProtocolConfig(modes=3, true_phases=(2.2, 1.0), nu=1000)
    with pytest.raises(RoughStepError, match=r"^seed 77: .* after 3 re-draws") as info:
        run_protocol(cfg, 77)
    # one message argument, so the error crosses a process pool intact
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is RoughStepError and str(copy) == str(info.value)
    # a re-draw that would use up the remaining budget is not attempted
    tight = ProtocolConfig(modes=3, true_phases=(2.2, 1.0), nu=1000, fractions=(0.4, 0.3, 0.3))
    with pytest.raises(RoughStepError, match="after 0 re-draws"):
        run_protocol(tight, 77)


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


def test_width_of_an_inverse_with_a_diagonal_entry_not_above_zero_is_none():
    # well conditioned, but no information matrix: a negative variance would
    # otherwise read as a confident sigma
    assert _width(np.diag([1.0, -1.0])) is None
    assert _width(np.array([[1.0, 2.0], [2.0, 1.0]])) is None


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


def test_four_mode_nan_phi0_rejected():
    # nan passes a phi0 <= 0 test, and would otherwise reach the phi0 = 0 circuit
    cfg = ProtocolConfig(modes=4, true_phases=(0.5, 1.0), phi0=float("nan"), nu=200)
    with pytest.raises(ValueError, match="phi0 > 0"):
        cfg.interferometer()
    with pytest.raises(ValueError, match="phi0 > 0"):
        run_protocol(cfg, 1)


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


def _with_cpus(monkeypatch, cpus):
    """monte_carlo sees ``cpus`` usable CPUs, whatever the machine has; a
    pool of more than two processes fails before any process starts."""
    monkeypatch.setattr(adaptive, "_usable_cpus", lambda: cpus)
    real_pool = concurrent.futures.ProcessPoolExecutor

    def at_most_two(max_workers, *args, **kwargs):
        assert max_workers <= 2, max_workers
        return real_pool(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", at_most_two)


def test_usable_cpus_counts_at_least_one():
    assert adaptive._usable_cpus() >= 1


def test_monte_carlo_is_bit_identical_for_every_process_count(monkeypatch):
    cfg = ProtocolConfig(modes=3, true_phases=(2.2, 1.0), nu=1000)
    runs = {}
    # 10**12 CPUs with 2 repetitions: the pool is capped at 2 processes
    for cpus, reps in ((1, 3), (2, 3), (1, 2), (10**12, 2)):
        _with_cpus(monkeypatch, cpus)
        runs[cpus, reps] = monte_carlo(cfg, reps, master_seed=5)
        assert multiprocessing.active_children() == []
    for (cpus, reps), serial in (((2, 3), runs[1, 3]), ((10**12, 2), runs[1, 2])):
        stats = runs[cpus, reps]
        for name in ("estimates", "std", "bias", "predicted_sigma"):
            got, want = getattr(stats, name), getattr(serial, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (cpus, name)


def test_a_failing_repetition_raises_the_same_error_in_the_pool(monkeypatch):
    # a four-mode protocol at phi0 = 0 fails inside every repetition
    cfg = ProtocolConfig(modes=4, true_phases=(0.7, 1.3), nu=1000, phi0=0.0)
    errors = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError) as info:
            monte_carlo(cfg, 3, master_seed=1)
        errors.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    assert errors[0][0] is ValueError and "phi0" in errors[0][1]


PRESETS = [(3, (2.2, 1.0)), (4, (0.7, 1.3))]


def _plain_rough_model(modes, phi0):
    """The controls-at-zero model without a torus table."""
    config = ProtocolConfig(modes=modes, true_phases=(0.0, 0.0), phi0=phi0)
    return build_model(config.interferometer(), config.probe(), psis=np.zeros(2))


def _same_peaks(got, want):
    return len(got) == len(want) and all(
        x.tobytes() == y.tobytes() and v == w for (x, v), (y, w) in zip(got, want)
    )


@pytest.mark.parametrize("modes,true", PRESETS)
def test_torus_table_gives_the_uncached_peaks_bit_for_bit(modes, true):
    config = ProtocolConfig(modes=modes, true_phases=true)
    cached = adaptive._rough_model(modes, config.phi0)
    plain = _plain_rough_model(modes, config.phi0)
    assert cached.torus_log_p.shape == (126**2, len(cached.outcomes))
    assert not cached.torus_log_p.flags.writeable and not hasattr(plain, "torus_log_p")
    rng = np.random.default_rng(17)
    model_b = build_model(config.interferometer(), config.probe(), psis=[0.4, -1.2])
    counts_b = sample_outcomes(model_b.distribution(true), 500, rng)
    for _draw in range(2):  # a rough-step retry re-draws batch_a
        counts_a = sample_outcomes(plain.distribution(true), 500, rng)
        for rest in ([], [(counts_b, model_b)]):
            assert _same_peaks(_likelihood_peaks([(counts_a, cached)] + rest),
                               _likelihood_peaks([(counts_a, plain)] + rest))


def _traces_equal(a, b):
    arrays = lambda t: [t.final_estimate, t.final_sigma] + [  # noqa: E731
        x for s in t.steps
        for x in (s.psis, s.counts.counts, s.posterior.mean, s.posterior.sigma, *s.candidates)
    ]
    return ([s.retries for s in a.steps] == [s.retries for s in b.steps]
            and all(x.tobytes() == y.tobytes() for x, y in zip(arrays(a), arrays(b))))


@pytest.mark.parametrize("modes,true", PRESETS)
def test_run_protocol_with_a_retry_is_the_same_with_and_without_the_table(modes, true, monkeypatch):
    real_sigma = adaptive._joint_sigma
    calls = []

    def singular_once(batches, estimate):
        calls.append(None)
        return None if len(calls) == 1 else real_sigma(batches, estimate)

    monkeypatch.setattr(adaptive, "_joint_sigma", singular_once)
    config = ProtocolConfig(modes=modes, true_phases=true)
    cached = run_protocol(config, 21)
    assert cached.steps[0].retries == 1
    calls.clear()
    monkeypatch.setattr(adaptive, "_rough_model", _plain_rough_model)
    assert _traces_equal(cached, run_protocol(config, 21))


def test_rough_model_cache_keeps_the_presets_used_last():
    adaptive._rough_model.cache_clear()
    phis = [0.01 * (k + 1) for k in range(adaptive.ROUGH_CACHE_SIZE + 1)]
    models = [adaptive._rough_model(4, phi0) for phi0 in phis]
    assert adaptive._rough_model.cache_info().currsize == adaptive.ROUGH_CACHE_SIZE
    assert adaptive._rough_model(4, phis[-1]) is models[-1]
    assert adaptive._rough_model(4, phis[0]) is not models[0]  # evicted, rebuilt
    assert not models[0].torus_log_p.flags.writeable


def test_pooled_monte_carlo_leaves_the_torus_table_to_the_children(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool needs fork")
    import mmzi.fock as fock

    monkeypatch.setattr(fock, "_SECTOR_CACHE", type(fock._SECTOR_CACHE)())
    adaptive._rough_model.cache_clear()
    _with_cpus(monkeypatch, 2)
    cfg = ProtocolConfig(modes=4, true_phases=(0.7, 1.3), nu=1000)
    monte_carlo(cfg, 2, master_seed=3)
    interf = cfg.interferometer()
    sectors = {(np.ascontiguousarray(u, dtype=complex).tobytes(), 4, 4)
               for u in (interf.u_in, interf.u_out)}
    assert sectors <= set(fock._SECTOR_CACHE)
    assert adaptive._rough_model.cache_info().currsize == 0


def test_a_repetition_error_crosses_the_pool(monkeypatch):
    # every repetition's rough step stays singular: the error is raised in
    # the worker and must reach the caller as in the serial loop
    monkeypatch.setattr(adaptive, "_joint_sigma", lambda batches, estimate: None)
    cfg = ProtocolConfig(modes=3, true_phases=(2.2, 1.0), nu=1000)
    errors = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(RoughStepError) as info:
            monte_carlo(cfg, 2, master_seed=4)
        errors.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"seed {derive_seeds(4, 2)[0]}: ")


def test_serial_monte_carlo_runs_at_one_blas_thread_and_restores_the_count(monkeypatch):
    functions = parallel._blas_thread_functions()
    assert parallel._blas_thread_functions() is functions  # looked up once per process
    if functions is None:
        pytest.skip("no OpenBLAS thread setter in numpy's libraries")
    get, set_ = functions
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not take a second thread here")
        seen = []

        def record_threads(config, seed):
            seen.append(get())
            return np.zeros(2), np.ones(2)

        monkeypatch.setattr(adaptive, "_final_state", record_threads)
        _with_cpus(monkeypatch, 1)
        monte_carlo(ProtocolConfig(modes=3, true_phases=(2.2, 1.0)), 3, master_seed=1)
        assert seen == [1, 1, 1]
        assert get() == 2
    finally:
        set_(before)


# measured 182 MB above the forked child's starting RSS on a 2-core x86-64
# Linux machine (numpy 2.4.6); an uncapped window needs several GB
NU20_PEAK_GROWTH_BUDGET_MB = 300


def test_four_mode_nu20_case_finishes_within_a_memory_budget():
    # the case of test_likelihood_window_is_capped_at_the_torus, end to end:
    # run in a forked child, whose peak RSS counts from the fork
    import json
    import os
    import resource
    import sys

    if not sys.platform.startswith("linux"):
        pytest.skip("reads ru_maxrss in KB, a fork's own peak: checked on Linux")
    cfg = ProtocolConfig(modes=4, true_phases=(0.7, 1.3), phi0=0.01, nu=20)
    seed = derive_seeds(7, 24)[9]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report and exit without running pytest's teardown
        try:
            os.close(read_end)
            adaptive._rough_model.cache_clear()  # the table is built in the budget
            start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            trace = run_protocol(cfg, seed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report = {"growth_mb": (peak - start) / 1024.0,
                      "estimate": trace.final_estimate.tolist(),
                      "sigma": trace.final_sigma.tolist()}
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            report = {"error": repr(exc)}
        with os.fdopen(write_end, "w") as handle:
            json.dump(report, handle)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as handle:
        report = json.loads(handle.read() or '{"error": "the child sent nothing"}')
    os.waitpid(pid, 0)
    assert "error" not in report, report["error"]
    assert report["growth_mb"] < NU20_PEAK_GROWTH_BUDGET_MB, report
    assert np.all(np.isfinite(report["estimate"])) and np.all(np.array(report["sigma"]) > 0)


def _loop_loglik(batches, points):
    """The data log-likelihood as one ``prob_batch`` call per model: the
    formula of ``_joint_loglik_batch``, which the stacked one-point path
    reproduces."""
    total = np.zeros(len(points))
    with np.errstate(divide="ignore"):
        for counts, model in batches:
            p = model.prob_batch(points, grads=False)[0][:, counts.observed]
            total += np.log(p, out=p) @ counts.observed_counts
    return total


def _random_batches(config, k, rng):
    true = config.true_phases
    models = [build_model(config.interferometer(), config.probe(), psis=rng.uniform(-4.0, 4.0, 2))
              for _ in range(k)]
    return [(sample_outcomes(m.distribution(true), int(rng.integers(50, 5000)), rng), m)
            for m in models]


def _offset_copy(a, offset=16):
    """A copy of ``a``, equal in value, whose data starts ``offset`` bytes
    past a 64-byte boundary."""
    raw = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _assert_one_point_values_match_the_loop(batches, rng):
    # the models as built, then with the last one's t_out a value-equal
    # copy at another alignment: stacking is decided by value, so it stacks
    # with the first model's matrix and must still give the loop's bits
    moved = copy.copy(batches[-1][1])
    moved.t_out = _offset_copy(moved.t_out)
    assert moved.t_out.ctypes.data % 64 == 16
    points = [*rng.uniform(-7.0, 7.0, (60, 2)), [0.0, 0.0], [TWO_PI, -np.pi], [-1e-100, 0.5]]
    for case in (batches, batches[:-1] + [(batches[-1][0], moved)]):
        loglik = _stacked_loglik(case)
        probs_at = stacked_fock_probs([model for _, model in case])
        for x in np.array(points):
            with np.errstate(divide="ignore", invalid="ignore"):
                got = np.array([loglik(x)[0]])
            assert got.tobytes() == _loop_loglik(case, x[None, :]).tobytes(), x
            # the stacked gradients are each model's prob_batch gradients
            probs, grads = probs_at(x)
            for k, (_, model) in enumerate(case):
                p, g = model.prob_batch(x[None, :])
                assert probs[k].tobytes() == p[0].tobytes(), (x, k)
                assert grads[k].shape == g[0].shape and grads[k].tobytes() == g[0].tobytes(), (x, k)


@pytest.mark.parametrize("modes,true", PRESETS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_stacked_one_point_likelihood_is_the_model_loop_bit_for_bit(modes, true, k):
    rng = np.random.default_rng(100 * modes + k)
    batches = _random_batches(ProtocolConfig(modes=modes, true_phases=true), k, rng)
    _assert_one_point_values_match_the_loop(batches, rng)
    points = rng.uniform(-7.0, 7.0, (7, 2))
    assert _joint_loglik_batch(batches, points).tobytes() == _loop_loglik(batches, points).tobytes()


@pytest.mark.parametrize("modes,true", PRESETS)
def test_stacked_one_point_likelihood_with_the_rough_model(modes, true):
    # the cached rough model carries torus_log_p and shares the preset's
    # sector matrices with every model a run builds
    config = ProtocolConfig(modes=modes, true_phases=true)
    rough = adaptive._rough_model(modes, config.phi0)
    assert hasattr(rough, "torus_log_p")
    rng = np.random.default_rng(23)
    batches = [(sample_outcomes(rough.distribution(true), 500, rng), rough),
               *_random_batches(config, 2, rng)]
    _assert_one_point_values_match_the_loop(batches, rng)


def test_stacked_one_point_likelihood_takes_each_models_unknown_modes_and_controls():
    # same splitters, so the same sector matrices: unknown modes in another
    # order and another fixed control still stack
    swapped = Interferometer(u_in=THREE.u_in, u_out=THREE.u_out, unknown_modes=(2, 0))
    rng = np.random.default_rng(29)
    batches = [(sample_outcomes(m.distribution([0.7, 1.3]), 900, rng), m) for m in (
        build_model(THREE, Probe.fock((1, 1, 1)), psis=[0.3, -0.4]),
        build_model(swapped, Probe.fock((1, 1, 1)), psis=[1.1, 2.5]),
    )]
    _assert_one_point_values_match_the_loop(batches, rng)
    batches = [(sample_outcomes(m.distribution([0.7, 1.3]), 900, rng), m) for m in (
        build_model(four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1)), psis=[0.3, -0.4]),
        build_model(four_mode_mzi(0.5), Probe.fock((1, 1, 1, 1)), psis=[1.1, 2.5]),
    )]
    _assert_one_point_values_match_the_loop(batches, rng)


def test_models_with_other_sector_matrices_do_not_stack():
    fock = build_model(THREE, Probe.fock((1, 1, 1)), psis=[0.3, -0.4])
    # another exit splitter (t_in equal, t_out not) and another probe of the
    # same photon number (t_out equal, t_in not)
    other_circuit = Interferometer(u_in=THREE.u_in, u_out=THREE.u_out.conj(), unknown_modes=(0, 1))
    # two photons in four modes: 10 x 10 sectors like three photons in three
    two_in_four = build_model(four_mode_mzi(0.01), Probe.fock((1, 1, 0, 0)), psis=[0.2, 0.9])
    assert two_in_four.t_out.shape == fock.t_out.shape
    # equal sector matrices, other occupations: only ``occ`` tells them apart
    same_sectors = copy.copy(two_in_four)
    same_sectors.t_in, same_sectors.t_out = fock.t_in, fock.t_out
    for model in (build_model(THREE, Probe.distinguishable((1, 1, 1)), psis=[0.2, 0.9]),
                  build_model(other_circuit, Probe.fock((1, 1, 1)), psis=[0.2, 0.9]),
                  build_model(THREE, Probe.fock((2, 1, 0)), psis=[0.2, 0.9]),
                  two_in_four, same_sectors):
        for pair in ([model, fock], [fock, model]):
            with pytest.raises(ValueError, match="equal sector matrices"):
                stacked_fock_probs(pair)


def test_stacked_one_point_likelihood_of_an_impossible_outcome_is_minus_inf():
    eye = np.eye(3, dtype=complex)
    interf = Interferometer(u_in=eye, u_out=eye, unknown_modes=(0, 1))
    models = [build_model(interf, Probe.fock((1, 1, 1)), psis=psis) for psis in ([0.0, 0.0], [0.5, 1.0])]
    alive = CountRecord(counts=5 * np.array([occ == (1, 1, 1) for occ in models[0].outcomes]),
                        total=5)
    dead = alive.counts.copy()
    dead[next(k for k, occ in enumerate(models[0].outcomes) if occ != (1, 1, 1))] = 1
    dead = CountRecord(counts=dead, total=6)
    x = np.array([[0.3, 0.4]])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isfinite(_stacked_loglik([(alive, models[0]), (alive, models[1])])(x[0])[0])
        for batches in ([(alive, models[0]), (dead, models[1])], [(dead, models[0]), (alive, models[1])]):
            assert _stacked_loglik(batches)(x[0])[0] == -np.inf == _loop_loglik(batches, x)[0]


def _polish_evaluations(monkeypatch, config, seeds):
    """(evaluations of each polish's objective, evaluations of the stack)
    over runs of ``config`` at ``seeds``."""
    polishes, stacked = [], []
    real_polish = adaptive._polish

    def counting_polish(objective, x0):
        polishes.append(0)

        def counted(x):
            polishes[-1] += 1
            return objective(x)

        return real_polish(counted, x0)

    def spy(models):
        probs_at = stacked_fock_probs(models)

        def counted(point):
            stacked.append(point)
            return probs_at(point)

        return counted

    monkeypatch.setattr(adaptive, "_polish", counting_polish)
    monkeypatch.setattr(adaptive, "stacked_fock_probs", spy)
    for seed in seeds:
        run_protocol(config, seed)
    return polishes, stacked


@pytest.mark.parametrize("modes,true", PRESETS)
def test_adaptive_runs_take_the_stacked_one_point_likelihood(modes, true, monkeypatch):
    # every evaluation of a polish's objective is one stacked evaluation,
    # and the stack serves nothing else
    polishes, stacked = _polish_evaluations(monkeypatch, ProtocolConfig(modes=modes, true_phases=true), [5])
    assert len(polishes) >= 3 and sum(polishes) == len(stacked)


def test_polishes_take_a_few_evaluations_each(monkeypatch):
    # Fisher scoring needs a median of 4-5 evaluations per polish where the
    # simplex took ~90; the counts are deterministic, so a return to
    # simplex-sized polishes fails here
    cap = inspect.signature(adaptive._polish).parameters["maxiter"].default
    for modes, true in PRESETS:
        polishes, _ = _polish_evaluations(monkeypatch, ProtocolConfig(modes=modes, true_phases=true), [5, 6])
        assert np.median(polishes) <= 8, (modes, polishes)
        # reaching the cap takes a seed evaluation and one per step at least
        assert max(polishes) <= cap, (modes, polishes)


@pytest.mark.parametrize("modes,true", PRESETS)
def test_a_run_after_the_sector_cache_was_emptied_is_a_cold_run(modes, true, monkeypatch):
    # the cached rough model keeps the sector matrices the cache then drops,
    # so the next run's models are built on fresh ones, equal in value: they
    # stack with the rough model all the same
    import mmzi.fock as fock

    monkeypatch.setattr(fock, "_SECTOR_CACHE", type(fock._SECTOR_CACHE)())
    config = ProtocolConfig(modes=modes, true_phases=true, nu=2000)
    adaptive._rough_model.cache_clear()
    try:
        cold = run_protocol(config, 2)
        run_protocol(config, 1)
        fock._SECTOR_CACHE.clear()
        warm = run_protocol(config, 2)
        rough = adaptive._rough_model(modes, config.phi0)
        model = build_model(config.interferometer(), config.probe(), psis=np.zeros(2))
        assert rough.t_out is not model.t_out
        x = np.array([0.4, 5.0])
        rows = np.concatenate([m.prob_batch(x[None, :], grads=False)[0] for m in (rough, model)])
        assert stacked_fock_probs([rough, model])(x)[0].tobytes() == rows.tobytes()
    finally:
        adaptive._rough_model.cache_clear()  # its matrices are not the cache's
    assert _traces_equal(warm, cold)


def _loop_distinct_peaks(candidates):
    """``_distinct_peaks`` as the generator over kept peaks it replaces."""
    coarse = []
    for x0 in candidates:
        if any(np.max(np.abs(wrap_angle(x0 - c))) < adaptive.PEAK_DEDUP_RADIUS for c in coarse):
            continue
        coarse.append(x0)
        if len(coarse) >= adaptive.PEAK_KEEP:
            break
    return np.array(coarse)


@pytest.mark.parametrize("n_candidates,spread", [(1, 0.1), (5, 0.2), (40, 0.6), (300, TWO_PI)])
def test_distinct_peaks_keep_what_the_loop_keeps(n_candidates, spread):
    rng = np.random.default_rng(n_candidates)
    # candidates on the rough grid around the wrap point 0 = 2pi, where the
    # wrapped distance matters, and at exact multiples of the radius
    grid = np.round(rng.uniform(-spread, spread, (n_candidates, 2)) / 0.05) * 0.05
    candidates = np.mod(np.concatenate([grid, grid[:3] + adaptive.PEAK_DEDUP_RADIUS]), TWO_PI)
    got = adaptive._distinct_peaks(candidates)
    want = _loop_distinct_peaks(candidates)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(got) <= adaptive.PEAK_KEEP
