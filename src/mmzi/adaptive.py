"""Adaptive multi-step maximum-likelihood phase estimation with Monte Carlo
statistics.

The estimator maximizes  L(phi) = log[ prior(phi) * prod_k p(k|phi)^n_k ],
a maximum-likelihood estimator regularized by the Gaussian knowledge
carried over from the previous step.  A protocol run is:

  step 1   controls at zero, a small slice of the budget, flat prior over
           the torus: a rough estimate.  The rough likelihood can have
           several near-tied peaks (mode-relabeling and conjugation
           symmetries of the splitters), so all peaks within a margin of
           the best are kept as candidate hypotheses.
  step 2+  controls shift the best candidate onto a working point; the
           measured counts re-score every candidate window and the winner's
           refined estimate becomes the new Gaussian prior.  Posterior
           widths add information in precision: cov = (P_prior + nu F)^-1,
           the inverse of the refit polish's information at its end point.
  finally  the estimate is refit against the joint likelihood of every
           step's counts, with its width read from the summed per-step
           information sum_s nu_s F_s -- the additivity of the per-step
           Fisher matrices.

Every likelihood polish (each working-point refit and the joint refit's)
is a Fisher-scoring ascent.  A step is x += (sum_b nu_b F_b + P)^-1 grad L,
with P = diag(1 / sigma^2) of the Gaussian prior (zero in the joint refit),
halved until L does not fall.  The gradient and the per-model information
come from the stacked one-point evaluation of the run's models, which
returns analytic gradients; F_b is ``fim_batch``'s sum, with the bits of
``fisher_matrix``.  A polish takes ~5 evaluations where a simplex took
~90; ``nelder_mead`` remains the fallback where the information is
singular or L is -inf at the seed point.

Everything is deterministic given the seed; Monte Carlo repetitions use
seeds derived from the master seed by numpy's SeedSequence.generate_state,
and may run in a pool of forked processes, one seed per task.

The step-1 model (controls at zero) is the same for every run of a preset,
so each process keeps it, with log p of every outcome on the rough-step
torus (126^2 points at ``ROUGH_GRID_STEP``): 1.3 MB for three modes, 4.4 MB
for four.  A process builds it at its first ``run_protocol`` of the preset;
under ``monte_carlo``'s pool that is each child, never the parent, which
only warms the sector matrices the children inherit.  The
``ROUGH_CACHE_SIZE`` presets used last are kept.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from .fisher import fisher_matrix, invert_fisher, SingularSupportError
from .landscape import _local_maxima, _mesh
from .optics import Interferometer, TWO_PI, four_mode_mzi, three_mode_mzi
from .parallel import _usable_cpus, fork_map
from .probes import (OutcomeDistribution, Probe, _fisher_weights, _weighted_gram, build_model,
                     stacked_fock_probs)
from .simplex import nelder_mead

RUN_RECORD_SCHEMA_VERSION = 1

# Working points of the bundled presets (trace-metric minima of the
# landscapes; the three-mode pair is mirror-symmetric).
THREE_MODE_WORKING_POINTS = ((0.8920298, 2.1908384), (2.1908384, 0.8920298))
FOUR_MODE_WORKING_POINT = (np.pi, np.pi)

# The two-step protocol aims slightly off the exact four-mode working point.
# Near [pi, pi] the outcome distribution is almost symmetric under two
# reflections of the offsets (a, b) from [pi, pi]: through the line
# a + b = phi0 and through the line a = b.  Operating exactly at [pi, pi]
# therefore gives every estimate indistinguishable mirror twins a
# rough-error away and the estimator variance blows up.  Backing off along
# both diagonals moves all mirror images far enough out that the rough-step
# data rejects them, at a small sensitivity cost: sqrt([F^-1]_jj) rises
# from 0.433 at [pi, pi] to about 0.437 at the offset point for
# phi0 = 0.01, which is the protocol's achievable precision per phase.
FOUR_MODE_STEP_OFFSET = (-0.060, -0.160)

# Exact phase-indistinguishability groups of the presets: shifting the
# unknown phases by any of these vectors leaves every outcome probability
# unchanged (for all control settings), so the parameters are identifiable
# only modulo the group.  Verified numerically in the test suite.
THREE_MODE_PHASE_GROUP = (
    (0.0, 0.0),
    (2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0),
    (4.0 * np.pi / 3.0, 2.0 * np.pi / 3.0),
)
FOUR_MODE_PHASE_GROUP = ((0.0, 0.0), (np.pi, np.pi))

# Expected estimator std in units of 1/sqrt(nu) for the default protocols.
THREE_MODE_BOUND_COEFF = 0.543
FOUR_MODE_BOUND_COEFF = 0.437

# Search settings of the estimator; run records write the first four.
ROUGH_GRID_STEP = 0.05  # torus grid spacing of the rough-step peak search
GRID_STEP = 0.02  # largest window spacing of a working-point step
REFINE_TOL = 1e-5  # a likelihood polish stops at a step below REFINE_TOL / 100 per axis
MAX_RETRIES = 3  # rough-step re-draws when its information is singular
PEAK_KEEP = 24  # rough peaks kept as hypotheses, at most
PEAK_MARGIN = 25.0  # nats behind the best rough peak before dropping
PEAK_DEDUP_RADIUS = 0.15  # rough peaks closer than this (max norm) merge
REFIT_MARGIN = 40.0  # nats behind the best joint-refit seed before skipping
PRUNE_MARGIN = 60.0  # nats behind the leading hypothesis before dropping
ROUGH_CACHE_SIZE = 4  # presets whose rough model and torus table a process keeps


class RoughStepError(ValueError):
    """The rough step's information stayed singular through every re-draw
    the budget allows; the message names the repetition's seed."""


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi


@dataclass(frozen=True)
class GaussianPrior:
    """Independent Gaussian knowledge per parameter, on the circle."""

    mean: np.ndarray
    sigma: np.ndarray
    log_norm: np.ndarray = field(init=False, repr=False)  # log(sqrt(2pi) sigma)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if mean.shape != sigma.shape:
            raise ValueError("mean and sigma shapes differ")
        if not (np.all(np.isfinite(mean)) and np.all((sigma > 0) & np.isfinite(sigma))):
            raise ValueError("prior means must be finite, and sigmas positive and finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "log_norm", np.log(np.sqrt(TWO_PI) * sigma))

    def log_density(self, phases) -> float:
        delta = wrap_angle(np.asarray(phases, dtype=float) - self.mean)
        return float((-0.5 * (delta / self.sigma) ** 2 - self.log_norm).sum())


@dataclass(frozen=True)
class CountRecord:
    """Occurrence counts aligned with a model's outcome ordering.

    ``observed`` holds the indices of the outcomes seen at least once and
    ``observed_counts`` their counts: the only terms of a log-likelihood.
    """

    counts: np.ndarray
    total: int
    observed: np.ndarray = field(init=False, repr=False, compare=False)
    observed_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        object.__setattr__(self, "counts", counts)
        if abs(float(counts.sum()) - float(self.total)) > 1e-9 * max(1.0, float(self.total)):
            raise ValueError(f"counts sum to {counts.sum()}, expected {self.total}")
        observed = np.flatnonzero(counts > 0)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "observed_counts", counts[observed])


def sample_outcomes(dist: OutcomeDistribution, nu: int, rng) -> CountRecord:
    """Multinomial draw of ``nu`` measurements from a distribution.

    ``rng`` is a numpy Generator or a seed for one; identical seeds give
    identical counts.
    """
    if nu < 1:
        raise ValueError("need nu >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = np.maximum(np.asarray(dist.probs, dtype=float), 0.0)
    counts = rng.multinomial(nu, p / p.sum())
    return CountRecord(counts=counts, total=int(nu))


def log_likelihood(counts: CountRecord, prior: GaussianPrior | None, phases, model) -> float:
    """log prior + sum_k n_k log p(k|phases); -inf when an observed outcome
    has zero probability."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    value = prior.log_density(phases) if prior is not None else 0.0
    return value + float(_joint_loglik_batch([(counts, model)], phases[None, :])[0])


def _stacked_loglik(batches):
    """``loglik(point)``: (value, gradient [n_params], information
    [n_params, n_params]) of the summed flat-prior data log-likelihood of
    (counts, model) batches at one point [n_params].  The information is
    sum_b nu_b F_b, each model's ``fim_batch`` sum (``fisher_matrix``'s bits)
    weighted by its batch's total count.  The value is -inf where an
    observed outcome has zero probability, and the gradient then is not
    finite.  The models, Fock models of one circuit and probe as every
    run's are, are evaluated as one stack, ``stacked_fock_probs``, built
    here once.  The value's bits are those of ``_joint_loglik_batch``: log
    is element-wise, and a 1-D product with the counts is the same dot as
    its [1, n_obs] one."""
    probs_at = stacked_fock_probs([m for _, m in batches])
    observed = [(counts.observed, counts.observed_counts) for counts, _ in batches]
    totals = np.array([[[counts.total]] for counts, _ in batches], dtype=float)  # [K, 1, 1]

    def loglik(point):  # callers ignore the warnings of log(0) = -inf and n / 0
        probs, grads = probs_at(point)
        value, score = 0.0, 0.0
        for p, g, (index, weights) in zip(probs, grads, observed):
            p = p.take(index)
            value += np.log(p) @ weights
            score = score + (weights / p) @ g.take(index, axis=0)
        return value, score, (totals * _weighted_gram(_fisher_weights(probs), grads)).sum(axis=0)

    return loglik


def _with_prior(loglik, prior: GaussianPrior):
    """``loglik`` plus the log density of ``prior``, whose gradient is
    -wrap_angle(x - mean) / sigma^2 and whose information is diag(1 / sigma^2)."""
    precision = 1.0 / prior.sigma**2

    def posterior(x):
        value, score, info = loglik(x)
        return (prior.log_density(x) + value, score - wrap_angle(x - prior.mean) * precision,
                info + np.diag(precision))

    return posterior


def _summed_loglik(batches, n_pts, probs_of):
    """Summed flat-prior data log-likelihood [n_pts] of (counts, model)
    batches, ``probs_of(model)`` giving each model's probabilities [n_pts,
    n_out]; -inf where an observed outcome has zero probability."""
    total = np.zeros(n_pts)
    with np.errstate(divide="ignore"):
        for counts, model in batches:
            p = probs_of(model)[:, counts.observed]
            total += np.log(p, out=p) @ counts.observed_counts
            del p  # not held while the next model evaluates: that would lift the peak memory
    return total


def _joint_loglik_batch(batches, points: np.ndarray) -> np.ndarray:
    """``_summed_loglik`` at points [n_pts, n_params], from ``prob_batch``."""
    return _summed_loglik(batches, len(points),
                          lambda model: model.prob_batch(points, grads=False)[0])


def _grid_loglik(batches, axes) -> np.ndarray:
    """``_summed_loglik`` on the product grid of ``axes`` in ``_mesh``
    order, from each model's ``grid_probs``: the points are never built."""
    return _summed_loglik(batches, int(np.prod([len(a) for a in axes])),
                          lambda model: model.grid_probs(axes))


def _grid_points(axes, flat):
    """Points [len(flat), len(axes)] of the product grid of ``axes`` at flat
    indices ``flat`` in ``_mesh`` order: the rows ``_mesh(axes)[flat]``."""
    index = np.unravel_index(flat, [len(a) for a in axes])
    return np.column_stack([a[i] for a, i in zip(axes, index)])


def _invert_information(info):
    """``invert_fisher`` at the estimator's thresholds."""
    return invert_fisher(info, cond_threshold=1e12, det_threshold=1e-30)


def _width(info):
    """sqrt(diag(info^-1)), or None when ``info`` is singular or a diagonal
    entry of its inverse is not positive."""
    inv = _invert_information(info)
    if inv.singular or not np.all(np.diag(inv.inverse) > 0):
        return None
    return np.sqrt(np.diag(inv.inverse))


def _joint_sigma(batches, estimate):
    """Width from the summed information of several (counts, model) batches."""
    n = len(estimate)
    info = np.zeros((n, n))
    for counts, model in batches:
        try:
            info += counts.total * fisher_matrix(model.distribution(estimate)).matrix
        except SingularSupportError:
            continue
    return _width(info)


def _polish(objective, x0, maxiter=50):
    """Fisher-scoring maximum of a log-likelihood from ``x0``: (x, value,
    information) at the x reached, where ``objective(x)`` gives (value,
    gradient, information).  Each step is information^-1 gradient, halved
    until the value does not fall; the ascent stops once a step is below
    ``REFINE_TOL`` / 100 on every axis, taken or not, or after ``maxiter``
    steps.  Where the value at ``x0`` is -inf or the information is singular
    or NaN, ``nelder_mead`` minimizes -value from the point reached instead,
    and one more ``objective`` call gives the information at its result."""
    x = np.asarray(x0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf and n / 0
        value, score, info = objective(x)
        for _ in range(maxiter):
            inv = _invert_information(info)
            if value == -np.inf or inv.singular:
                x, fun = nelder_mead(lambda y: -objective(y)[0], x,
                                     xatol=REFINE_TOL, fatol=1e-10, maxiter=400)
                return x, -fun, objective(x)[2]
            step = inv.inverse @ score
            trial = objective(x + step)
            while not trial[0] >= value:  # a NaN value falls too
                if np.all(np.abs(step) < REFINE_TOL / 100):
                    return x, value, info
                step = step / 2.0
                trial = objective(x + step)
            x, (value, score, info) = x + step, trial
            if np.all(np.abs(step) < REFINE_TOL / 100):
                break
    return x, value, info


def _window_peaks(batches, mean, sigma, step, top=1):
    """(point, value) of the ``top`` highest local maxima of the joint
    likelihood of ``batches`` on the grid mean +/- 5 sigma at spacing
    ``step`` (scalar or one per axis); ``top=1`` is the grid maximum.  A
    half-width is capped at pi, so a window never spans more than the
    torus."""
    steps = np.broadcast_to(step, np.shape(sigma))
    halves = [min(5.0 * s, np.pi) for s in sigma]
    # each axis shifted by its mean: the floats of the rows of _mesh(axes) + mean
    axes = [np.arange(-h, h + d / 2, d) + m for h, d, m in zip(halves, steps, mean)]
    values = _grid_loglik(batches, axes)
    if top == 1:
        best = [int(np.argmax(values))]
    else:
        flat = np.flatnonzero(_local_maxima(values.reshape([len(a) for a in axes])))
        best = flat[np.argsort(values[flat])[::-1][:top]]
    return [(x, float(values[j])) for x, j in zip(_grid_points(axes, best), best)]


def _torus(n_params: int):
    """The axes, one per parameter, of the rough-step grid over the torus
    at spacing ``ROUGH_GRID_STEP``."""
    steps = max(int(np.ceil(TWO_PI / ROUGH_GRID_STEP)), 16)
    return [np.arange(steps) * TWO_PI / steps] * n_params


@lru_cache(maxsize=ROUGH_CACHE_SIZE)
def _rough_model(modes: int, phi0: float):
    """The controls-at-zero model of a preset, carrying ``torus_log_p``:
    log p [n_points, n_outcomes] on the ``_torus`` grid, the same array
    ``_joint_loglik_batch`` computes there before it picks the observed
    outcomes.  It keeps ``prob_batch``'s bits, not ``grid_probs``': at
    zero controls the likelihood has exactly tied reflection images, and
    these bits choose the rough step's crude estimate among them."""
    config = ProtocolConfig(modes=modes, true_phases=(0.0, 0.0), phi0=phi0)
    interf = config.interferometer()
    model = build_model(interf, config.probe(), psis=np.zeros(interf.n_params))
    probs = model.prob_batch(_mesh(_torus(model.n_params)), grads=False)[0]
    with np.errstate(divide="ignore"):
        model.torus_log_p = np.log(probs, out=probs)
    model.torus_log_p.flags.writeable = False
    return model


def _distinct_peaks(candidates):
    """The first ``PEAK_KEEP`` rows of ``candidates`` [n, n_params] (best
    first) that lie at least ``PEAK_DEDUP_RADIUS`` (wrapped max norm) from
    every row kept before them; each candidate takes one ``wrap_angle`` over
    the kept rows."""
    kept = np.empty((PEAK_KEEP, candidates.shape[1]))
    n_kept = 0
    for x0 in candidates:
        if np.any(np.max(np.abs(wrap_angle(x0 - kept[:n_kept])), axis=1) < PEAK_DEDUP_RADIUS):
            continue
        kept[n_kept] = x0
        n_kept += 1
        if n_kept == PEAK_KEEP:
            break
    return kept[:n_kept]


def _likelihood_peaks(batches):
    """Local maxima of the joint flat-prior likelihood of one or more
    (counts, model) batches over the ``_torus`` grid, sharpened on a
    batched sub-grid, sorted by likelihood; peaks more than
    ``PEAK_MARGIN`` nats below the best are dropped.  The grid values are
    summed batch by batch, from the model's ``torus_log_p`` where it has
    one, else from ``_grid_loglik``.

    At a single control setting the likelihood carries many near-tied
    peaks (the exact shift group of the splitters plus reflection-type
    images that only a change of controls can discriminate), so a generous
    ``PEAK_KEEP`` matters: every surviving peak is a candidate hypothesis for
    the next step.  Sub-grid accuracy suffices here; the working-point
    refits supply the precision.
    """
    n_params = batches[0][1].n_params
    axes = _torus(n_params)
    shape = [len(a) for a in axes]
    data = np.zeros(np.prod(shape))
    for counts, model in batches:
        log_p = getattr(model, "torus_log_p", None)
        if log_p is None:
            data += _grid_loglik([(counts, model)], axes)
        else:
            data += log_p[:, counts.observed] @ counts.observed_counts
    data = data.reshape(shape)
    flat_idx = np.flatnonzero(_local_maxima(data))
    coarse = _distinct_peaks(_grid_points(axes, flat_idx[np.argsort(data.ravel()[flat_idx])[::-1]]))
    # one batched sub-grid pass sharpens every peak position
    local = _mesh([np.arange(-2, 3) * (ROUGH_GRID_STEP / 5.0)] * n_params)
    sub_points = (coarse[:, None, :] + local[None, :, :]).reshape(-1, n_params)
    sub_values = _joint_loglik_batch(batches, sub_points).reshape(len(coarse), -1)
    peaks = []
    for k in range(len(coarse)):
        j = int(np.argmax(sub_values[k]))
        peaks.append((np.mod(coarse[k] + local[j], TWO_PI), float(sub_values[k, j])))
    peaks.sort(key=lambda t: -t[1])
    best_value = peaks[0][1]
    return [(x, v) for x, v in peaks if v >= best_value - PEAK_MARGIN]


@dataclass(frozen=True)
class StepRecord:
    name: str
    psis: np.ndarray
    nu: int
    counts: CountRecord
    posterior: GaussianPrior
    retries: int = 0
    candidates: tuple = ()


@dataclass(frozen=True)
class ProtocolTrace:
    steps: tuple[StepRecord, ...]
    final_estimate: np.ndarray
    final_sigma: np.ndarray
    seed: object
    nu_total: int

    def budgets(self) -> list[int]:
        return [s.nu for s in self.steps]


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to reproduce one adaptive run (modulo the seed)."""

    modes: int  # 3 or 4
    true_phases: tuple[float, float]
    nu: int = 10000
    fractions: tuple[float, ...] = ()
    phi0: float = 0.01
    bound_coeff: float | None = None

    def __post_init__(self):
        if self.modes not in (3, 4):
            raise ValueError("modes must be 3 or 4")
        fractions = self.fractions or ((0.1, 0.45, 0.45) if self.modes == 3 else (0.1, 0.9))
        object.__setattr__(self, "fractions", tuple(float(f) for f in fractions))
        object.__setattr__(self, "true_phases", tuple(float(x) for x in self.true_phases))
        expected = 3 if self.modes == 3 else 2
        if len(self.fractions) != expected:
            raise ValueError(f"{self.modes}-mode protocol needs {expected} fractions")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        coeff = self.bound_coeff
        if coeff is None:
            coeff = THREE_MODE_BOUND_COEFF if self.modes == 3 else FOUR_MODE_BOUND_COEFF
        object.__setattr__(self, "bound_coeff", float(coeff))

    def interferometer(self) -> Interferometer:
        if self.modes == 3:
            return three_mode_mzi()
        if not self.phi0 > 0:
            raise ValueError(
                "four-mode protocol requires phi0 > 0: at phi0 = 0 the "
                "information matrix is singular at the working point and the "
                "second step cannot converge"
            )
        return four_mode_mzi(self.phi0)

    def probe(self) -> Probe:
        return Probe.fock((1,) * self.modes)

    def targets(self):
        if self.modes == 3:
            return [np.array(p) for p in THREE_MODE_WORKING_POINTS]
        return [np.array(FOUR_MODE_WORKING_POINT) + FOUR_MODE_STEP_OFFSET]

    def phase_group(self):
        group = THREE_MODE_PHASE_GROUP if self.modes == 3 else FOUR_MODE_PHASE_GROUP
        return [np.array(s) for s in group]

    def to_dict(self) -> dict:
        """The fields plus the estimator's search settings."""
        return asdict(self) | {
            "rough_grid_step": ROUGH_GRID_STEP,
            "grid_step": GRID_STEP,
            "refine_tol": REFINE_TOL,
            "max_retries": MAX_RETRIES,
        }


def _split_budget(nu: int, fractions) -> list[int]:
    raw = [f * nu for f in fractions]
    floors = [int(np.floor(r)) for r in raw]
    remainder = nu - sum(floors)
    order = np.argsort([f - r for f, r in zip(floors, raw)])  # largest residue first
    for idx in order[:remainder]:
        floors[idx] += 1
    return floors


@dataclass
class _Hypothesis:
    """One tracked basin of the multi-peaked likelihood: a running mean and
    width plus the accumulated log-likelihood of all data under it."""

    mean: np.ndarray
    sigma: np.ndarray
    score: float


def run_protocol(config: ProtocolConfig, seed) -> ProtocolTrace:
    """One full adaptive run; ``seed`` feeds a fresh numpy Generator.

    Because the rough-circuit likelihood has exactly and nearly degenerate
    images of the truth, the run tracks one hypothesis per rough peak.
    Control phases for each working-point step anchor on the current best
    hypothesis; every hypothesis is refit against each step's counts and
    scored by its accumulated data log-likelihood.  The final estimate
    maximizes the joint likelihood of all steps together, and its width
    comes from the summed per-step information  sum_s nu_s F_s  at the
    estimate (the additivity of the per-step Fisher matrices).

    Raises ``RoughStepError`` when the rough-step information is singular
    after ``MAX_RETRIES`` re-draws, or once a re-draw would exhaust the
    remaining budget.
    """
    rng = np.random.default_rng(seed)
    interf = config.interferometer()
    probe = config.probe()
    true = np.asarray(config.true_phases, dtype=float)
    n = len(true)
    budgets = _split_budget(config.nu, config.fractions)
    targets = config.targets()
    steps: list[StepRecord] = []
    collected: list[tuple] = []  # (counts, model) per executed step

    # --- rough step, split over two control settings.  The first half runs
    # with controls at zero; a single setting leaves an order ~18 set of
    # near-tied likelihood images (exact shifts composed with
    # reflection-type maps), so the second half applies controls that steer
    # the crude estimate onto the first working point.  The pair of
    # settings leaves only the exact shift group, and the second half's
    # counts are taken where the circuit is most informative.
    model_a = _rough_model(config.modes, config.phi0)
    nu_rough = budgets[0]
    nu_a = nu_rough - nu_rough // 2
    nu_b = nu_rough // 2
    remaining = list(budgets[1:])
    retries = 0
    while True:
        batch_a = (sample_outcomes(model_a.distribution(true), nu_a, rng), model_a)
        crude = _likelihood_peaks([batch_a])[0][0]
        psis_b = wrap_angle(targets[0] - crude)
        model_b = build_model(interf, probe, psis=psis_b)
        batch_b = (sample_outcomes(model_b.distribution(true), nu_b, rng), model_b)
        rough_batches = [batch_a, batch_b]
        peaks = _likelihood_peaks(rough_batches)
        rough = peaks[0][0]
        sigma = _joint_sigma(rough_batches, rough)
        if sigma is not None:
            break
        retries += 1
        if retries > MAX_RETRIES or max(remaining) <= nu_rough:
            raise RoughStepError(
                f"seed {seed}: the rough-step information is singular after "
                f"{retries - 1} re-draws (at most {MAX_RETRIES}, budget permitting)"
            )
        # re-draw with budget taken from the largest remaining step
        take = int(np.argmax(remaining))
        remaining[take] -= nu_rough
    collected.extend(rough_batches)
    hypotheses = []
    for k, (position, value) in enumerate(peaks):
        # peaks[0] is ``rough``, whose width the retry loop already has
        hyp_sigma = sigma if k == 0 else _joint_sigma(rough_batches, position)
        hypotheses.append(
            _Hypothesis(
                mean=position,
                sigma=hyp_sigma if hyp_sigma is not None else sigma,
                score=value,
            )
        )
    rough_centers = [(h.mean, h.sigma) for h in hypotheses]
    best = max(hypotheses, key=lambda h: h.score)
    steps.append(
        StepRecord(
            name="rough",
            psis=np.zeros(n),
            nu=nu_rough * (1 + retries),
            counts=rough_batches[0][0],
            posterior=GaussianPrior(best.mean, best.sigma),
            retries=retries,
            candidates=tuple(h.mean for h in hypotheses),
        )
    )

    # --- working-point steps
    anchors = []  # phase value each step's controls map onto its target
    for step_idx, (target, nu_step) in enumerate(zip(targets, remaining)):
        psis = wrap_angle(target - best.mean)
        anchors.append(np.array(best.mean, dtype=float))
        model = build_model(interf, probe, psis=psis)
        dist = model.distribution(true)
        counts = sample_outcomes(dist, nu_step, rng)
        collected.append((counts, model))

        # one batched pass scores all hypothesis windows; only windows whose grid
        # peak is competitive earn a likelihood polish, which also gives the width
        window_peaks = [
            _window_peaks([(counts, model)], hyp.mean, hyp.sigma,
                          min(GRID_STEP, float(np.min(hyp.sigma)) / 2.0))[0]
            for hyp in hypotheses
        ]
        lead = max(v for _, v in window_peaks)
        # log_likelihood less its prior
        loglik = _stacked_loglik([(counts, model)])
        for hyp, (x0, grid_value) in zip(hypotheses, window_peaks):
            prior = GaussianPrior(hyp.mean, hyp.sigma)
            if grid_value < lead - PRUNE_MARGIN:
                hyp.mean = np.mod(x0, TWO_PI)
                hyp.score += grid_value + prior.log_density(x0)
                continue
            x, value, info = _polish(_with_prior(loglik, prior), x0)
            sigma_post = _width(info)
            if sigma_post is None:
                sigma_post = hyp.sigma / np.sqrt(1.0 + nu_step / counts.total)
            hyp.mean, hyp.sigma = np.mod(x, TWO_PI), sigma_post
            hyp.score += value
        top = max(h.score for h in hypotheses)
        hypotheses = [h for h in hypotheses if h.score >= top - PRUNE_MARGIN]
        best = max(hypotheses, key=lambda h: h.score)
        steps.append(
            StepRecord(
                name=f"working-point-{step_idx + 1}",
                psis=psis,
                nu=nu_step,
                counts=counts,
                posterior=GaussianPrior(best.mean, best.sigma),
                candidates=tuple(h.mean for h in hypotheses),
            )
        )

    final_estimate, final_sigma = _joint_refit(
        collected, hypotheses, anchors, rough_centers, config.phase_group()
    )
    return ProtocolTrace(
        steps=tuple(steps),
        final_estimate=final_estimate,
        final_sigma=final_sigma,
        seed=seed,
        nu_total=int(sum(s.nu for s in steps)),
    )


def _near_images(x, estimate, sigma, group):
    """Whether ``x`` lies within 5 widths ``sigma``, on every axis, of
    ``estimate`` or one of its phase-group images."""
    return any(np.max(np.abs(wrap_angle(x - estimate - shift)) / sigma) < 5.0
               for shift in group)


def _joint_refit(collected, hypotheses, anchors, rough_centers, group):
    """Maximize the joint likelihood of every step's counts.

    Each surviving hypothesis seeds a local grid; so does its reflection
    through every step's anchor point, because near a working point the
    outcome distribution is almost even around the anchor and a single
    step can leave the fit on the wrong side.  The joint likelihood of all
    steps breaks those ties.  The best few seeds get a likelihood polish and
    the final width comes from the summed per-step information
    sum_s nu_s F_s at the winner, through ``invert_fisher`` (NaN when that
    sum is singular).

    A reflection through an anchor composes the two line reflections of
    the four-mode working point (``FOUR_MODE_STEP_OFFSET``), so when a
    working-point window reaches the a <-> b mirror image every hypothesis
    and every reflected seed sits in the mirror basin.  Each rough-step
    hypothesis (``rough_centers``: mean, width) therefore also gets a
    window on the joint likelihood.  A window whose grid peak is within
    ``REFIT_MARGIN`` nats of the winner and more than 5 final widths from
    the winner and its ``group`` images is polished; the result replaces
    the winner only in another basin and with a strictly higher joint
    likelihood.
    """
    n = len(hypotheses[0].mean)
    loglik = _stacked_loglik(collected)
    seeds = []
    for hyp in hypotheses:
        step = np.maximum(hyp.sigma / 2.0, 1e-6)
        for mean in [hyp.mean] + [2.0 * anchor - hyp.mean for anchor in anchors]:
            seeds.extend(_window_peaks(collected, mean, hyp.sigma, step, top=3))
    seeds.sort(key=lambda t: -t[1])
    best_x, best_value = None, -np.inf
    for x0, value in seeds[:8]:
        if value < seeds[0][1] - REFIT_MARGIN:
            break
        x, value, _ = _polish(loglik, x0)
        if value > best_value:
            best_value, best_x = value, x
    estimate = np.mod(best_x, TWO_PI)
    sigma = _joint_sigma(collected, estimate)
    for mean, width in rough_centers:
        if sigma is None:
            break
        [(x0, value)] = _window_peaks(collected, mean, width, np.maximum(width / 2.0, 1e-6))
        if value < best_value - REFIT_MARGIN or _near_images(x0, estimate, sigma, group):
            continue
        x, value, _ = _polish(loglik, x0)
        if value > best_value and not _near_images(x, estimate, sigma, group):
            best_value, estimate = value, np.mod(x, TWO_PI)
            sigma = _joint_sigma(collected, estimate)
    return estimate, (np.full(n, np.nan) if sigma is None else sigma)


def derive_seeds(master_seed, repetitions: int) -> list[int]:
    """Per-repetition seeds: the first ``repetitions`` 64-bit words of
    SeedSequence(master_seed)."""
    words = np.random.SeedSequence(master_seed).generate_state(repetitions, dtype=np.uint64)
    return [int(w) for w in words]


def quotient_errors(estimates: np.ndarray, true_phases, group) -> np.ndarray:
    """Wrapped estimation errors modulo the phase-indistinguishability group.

    For each estimate the group image with the smallest wrapped distance to
    the true phases is selected; statistics on these errors measure the
    estimator on the physically identifiable quotient of the torus.
    """
    true = np.asarray(true_phases, dtype=float)
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    candidates = np.stack(
        [wrap_angle(estimates + np.asarray(shift) - true) for shift in group]
    )  # [n_group, n_reps, n_params]
    norms = np.max(np.abs(candidates), axis=2)
    best = np.argmin(norms, axis=0)
    return candidates[best, np.arange(estimates.shape[0])]


@dataclass(frozen=True)
class MonteCarloStats:
    repetitions: int
    std: np.ndarray            # circular std of the final estimates, radians
    bias: np.ndarray           # mean wrapped deviation from the true phases
    bound: np.ndarray          # configured bound coeff / sqrt(nu)
    ratio: np.ndarray          # std / bound
    predicted_sigma: np.ndarray  # mean per-run width from summed information
    estimates: np.ndarray = field(repr=False)
    config: ProtocolConfig = field(repr=False, default=None)
    master_seed: object = None


def _final_state(config: ProtocolConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """(final_estimate, final_sigma) of one run: all a pool worker sends back."""
    trace = run_protocol(config, seed)
    return trace.final_estimate, trace.final_sigma


def monte_carlo(config: ProtocolConfig, repetitions: int, master_seed) -> MonteCarloStats:
    """Repeat the protocol with derived per-repetition seeds and summarize.

    Statistics are computed on the identifiable quotient: each estimate is
    mapped to its phase-group image nearest the true phases and the wrapped
    deviations give bias (vs truth) and std.

    Forked processes share the repetitions, one per usable CPU but never
    more than the repetitions; the CPU affinity set (``taskset``) limits
    them.  Results are stored in seed order, so the statistics do not
    depend on the process count.  With one usable CPU, or where the
    platform cannot fork, the runs take place in this process.  Every run
    uses one OpenBLAS thread; the serial loop restores the previous count.
    """
    if repetitions < 2:
        raise ValueError("need repetitions >= 2")
    # the sector matrices of the preset, built once here for every child
    build_model(config.interferometer(), config.probe())
    finals = fork_map(partial(_final_state, config), derive_seeds(master_seed, repetitions),
                      min(repetitions, _usable_cpus()))
    estimates, sigmas = (np.array(column, dtype=float) for column in zip(*finals))
    errors = quotient_errors(estimates, config.true_phases, config.phase_group())
    bias = errors.mean(axis=0)
    std = errors.std(axis=0, ddof=1)
    bound = config.bound_coeff / np.sqrt(config.nu) * np.ones_like(std)
    return MonteCarloStats(
        repetitions=repetitions,
        std=std,
        bias=bias,
        bound=bound,
        ratio=std / bound,
        predicted_sigma=sigmas.mean(axis=0),
        estimates=estimates,
        config=config,
        master_seed=master_seed,
    )


def run_record_dict(stats: MonteCarloStats) -> dict:
    import datetime

    return {
        "schema_version": RUN_RECORD_SCHEMA_VERSION,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": stats.config.to_dict(),
        "master_seed": stats.master_seed,
        "repetitions": stats.repetitions,
        "estimates": [[float(x) for x in row] for row in stats.estimates],
        "summary": {
            "std": [float(x) for x in stats.std],
            "bias": [float(x) for x in stats.bias],
            "bound": [float(x) for x in stats.bound],
            "ratio": [float(x) for x in stats.ratio],
            "std_sqrt_nu": [float(x * np.sqrt(stats.config.nu)) for x in stats.std],
            "predicted_sigma": [float(x) for x in stats.predicted_sigma],
        },
    }


def write_run_record(record: dict, path) -> None:
    """Write a run record (``run_record_dict`` plus any extra entries)."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
