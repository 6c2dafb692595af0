"""Photon-counting outcome distributions for Fock, distinguishable and coherent probes.

Each probe kind gets a model object bound to a fixed interferometer
(entrance/exit splitters plus static control phases).  Models expose

* ``distribution(phis)``  -- exact probabilities and analytic gradients
  with respect to the unknown phases, packaged as an OutcomeDistribution;
* ``prob_batch(points, grads=True)``  -- the same quantities evaluated for
  many phase points at once, used by landscape scans and likelihood grids.
  ``points`` is [n_pts, n_params]; the result is (probs [n_pts, n_out],
  grads [n_pts, n_out, n_params]).  With ``grads=False`` the result is
  (probs, None) and no derivative is computed; ``probs`` is bit for bit the
  array the ``grads=True`` call returns, so likelihoods that need only
  probabilities take this path without moving an output;
* ``fim_batch(points)``  -- the classical Fisher information of the counts
  at many phase points: (F [n_pts, n_params, n_params], support_bad
  [n_pts]).  ``support_bad`` marks points where an outcome has probability
  below ``ZERO_PROB`` and a gradient above ``ZERO_GRAD``, so the
  information diverges; outcomes below ``ZERO_PROB`` add nothing to F.
  The base method sums over the outcome list of ``prob_batch``; the
  coherent model uses the Poisson closed form instead.

Points may be any real phases: every evaluation path of a model reduces
them with ``np.mod(points, 2pi)`` once, as ``Interferometer.unitary``
does, before adding the control phases, so callers pass them unreduced.
Reducing twice is not the same: ``np.mod`` maps a tiny negative phase to
exactly 2pi, and a second ``np.mod`` maps that to 0.

The models share one private base, ``_ProbeModel``, which checks the probe,
builds the per-mode phase vectors and packages ``distribution``.  A model
subclass sets ``kind`` (the probe kind it accepts) and ``basis`` (its
ordered outcome list) and defines ``prob_batch`` with the contract above;
``fim_batch`` is inherited unless the model has a closed form.

For a Fock probe the amplitude on outcome x factorizes over the n-photon
intermediate basis m as

    A(x | phi) = sum_m  <x|U_out|m> exp(-i m . theta) <m|U_in|probe>,

so the two sector matrices are computed once and every phase point costs a
pair of small matrix-vector products.  Differentiating the phase factor
pulls down ``-i m_k`` for the mode k carrying the parameter, giving the
gradients from the same precomputation.

Fock models whose ``occ``, ``t_in`` and ``t_out`` are equal in value (one
circuit and probe, each model with its own controls) can be evaluated as
one stack: ``stacked_fock_probs`` compares them once and builds a function
that evaluates the models at one phase point as a [K, n_states, 1] stack.
The adaptive likelihood takes it for every one-point evaluation of a run's
models.  The bits equal those of one ``prob_batch`` call per model,
because numpy's stacked matmul runs each layer as the same matrix-vector
product and every other step is element-wise.

The distinguishable model convolves the photons' mode distributions one
photon at a time.  Adding photon k maps each (source state, mode) to a
target state; these triples are split once per model into layers that
hold a target at most once, the i-th triple of a target in loop order in
layer i, so one layer is one vectorised update and every target still adds
its terms in the loop's order, with the loop's bits.  The layers run over
blocks of at most ``_CONVOLUTION_BLOCK`` = 1,024 points: over a whole
8,192-point scan chunk their gathered temporaries raised a four-mode
scan's peak memory by ~8 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import exp, factorial, lgamma, log

import numpy as np

try:  # np.einsum calls it with no Python wrapper in between
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .fock import basis_index, enumerate_fock_basis, sector_unitary
from .optics import TWO_PI, Interferometer

PROB_SUM_TOL = 1e-10

COHERENT_TAIL = 1e-8  # Poisson tail mass a coherent model's outcome list leaves out

# Zero-probability outcomes are dropped from the classical sum only when
# their gradient also vanishes (removable limit); otherwise the matrix
# diverges at that phase point.  A dropped outcome's information is lost:
# at (pi, pi) on the four-mode preset (phi0 = 0.01) outcome 0 has
# p = 5.86e-15, so Tr F^-1 reads 0.37507031959031, 1.2e-10 above the
# exact 0.375070319473093.
ZERO_PROB = 1e-14
ZERO_GRAD = 1e-10

_CONVOLUTION_BLOCK = 1024  # phase points per layered distinguishable convolution


@dataclass(frozen=True)
class Probe:
    """Input state of the interferometer.

    kind "fock": indistinguishable photons with ``occupations`` per mode.
    kind "distinguishable": same occupations but mutually distinguishable
    photons (each evolves independently).
    kind "coherent": amplitude ``alpha`` injected into ``input_mode``.
    """

    kind: str
    occupations: tuple[int, ...] | None = None
    alpha: float | None = None
    input_mode: int = 0

    def __post_init__(self):
        if self.kind in ("fock", "distinguishable"):
            if self.occupations is None or sum(self.occupations) < 1:
                raise ValueError(f"{self.kind} probe needs occupations with N >= 1")
            object.__setattr__(self, "occupations", tuple(int(x) for x in self.occupations))
        elif self.kind == "coherent":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("coherent probe needs alpha > 0")
        else:
            raise ValueError(f"unknown probe kind {self.kind!r}")

    @classmethod
    def fock(cls, occupations) -> "Probe":
        return cls(kind="fock", occupations=tuple(occupations))

    @classmethod
    def distinguishable(cls, occupations) -> "Probe":
        return cls(kind="distinguishable", occupations=tuple(occupations))

    @classmethod
    def coherent(cls, alpha: float, input_mode: int = 0) -> "Probe":
        return cls(kind="coherent", alpha=float(alpha), input_mode=int(input_mode))

    @property
    def total_photons(self) -> int:
        if self.occupations is None:
            raise ValueError("coherent probe has no fixed photon number")
        return sum(self.occupations)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Photon-counting statistics at one phase setting.

    ``outcomes[k]`` is an occupation tuple, ``probs[k]`` its probability and
    ``grads[k, j]`` = d probs[k] / d phi_j.  The model that produced it
    states, as ``mass_tol``, how far sum(probs) may miss 1.
    """

    outcomes: tuple[tuple[int, ...], ...]
    probs: np.ndarray
    grads: np.ndarray

    @property
    def n_params(self) -> int:
        return self.grads.shape[1]


def _support_bad(probs, grads):
    """Points [n_pts] where an outcome below ``ZERO_PROB`` still has a
    gradient above ``ZERO_GRAD``; ``probs`` is [n_pts, n_out] and ``grads``
    [n_pts, n_out, n_params]."""
    low = probs < ZERO_PROB
    if not low.any():  # most calls: no gradient needs reading
        return np.zeros(len(probs), dtype=bool)
    # a pairwise maximum over the parameters: numpy's max over the short
    # last axis is ~15x slower on a scan chunk
    grad_norm = reduce(np.maximum, [np.abs(grads[:, :, j]) for j in range(grads.shape[2])])
    return np.any(low & (grad_norm > ZERO_GRAD), axis=1)


def _fisher_weights(probs):
    """1 / p per outcome, 0 where p is below ``ZERO_PROB``."""
    return np.where(probs >= ZERO_PROB, 1.0 / np.maximum(probs, 1e-300), 0.0)


def _weighted_gram(w, g):
    """F[p, j, k] = sum_x w[p, x] g[p, x, j] g[p, x, k], one einsum per
    j <= k with the lower triangle mirrored from the upper."""
    n = g.shape[2]
    f = np.empty((g.shape[0], n, n))
    for j in range(n):
        wg = w * g[:, :, j]
        for k in range(j, n):
            f[:, j, k] = np.einsum("xk,xk->x", wg, g[:, :, k])
        f[:, j + 1:, j] = f[:, j, j + 1:]
    return f


class _ProbeModel:
    """Base of the probe models; the subclass contract, including that of
    ``prob_batch(points, grads=True)``, is in the module docstring."""

    kind = ""
    mass_tol = PROB_SUM_TOL  # how far sum(probs) may miss 1

    def __init__(self, interf: Interferometer, probe: Probe, psis=None):
        if probe.kind != self.kind:
            raise ValueError(f"{type(self).__name__} requires a {self.kind} probe")
        if probe.occupations is not None and len(probe.occupations) != interf.d:
            raise ValueError("probe occupations do not match mode count")
        self.interf = interf
        self.probe = probe
        self.theta_offset = interf.control_phases(psis)
        self.unknown_modes = np.array(interf.unknown_modes, dtype=int)
        self._unknown_offset = self.theta_offset[self.unknown_modes]

    @property
    def n_params(self) -> int:
        return len(self.unknown_modes)

    @property
    def outcomes(self):
        return self.basis

    def _theta(self, points) -> np.ndarray:
        """Per-mode phases [n_pts, d] for unknown-phase points [n_pts, n_params],
        reduced modulo 2pi here."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        theta = np.empty((points.shape[0], len(self.theta_offset)))
        theta[:] = self.theta_offset
        # one fancy-index write, not a read, add and write: the same sums
        theta[:, self.unknown_modes] = np.mod(points, TWO_PI) + self._unknown_offset
        return theta

    def distribution(self, phis) -> OutcomeDistribution:
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        if phis.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} unknown phases, got shape {phis.shape}")
        probs, grads = self.prob_batch(phis[None, :])
        return OutcomeDistribution(
            outcomes=self.basis,
            probs=probs[0],
            grads=grads[0],
        )

    def fim_batch(self, points: np.ndarray):
        """Fisher information summed over the outcome list; the contract is
        in the module docstring."""
        probs, grads = self.prob_batch(points)
        return _weighted_gram(_fisher_weights(probs), grads), _support_bad(probs, grads)


class FockProbeModel(_ProbeModel):
    """Exact evolution of an indistinguishable-photon probe."""

    kind = "fock"

    def __init__(self, interf: Interferometer, probe: Probe, psis=None):
        super().__init__(interf, probe, psis)
        n = probe.total_photons
        d = interf.d
        self.basis = enumerate_fock_basis(d, n)
        self.occ = np.array(self.basis, dtype=float)  # [n_states, d]
        probe_idx = basis_index(d, n)[probe.occupations]
        self.t_in = sector_unitary(interf.u_in, n)[:, probe_idx]  # <m|U_in|probe>
        self._t_in_col = self.t_in[:, None]
        self.t_out = sector_unitary(interf.u_out, n)  # [x, m]
        # -i m_j per intermediate state, one column [n_states, 1] per parameter,
        # m_j the occupation of the mode carrying parameter j
        self._generators = [(-1j * m)[:, None] for m in self.occ[:, self.unknown_modes].T]

    def _amplitudes(self, theta_t):
        """The phased input column v [n_states, n_pts] and the amplitudes
        [n_out, n_pts] at per-mode phases theta_t [d, n_pts], or v
        [K, n_states, 1] and the amplitudes [K, n_out, 1] at a stack
        theta_t [K, d, 1]."""
        # exp and the t_in product overwrite one buffer: on the 15,876-point
        # rough torus each extra [n_states, n_pts] array costs 8.9 MB
        w = -1j * (self.occ @ theta_t)
        v = np.multiply(np.exp(w, out=w), self._t_in_col, out=w)
        return v, self.t_out @ v

    def _gradients(self, v, amps, out, scaled, damps):
        """Write d probs / d phi_j into out[:, :, j].  The products of every
        parameter go through the two scratch buffers ``scaled`` and
        ``damps``, shaped like v, not into three fresh arrays: the same
        operations, and a four-mode scan chunk of 8192 points peaks 4.4 MiB
        lower."""
        for j, generator in enumerate(self._generators):
            np.multiply(v, generator, out=scaled)
            np.matmul(self.t_out, scaled, out=damps)
            np.multiply(np.conjugate(amps, out=scaled), damps, out=damps)
            np.multiply(2.0, damps.real.T, out=out[:, :, j])

    def prob_batch(self, points: np.ndarray, grads: bool = True):
        v, amps = self._amplitudes(self._theta(points).T)
        probs = (amps.real**2 + amps.imag**2).T
        if not grads:
            return probs, None
        out = np.empty(probs.shape + (self.n_params,))
        self._gradients(v, amps, out, np.empty_like(v), np.empty_like(v))
        return probs, out

    def _fim_at(self):
        """``fim_at(point)``: (f11, f22, f12, support_bad) of
        ``fim_batch(point[None, :])`` for two unknown phases at one point
        [2], reduced modulo 2pi here, as Python scalars with the same bits:
        the theta row and the buffers, built here once, have the shapes and
        strides of the one-point batch call, and the Fisher sums call
        ``c_einsum``, the C function behind ``np.einsum``."""
        theta = np.empty((1, len(self.theta_offset)))
        theta[:] = self.theta_offset
        theta_t, unknown, offset = theta.T, self.unknown_modes, self._unknown_offset
        scaled, damps = (np.empty((len(self.occ), 1), dtype=complex) for _ in range(2))
        grads = np.empty((1, len(self.basis), self.n_params))
        g1, g2 = grads[:, :, 0], grads[:, :, 1]

        def fim_at(point):
            theta[0, unknown] = np.mod(point, TWO_PI) + offset
            v, amps = self._amplitudes(theta_t)
            probs = (amps.real**2 + amps.imag**2).T
            self._gradients(v, amps, grads, scaled, damps)
            weights = _fisher_weights(probs)
            wg1, wg2 = weights * g1, weights * g2
            return (c_einsum("xk,xk->x", wg1, g1).item(), c_einsum("xk,xk->x", wg2, g2).item(),
                    c_einsum("xk,xk->x", wg1, g2).item(), _support_bad(probs, grads).item())

        return fim_at


def stacked_fock_probs(models):
    """``probs_at(point)``: the outcome probabilities [K, n_out] of K models
    at one point [n_params] of unknown phases, reduced modulo 2pi, as one
    stacked computation.  Row k is bit for bit
    ``models[k].prob_batch(point[None, :], grads=False)[0][0]``.  Raises
    ``ValueError`` unless every model is a Fock model whose ``occ``,
    ``t_in`` and ``t_out`` equal the first one's in value, compared here once."""
    first = models[0]
    for m in models:
        if not (isinstance(m, FockProbeModel) and np.array_equal(m.occ, first.occ)
                and np.array_equal(m.t_in, first.t_in) and np.array_equal(m.t_out, first.t_out)):
            raise ValueError("stacked models must be Fock models with equal sector matrices")
    # per-mode phases [K, d]: the fixed controls, with the unknown modes of
    # row k (flat indices ``unknown``) written as point + its offset at each call
    theta = np.array([m.theta_offset for m in models])
    unknown = np.concatenate([k * theta.shape[1] + m.unknown_modes for k, m in enumerate(models)])
    offsets = np.array([m._unknown_offset for m in models])
    stack = theta[:, :, None]

    def probs_at(point):
        theta.put(unknown, np.mod(point, TWO_PI) + offsets)
        # each layer of the [K, n_states, 1] stack is the one-point call's
        # matrix-vector product; a [n_states, K] matrix product would not be
        amps = first._amplitudes(stack)[1][:, :, 0]
        return amps.real**2 + amps.imag**2

    return probs_at


class DistinguishableProbeModel(_ProbeModel):
    """Distinguishable photons: each evolves independently, detectors count
    photons per mode without resolving labels, so the count distribution is
    the convolution of the single-photon distributions."""

    kind = "distinguishable"

    def __init__(self, interf: Interferometer, probe: Probe, psis=None):
        super().__init__(interf, probe, psis)
        d = interf.d
        self.photon_modes = [m for m, n in enumerate(probe.occupations) for _ in range(n)]
        self.n = len(self.photon_modes)
        self.basis = enumerate_fock_basis(d, self.n)
        self._u_in_cols = interf.u_in[:, self.photon_modes]
        # per photon k: (size of the k+1 basis, layers of (targets, sources,
        # modes) arrays), a loop over sources, then modes, split into layers
        self._layers = []
        for k in range(self.n):
            upper_idx = basis_index(d, k + 1)
            layers, seen = [], {}
            for source, occ in enumerate(enumerate_fock_basis(d, k)):
                for mode in range(d):
                    target = upper_idx[occ[:mode] + (occ[mode] + 1,) + occ[mode + 1:]]
                    seen[target] = i = seen.get(target, -1) + 1
                    if i == len(layers):
                        layers.append([])
                    layers[i].append((target, source, mode))
            self._layers.append((len(upper_idx), [tuple(map(np.array, zip(*layer)))
                                                  for layer in layers]))

    def _single_photon(self, theta: np.ndarray, grads: bool):
        """Per-photon mode distributions and, with ``grads``, their
        gradients (else None) for a theta batch."""
        d = self.interf.d
        n_pts = theta.shape[0]
        phase = np.exp(-1j * theta)  # [n_pts, d]
        u_in_cols = self._u_in_cols  # [d, n_photons]
        # c[p, i, q] = sum_m u_out[i, m] phase[p, m] u_in[m, q]
        c = np.einsum("im,pm,mq->piq", self.interf.u_out, phase, u_in_cols)
        p_single = c.real**2 + c.imag**2  # [n_pts, d, n_photons]
        if not grads:
            return p_single, None
        g_single = np.empty((n_pts, d, len(self.photon_modes), self.n_params))
        for j, mode in enumerate(self.unknown_modes):
            dc = np.einsum(
                "i,p,q->piq",
                self.interf.u_out[:, mode],
                -1j * phase[:, mode],
                u_in_cols[mode, :],
            )
            g_single[:, :, :, j] = 2.0 * (c.conj() * dc).real
        return p_single, g_single

    def _convolve(self, p_single, g_single):
        """Count distribution [n_pts, n_out] and, given ``g_single``, its
        gradients (else None): the photons' mode distributions convolved
        one photon at a time, layer by layer."""
        n_pts = len(p_single)
        dist = np.ones((n_pts, 1))
        grad = None if g_single is None else np.zeros((n_pts, 1, self.n_params))
        for q, (size_up, layers) in enumerate(self._layers):
            new_dist = np.zeros((n_pts, size_up))
            new_grad = None if grad is None else np.zeros((n_pts, size_up, self.n_params))
            pq = p_single[:, :, q]  # [n_pts, d]
            for targets, sources, modes in layers:
                p = pq[:, modes]
                new_dist[:, targets] += dist[:, sources] * p
                if grad is not None:
                    new_grad[:, targets, :] += (grad[:, sources, :] * p[:, :, None]
                                                + dist[:, sources, None] * g_single[:, modes, q, :])
            dist, grad = new_dist, new_grad
        return dist, grad

    def prob_batch(self, points: np.ndarray, grads: bool = True):
        theta = self._theta(points)
        n_pts = theta.shape[0]
        p_single, g_single = self._single_photon(theta, grads)
        dist = np.empty((n_pts, len(self.basis)))
        grad = np.empty(dist.shape + (self.n_params,)) if grads else None
        for start in range(0, n_pts, _CONVOLUTION_BLOCK):
            block = slice(start, start + _CONVOLUTION_BLOCK)
            dist[block], block_grad = self._convolve(
                p_single[block], None if g_single is None else g_single[block])
            if grads:
                grad[block] = block_grad
        return dist, grad


def _poisson_tail(n: int, mean: float) -> float:
    """P(X > n) for X ~ Poisson(mean) and n + 1 >= mean, where the terms
    only fall: summed from k = n + 1 until a term no longer moves the sum."""
    k = n + 1
    term = exp(-mean + k * log(mean) - lgamma(k + 1))
    total = 0.0
    while term > 1e-17 * total:
        total += term
        k += 1
        term *= mean / k
    return total


def coherent_cutoff(mean_photons: float, tail: float = COHERENT_TAIL) -> int:
    """Smallest total photon number whose Poisson tail mass is below ``tail``."""
    n_max = int(mean_photons)
    while _poisson_tail(n_max, mean_photons) >= tail:
        n_max += 1
    return n_max


class CoherentProbeModel(_ProbeModel):
    """Coherent-state probe: the output is a product of coherent states, so
    photon counts are independent Poisson variables with means |beta_i|^2.

    The outcome list is truncated at a total photon number chosen so the
    neglected Poisson tail mass stays below ``COHERENT_TAIL``; it serves
    ``distribution``, sampling and likelihoods, while ``fim_batch`` is exact.
    """

    kind = "coherent"

    def __init__(self, interf: Interferometer, probe: Probe, psis=None):
        super().__init__(interf, probe, psis)
        self.mass_tol = 2.0 * COHERENT_TAIL
        self.n_max = coherent_cutoff(probe.alpha**2, COHERENT_TAIL)
        d = interf.d
        self.basis = tuple(
            occ for n in range(self.n_max + 1) for occ in enumerate_fock_basis(d, n)
        )
        self.occ = np.array(self.basis, dtype=float)
        self.log_occ_fact = np.array(
            [sum(np.log(float(factorial(x))) for x in occ) for occ in self.basis]
        )

    def _mode_means(self, theta: np.ndarray, grads: bool):
        """Poisson means per mode and, with ``grads``, their phase gradients
        (else None) for a theta batch."""
        phase = np.exp(-1j * theta)  # [n_pts, d]
        col = self.interf.u_in[:, self.probe.input_mode] * self.probe.alpha
        beta = np.einsum("im,pm,m->pi", self.interf.u_out, phase, col)
        mu = beta.real**2 + beta.imag**2  # [n_pts, d]
        if not grads:
            return mu, None
        dmu = np.empty(mu.shape + (self.n_params,))
        for j, mode in enumerate(self.unknown_modes):
            dbeta = np.einsum(
                "i,p->pi",
                self.interf.u_out[:, mode],
                -1j * phase[:, mode] * col[mode],
            )
            dmu[:, :, j] = 2.0 * (beta.conj() * dbeta).real
        return mu, dmu

    def prob_batch(self, points: np.ndarray, grads: bool = True):
        mu, dmu = self._mode_means(self._theta(points), grads)
        # log p(x) = sum_i (x_i log mu_i - mu_i - log x_i!)
        tiny = 1e-300
        log_mu = np.log(np.maximum(mu, tiny))
        log_p = self.occ @ log_mu.T - mu.sum(axis=1)[None, :] - self.log_occ_fact[:, None]
        probs = np.exp(log_p).T  # [n_pts, n_out]
        if not grads:
            return probs, None
        # d log p / d phi_j = sum_i (x_i / mu_i - 1) dmu_ij; total means cancel
        ratio = np.einsum("xi,pi->pxi", self.occ, 1.0 / np.maximum(mu, tiny))
        out = np.einsum("pxi,pij->pxj", ratio, dmu) - dmu.sum(axis=1)[:, None, :]
        out *= probs[:, :, None]
        return probs, out

    def fim_batch(self, points: np.ndarray):
        """Closed form F = sum_i dmu_i dmu_i^T / mu_i of independent Poisson
        counts, with no outcome truncation.  The support check applies the
        outcome-sum rule to the one-photon outcomes e_i, of probability
        mu_i e^-M and gradient e^-M (dmu_i - mu_i sum_l dmu_l) with M the
        total mean, and a mode whose e_i is below ``ZERO_PROB`` is dropped
        from the sum, as the outcome sum drops it."""
        mu, dmu = self._mode_means(self._theta(points), True)
        scale = np.exp(-mu.sum(axis=1))[:, None]
        p_one = mu * scale
        g_one = scale[:, :, None] * (dmu - mu[:, :, None] * dmu.sum(axis=1)[:, None, :])
        w = np.where(p_one >= ZERO_PROB, 1.0 / np.maximum(mu, 1e-300), 0.0)
        return _weighted_gram(w, dmu), _support_bad(p_one, g_one)


def build_model(interf: Interferometer, probe: Probe, psis=None):
    """Model object for any probe kind."""
    cls = {
        "fock": FockProbeModel,
        "distinguishable": DistinguishableProbeModel,
        "coherent": CoherentProbeModel,
    }[probe.kind]
    return cls(interf, probe, psis=psis)
