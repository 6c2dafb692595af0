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

Fock models of one circuit and probe share both sector matrices by
identity: ``t_out`` is the cached matrix and ``t_in`` one cached view of its
column.  ``stacked_fock_probs`` evaluates such models, each with its own
controls, at one phase point as a [K, n_states, 1] stack; the adaptive
likelihood takes it for every one-point evaluation of Fock models that
share them, which every run's models do.  The bits equal those of one
``prob_batch`` call per model, because numpy's stacked matmul runs each
layer as the same matrix-vector product and every other step is
element-wise.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce
from math import factorial

import numpy as np
from scipy.special import pdtrc

from .fock import basis_index, enumerate_fock_basis, sector_unitary
from .optics import Interferometer

PROB_SUM_TOL = 1e-10

DEFAULT_COHERENT_TAIL = 1e-8

# Zero-probability outcomes are dropped from the classical sum only when
# their gradient also vanishes (removable limit); otherwise the matrix
# diverges at that phase point.
ZERO_PROB = 1e-14
ZERO_GRAD = 1e-10


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
    # a pairwise maximum over the parameters: numpy's max over the short
    # last axis is ~15x slower on a scan chunk
    grad_norm = reduce(np.maximum, [np.abs(grads[:, :, j]) for j in range(grads.shape[2])])
    return np.any((probs < ZERO_PROB) & (grad_norm > ZERO_GRAD), axis=1)


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
        """Per-mode phases [n_pts, d] for unknown-phase points [n_pts, n_params]."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        theta = np.empty((points.shape[0], len(self.theta_offset)))
        theta[:] = self.theta_offset
        # one fancy-index write, not a read, add and write: the same sums
        theta[:, self.unknown_modes] = points + self._unknown_offset
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
        w = np.where(probs >= ZERO_PROB, 1.0 / np.maximum(probs, 1e-300), 0.0)
        return _weighted_gram(w, grads), _support_bad(probs, grads)


# Input columns of the cached sector matrices, one view per (matrix, column)
# while any model holds it, so that the models of one circuit and probe share
# ``t_in`` by identity.  A live view keeps its matrix, and so the id in its
# key, alive.
_INPUT_COLUMNS = weakref.WeakValueDictionary()


def _input_column(sector, col):
    key = (id(sector), col)
    column = _INPUT_COLUMNS.get(key)
    if column is None:
        column = _INPUT_COLUMNS[key] = sector[:, col]
    return column


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
        self.t_in = _input_column(sector_unitary(interf.u_in, n), probe_idx)  # <m|U_in|probe>
        self._t_in_col = self.t_in[:, None]
        self.t_out = sector_unitary(interf.u_out, n)  # [x, m]
        # occupation of the generating mode per intermediate state, one row per parameter
        self.gen_occ = self.occ[:, self.unknown_modes].T  # [n_params, n_states]

    def prob_batch(self, points: np.ndarray, grads: bool = True):
        theta = self._theta(points)  # [n_pts, d]
        # exp and the t_in product overwrite one buffer: on the 15,876-point
        # rough torus each extra [n_states, n_pts] array costs 8.9 MB
        w = -1j * (self.occ @ theta.T)  # [n_states, n_pts]
        v = np.multiply(np.exp(w, out=w), self._t_in_col, out=w)
        amps = self.t_out @ v  # [n_out, n_pts]
        probs = (amps.real**2 + amps.imag**2).T
        if not grads:
            return probs, None
        out = np.empty(probs.shape + (self.n_params,))
        # the products of every parameter write into two scratch buffers, not
        # into three fresh [n_states, n_pts] arrays: the same operations, and
        # a four-mode scan chunk of 8192 points peaks 4.4 MiB lower
        scaled, damps = np.empty_like(v), np.empty_like(v)
        for j in range(self.n_params):
            np.multiply(v, (-1j * self.gen_occ[j])[:, None], out=scaled)
            np.matmul(self.t_out, scaled, out=damps)
            np.multiply(np.conjugate(amps, out=scaled), damps, out=damps)
            np.multiply(2.0, damps.real.T, out=out[:, :, j])
        return probs, out


def stacked_fock_probs(models, point):
    """Outcome probabilities [K, n_out] of K models at one point [n_params]
    of unknown phases, as one stacked computation; None unless every model
    is a Fock model on the first one's sector matrices (``t_in`` and
    ``t_out``, two ``is`` tests per model).  Row k is bit for bit
    ``models[k].prob_batch(point[None, :], grads=False)[0][0]``."""
    first = models[0] if models else None
    if not isinstance(first, FockProbeModel):
        return None
    t_in, t_out = first.t_in, first.t_out
    rows = []
    for m in models:
        if getattr(m, "t_in", None) is not t_in or m.t_out is not t_out:
            return None
        row = m.theta_offset.copy()
        row[m.unknown_modes] = point + m._unknown_offset
        rows.append(row)
    # each layer of the [K, n_states, 1] stack is the one-point call's
    # matrix-vector product; a [n_states, K] matrix product would not be
    w = -1j * np.matmul(first.occ, np.array(rows)[:, :, None])
    v = np.multiply(np.exp(w, out=w), first._t_in_col, out=w)
    amps = np.matmul(t_out, v)[:, :, 0]
    return amps.real**2 + amps.imag**2


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
        # index maps: adding one photon in mode i to a k-photon state
        self._lift = []
        for k in range(self.n):
            lower = enumerate_fock_basis(d, k)
            upper_idx = basis_index(d, k + 1)
            table = np.empty((len(lower), d), dtype=int)
            for s_i, occ in enumerate(lower):
                for mode in range(d):
                    occ_up = list(occ)
                    occ_up[mode] += 1
                    table[s_i, mode] = upper_idx[tuple(occ_up)]
            self._lift.append(table)

    def _single_photon(self, theta: np.ndarray, grads: bool):
        """Per-photon mode distributions and, with ``grads``, their
        gradients (else None) for a theta batch."""
        d = self.interf.d
        n_pts = theta.shape[0]
        phase = np.exp(-1j * theta)  # [n_pts, d]
        u_in_cols = self.interf.u_in[:, self.photon_modes]  # [d, n_photons]
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

    def prob_batch(self, points: np.ndarray, grads: bool = True):
        theta = self._theta(points)
        n_pts = theta.shape[0]
        p_single, g_single = self._single_photon(theta, grads)
        d = self.interf.d
        dist = np.ones((n_pts, 1))
        grad = np.zeros((n_pts, 1, self.n_params)) if grads else None
        for q in range(self.n):
            table = self._lift[q]
            size_up = len(enumerate_fock_basis(d, q + 1))
            new_dist = np.zeros((n_pts, size_up))
            new_grad = np.zeros((n_pts, size_up, self.n_params)) if grads else None
            pq = p_single[:, :, q]  # [n_pts, d]
            for s in range(dist.shape[1]):
                for mode in range(d):
                    t = table[s, mode]
                    new_dist[:, t] += dist[:, s] * pq[:, mode]
                    if grads:
                        new_grad[:, t, :] += (
                            grad[:, s, :] * pq[:, mode, None]
                            + dist[:, s, None] * g_single[:, mode, q, :]
                        )
            dist, grad = new_dist, new_grad
        return dist, grad


def coherent_cutoff(mean_photons: float, tail: float = DEFAULT_COHERENT_TAIL) -> int:
    """Smallest total photon number whose Poisson tail mass is below ``tail``."""
    n_max = int(mean_photons)
    while pdtrc(n_max, mean_photons) >= tail:
        n_max += 1
    return n_max


class CoherentProbeModel(_ProbeModel):
    """Coherent-state probe: the output is a product of coherent states, so
    photon counts are independent Poisson variables with means |beta_i|^2.

    The outcome list is truncated at a total photon number chosen so the
    neglected Poisson tail mass stays below ``tail``; it serves
    ``distribution``, sampling and likelihoods, while ``fim_batch`` is exact.
    """

    kind = "coherent"

    def __init__(self, interf: Interferometer, probe: Probe, psis=None,
                 tail: float = DEFAULT_COHERENT_TAIL):
        super().__init__(interf, probe, psis)
        self.tail = float(tail)
        self.mass_tol = 2.0 * self.tail
        mean = probe.alpha**2
        self.n_max = coherent_cutoff(mean, self.tail)
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


def build_model(interf: Interferometer, probe: Probe, psis=None, **kwargs):
    """Model object for any probe kind."""
    cls = {
        "fock": FockProbeModel,
        "distinguishable": DistinguishableProbeModel,
        "coherent": CoherentProbeModel,
    }[probe.kind]
    return cls(interf, probe, psis=psis, **kwargs)
