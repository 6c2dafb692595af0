"""Photon-counting outcome distributions for Fock, distinguishable and coherent probes.

Each probe kind gets a model object bound to a fixed interferometer
(entrance/exit splitters plus static control phases).  Models expose

* ``distribution(phis)``  -- exact probabilities and analytic gradients
  with respect to the unknown phases, packaged as an OutcomeDistribution;
* ``prob_batch(points)``  -- the same quantities evaluated for many phase
  points at once, used by landscape scans and likelihood grids.

The models share one private base, ``_ProbeModel``, which checks the probe,
builds the per-mode phase vectors and packages ``distribution``.  A model
subclass sets ``kind`` (the probe kind it accepts) and ``basis`` (its
ordered outcome list) and defines ``prob_batch``.

For a Fock probe the amplitude on outcome x factorizes over the n-photon
intermediate basis m as

    A(x | phi) = sum_m  <x|U_out|m> exp(-i m . theta) <m|U_in|probe>,

so the two sector matrices are computed once and every phase point costs a
pair of small matrix-vector products.  Differentiating the phase factor
pulls down ``-i m_k`` for the mode k carrying the parameter, giving the
gradients from the same precomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy import stats

from .fock import basis_index, enumerate_fock_basis, sector_unitary
from .optics import Interferometer, PhaseConfig

PROB_SUM_TOL = 1e-10

DEFAULT_COHERENT_TAIL = 1e-8


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
    ``grads[k, j]`` = d probs[k] / d phi_j.  ``mass_tol`` is the tolerance
    on sum(probs) == 1: exact-photon-number probes satisfy 1e-10, coherent
    probes are truncated at their configured tail mass.
    """

    outcomes: tuple[tuple[int, ...], ...]
    probs: np.ndarray
    grads: np.ndarray
    phases: PhaseConfig
    mass_tol: float = PROB_SUM_TOL

    @property
    def n_params(self) -> int:
        return self.grads.shape[1]

    def validate(self):
        if np.any(self.probs < -1e-14):
            raise ValueError("negative probability")
        if abs(self.probs.sum() - 1.0) > self.mass_tol:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")
        if np.max(np.abs(self.grads.sum(axis=0))) > self.mass_tol:
            raise ValueError("gradient components do not sum to zero")
        return self


class _ProbeModel:
    """Base of the probe models; the subclass contract is in the module
    docstring.  ``prob_batch(points)`` maps [n_pts, n_params] to (probs
    [n_pts, n_out], grads [n_pts, n_out, n_params])."""

    kind = ""
    mass_tol = PROB_SUM_TOL

    def __init__(self, interf: Interferometer, probe: Probe, psis=None):
        if probe.kind != self.kind:
            raise ValueError(f"{type(self).__name__} requires a {self.kind} probe")
        if probe.occupations is not None and len(probe.occupations) != interf.d:
            raise ValueError("probe occupations do not match mode count")
        self.interf = interf
        self.probe = probe
        self.psis = None if psis is None else np.asarray(psis, dtype=float)
        config = interf.config(np.zeros(interf.n_params), self.psis)
        self.theta_offset = config.mode_totals(interf.d)
        self.unknown_modes = np.array(interf.unknown_modes, dtype=int)

    @property
    def n_params(self) -> int:
        return len(self.unknown_modes)

    @property
    def outcomes(self):
        return self.basis

    def _theta(self, points) -> np.ndarray:
        """Per-mode phases [n_pts, d] for unknown-phase points [n_pts, n_params]."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        theta = np.tile(self.theta_offset, (points.shape[0], 1))
        for j, mode in enumerate(self.unknown_modes):
            theta[:, mode] += points[:, j]
        return theta

    def distribution(self, phis) -> OutcomeDistribution:
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        probs, grads = self.prob_batch(phis[None, :])
        return OutcomeDistribution(
            outcomes=self.basis,
            probs=probs[0],
            grads=grads[0],
            phases=self.interf.config(phis, self.psis),
            mass_tol=self.mass_tol,
        )


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
        self.t_out = sector_unitary(interf.u_out, n)  # [x, m]
        # occupation of the generating mode per intermediate state, one row per parameter
        self.gen_occ = self.occ[:, self.unknown_modes].T  # [n_params, n_states]

    def _amplitudes(self, theta_modes: np.ndarray):
        """Amplitudes and their phase-derivatives for a batch of theta vectors."""
        # theta_modes: [n_pts, d]
        w = np.exp(-1j * (self.occ @ theta_modes.T))  # [n_states, n_pts]
        v = w * self.t_in[:, None]
        amps = self.t_out @ v  # [n_out, n_pts]
        damps = np.empty((self.n_params,) + amps.shape, dtype=complex)
        for j in range(self.n_params):
            damps[j] = self.t_out @ (v * (-1j * self.gen_occ[j])[:, None])
        return amps, damps

    def prob_batch(self, points: np.ndarray):
        amps, damps = self._amplitudes(self._theta(points))
        probs = (amps.real**2 + amps.imag**2).T
        grads = np.empty(probs.shape + (self.n_params,))
        for j in range(self.n_params):
            grads[:, :, j] = 2.0 * (amps.conj() * damps[j]).real.T
        return probs, grads


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

    def _single_photon(self, theta: np.ndarray):
        """Per-photon mode distributions and gradients for a theta batch."""
        d = self.interf.d
        n_pts = theta.shape[0]
        phase = np.exp(-1j * theta)  # [n_pts, d]
        u_in_cols = self.interf.u_in[:, self.photon_modes]  # [d, n_photons]
        # c[p, i, q] = sum_m u_out[i, m] phase[p, m] u_in[m, q]
        c = np.einsum("im,pm,mq->piq", self.interf.u_out, phase, u_in_cols)
        p_single = c.real**2 + c.imag**2  # [n_pts, d, n_photons]
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

    def prob_batch(self, points: np.ndarray):
        theta = self._theta(points)
        n_pts = theta.shape[0]
        p_single, g_single = self._single_photon(theta)
        d = self.interf.d
        dist = np.ones((n_pts, 1))
        grad = np.zeros((n_pts, 1, self.n_params))
        for q in range(self.n):
            table = self._lift[q]
            size_up = len(enumerate_fock_basis(d, q + 1))
            new_dist = np.zeros((n_pts, size_up))
            new_grad = np.zeros((n_pts, size_up, self.n_params))
            pq = p_single[:, :, q]  # [n_pts, d]
            gq = g_single[:, :, q, :]  # [n_pts, d, n_params]
            for s in range(dist.shape[1]):
                for mode in range(d):
                    t = table[s, mode]
                    new_dist[:, t] += dist[:, s] * pq[:, mode]
                    new_grad[:, t, :] += (
                        grad[:, s, :] * pq[:, mode, None] + dist[:, s, None] * gq[:, mode, :]
                    )
            dist, grad = new_dist, new_grad
        return dist, grad


def coherent_cutoff(mean_photons: float, tail: float = DEFAULT_COHERENT_TAIL) -> int:
    """Smallest total photon number whose Poisson tail mass is below ``tail``."""
    n_max = int(mean_photons)
    while stats.poisson.sf(n_max, mean_photons) >= tail:
        n_max += 1
    return n_max


class CoherentProbeModel(_ProbeModel):
    """Coherent-state probe: the output is a product of coherent states, so
    photon counts are independent Poisson variables with means |beta_i|^2.

    The outcome list is truncated at a total photon number chosen so the
    neglected Poisson tail mass stays below ``tail``.
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

    def _mode_means(self, theta: np.ndarray):
        """Poisson means per mode and their phase gradients for a theta batch."""
        phase = np.exp(-1j * theta)  # [n_pts, d]
        col = self.interf.u_in[:, self.probe.input_mode] * self.probe.alpha
        beta = np.einsum("im,pm,m->pi", self.interf.u_out, phase, col)
        mu = beta.real**2 + beta.imag**2  # [n_pts, d]
        dmu = np.empty(mu.shape + (self.n_params,))
        for j, mode in enumerate(self.unknown_modes):
            dbeta = np.einsum(
                "i,p->pi",
                self.interf.u_out[:, mode],
                -1j * phase[:, mode] * col[mode],
            )
            dmu[:, :, j] = 2.0 * (beta.conj() * dbeta).real
        return mu, dmu

    def prob_batch(self, points: np.ndarray):
        mu, dmu = self._mode_means(self._theta(points))
        # log p(x) = sum_i (x_i log mu_i - mu_i - log x_i!)
        tiny = 1e-300
        log_mu = np.log(np.maximum(mu, tiny))
        log_p = self.occ @ log_mu.T - mu.sum(axis=1)[None, :] - self.log_occ_fact[:, None]
        probs = np.exp(log_p).T  # [n_pts, n_out]
        # d log p / d phi_j = sum_i (x_i / mu_i - 1) dmu_ij; total means cancel
        ratio = np.einsum("xi,pi->pxi", self.occ, 1.0 / np.maximum(mu, tiny))
        grads = np.einsum("pxi,pij->pxj", ratio, dmu) - dmu.sum(axis=1)[:, None, :]
        grads *= probs[:, :, None]
        return probs, grads


def build_model(interf: Interferometer, probe: Probe, psis=None, **kwargs):
    """Model object for any probe kind."""
    cls = {
        "fock": FockProbeModel,
        "distinguishable": DistinguishableProbeModel,
        "coherent": CoherentProbeModel,
    }[probe.kind]
    return cls(interf, probe, psis=psis, **kwargs)
