"""Classical and quantum Fisher information, bounds for separable probes,
and the qudit-entanglement witness.

The classical matrix is F_ij = sum_x (1/p) (dp/dphi_i)(dp/dphi_j).  For
pure states evolved by commuting number-operator generators the quantum
matrix is four times the covariance matrix of the generating number
operators; number-sector mixtures decompose into weighted sums of their
pure-sector matrices because number-conserving evolution never mixes
sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .fock import basis_index, enumerate_fock_basis, sector_unitary, single_mode_sector_state
from .probes import ZERO_GRAD, ZERO_PROB, OutcomeDistribution, Probe, coherent_cutoff
from .optics import Interferometer

# Shared singularity thresholds for inverting 2x2 and larger matrices.
COND_THRESHOLD = 1e10
DET_THRESHOLD = 1e-12


class SingularSupportError(ValueError):
    """An outcome probability vanishes while its gradient does not, so the
    Fisher information diverges at this phase point."""


@dataclass(frozen=True)
class FisherMatrix:
    matrix: np.ndarray
    kind: str = "classical"  # or "quantum"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Fisher matrix must be square")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ValueError("Fisher matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("Fisher matrix must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def diag(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


@dataclass(frozen=True)
class FisherInverse:
    """Result of attempting to invert a Fisher matrix.

    Singularity is a value, not an error: ``inverse`` is None when the
    condition number or determinant crosses the configured thresholds, and
    ``det``/``cond`` always report the diagnostics.
    """

    inverse: np.ndarray | None
    det: float
    cond: float
    singular: bool

    def trace_inverse(self) -> float:
        if self.inverse is None:
            raise ValueError("matrix is singular")
        return float(np.trace(self.inverse))


def fisher_matrix(dist: OutcomeDistribution) -> FisherMatrix:
    """Classical Fisher information matrix of a photon-counting distribution."""
    p = np.asarray(dist.probs, dtype=float)
    g = np.asarray(dist.grads, dtype=float)
    grad_norm = np.max(np.abs(g), axis=1)
    bad = (p < ZERO_PROB) & (grad_norm > ZERO_GRAD)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularSupportError(
            f"outcome {dist.outcomes[k]} has probability {p[k]:.3e} "
            f"with gradient {grad_norm[k]:.3e}"
        )
    keep = p >= ZERO_PROB
    w = g[keep] / p[keep, None]
    return FisherMatrix(matrix=w.T @ g[keep], kind="classical")


def invert_fisher(f: FisherMatrix | np.ndarray,
                  cond_threshold: float = COND_THRESHOLD,
                  det_threshold: float = DET_THRESHOLD) -> FisherInverse:
    m = f.matrix if isinstance(f, FisherMatrix) else np.asarray(f, dtype=float)
    det = float(np.linalg.det(m))
    eigs = np.linalg.eigvalsh(m)
    lo, hi = float(np.min(np.abs(eigs))), float(np.max(np.abs(eigs)))
    cond = np.inf if lo == 0.0 else hi / lo
    singular = (cond >= cond_threshold) or (abs(det) < det_threshold)
    inverse = None if singular else np.linalg.inv(m)
    return FisherInverse(inverse=inverse, det=det, cond=cond, singular=singular)


def _number_covariance(state: np.ndarray, occ: np.ndarray, modes) -> np.ndarray:
    weights = np.abs(np.asarray(state, dtype=complex)) ** 2
    cols = occ[:, list(modes)]  # [n_states, n_params]
    mean = weights @ cols
    second = (cols * weights[:, None]).T @ cols
    return second - np.outer(mean, mean)


def qfim_pure(state: np.ndarray, basis, generator_modes) -> FisherMatrix:
    """Quantum Fisher information matrix of a pure state under number-operator
    generators: 4x the covariance matrix of the generating number operators.

    ``state`` is the amplitude vector over ``basis`` (the photon-number
    basis after the entrance splitter).
    """
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (|psi| = {norm})")
    occ = np.array(basis, dtype=float)
    if occ.shape[0] != state.shape[0]:
        raise ValueError("state and basis sizes differ")
    return FisherMatrix(4.0 * _number_covariance(state, occ, generator_modes), kind="quantum")


def qfim_sector_mixture(sector_weights, sector_states, sector_bases, generator_modes) -> FisherMatrix:
    """QFIM of an incoherent mixture of pure states living in distinct
    photon-number sectors: the weighted sum of the per-sector pure QFIMs."""
    weights = np.asarray(sector_weights, dtype=float)
    if len(weights) != len(sector_states) or len(weights) != len(sector_bases):
        raise ValueError("weight/state/basis count mismatch")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"sector weights sum to {weights.sum()}, not 1")
    n = len(tuple(generator_modes))
    total = np.zeros((n, n))
    for w, state, basis in zip(weights, sector_states, sector_bases):
        total += w * qfim_pure(state, basis, generator_modes).matrix
    return FisherMatrix(total, kind="quantum")


def qfim_for_probe(interf: Interferometer, probe: Probe,
                   sector_tail: float = 1e-12) -> FisherMatrix:
    """QFIM of any supported probe through an interferometer preset.

    Fock: pure-state covariance after the entrance splitter.
    Distinguishable: sum of independent single-photon QFIMs (additivity).
    Coherent without a phase reference: Poisson mixture over photon-number
    sectors, truncated at tail mass ``sector_tail``.
    """
    modes = interf.unknown_modes
    if probe.kind == "fock":
        n = probe.total_photons
        basis = enumerate_fock_basis(interf.d, n)
        state = sector_unitary(interf.u_in, n)[:, basis_index(interf.d, n)[probe.occupations]]
        return qfim_pure(state, basis, modes)
    if probe.kind == "distinguishable":
        basis1 = enumerate_fock_basis(interf.d, 1)
        total = np.zeros((len(modes), len(modes)))
        for mode, count in enumerate(probe.occupations):
            if count == 0:
                continue
            state = single_mode_sector_state(interf.u_in, mode, 1)
            total += count * qfim_pure(state, basis1, modes).matrix
        return FisherMatrix(total, kind="quantum")
    if probe.kind == "coherent":
        mean = probe.alpha**2
        ns = np.arange(coherent_cutoff(mean, sector_tail) + 1)
        weights = np.exp(xlogy(ns, mean) - gammaln(ns + 1) - mean)  # Poisson pmf
        weights = weights / weights.sum()
        states = [single_mode_sector_state(interf.u_in, probe.input_mode, int(n)) for n in ns]
        bases = [enumerate_fock_basis(interf.d, int(n)) for n in ns]
        return qfim_sector_mixture(weights, states, bases, modes)
    raise ValueError(f"unsupported probe kind {probe.kind!r}")


@dataclass(frozen=True)
class SeparableBoundSpec:
    """Sensitivity limits for N-particle qudit-separable probes.

    ``g_max[j]`` / ``g_min[j]`` are the extreme eigenvalues of the
    single-particle generator of parameter j (0 and 1 for a photon that is
    either absent from or present in the generating mode).
    """

    n_particles: int
    g_max: tuple[float, ...]
    g_min: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "g_max", tuple(float(x) for x in self.g_max))
        object.__setattr__(self, "g_min", tuple(float(x) for x in self.g_min))
        if len(self.g_max) != len(self.g_min):
            raise ValueError("g_max and g_min lengths differ")
        if self.n_particles < 1:
            raise ValueError("need N >= 1")
        if any(hi <= lo for hi, lo in zip(self.g_max, self.g_min)):
            raise ValueError("need g_max > g_min for every parameter")

    @property
    def n_params(self) -> int:
        return len(self.g_max)


def mmzi_separable_spec(n_particles: int, n_params: int) -> SeparableBoundSpec:
    """Bound spec for phase generators that count photons in one arm."""
    return SeparableBoundSpec(
        n_particles=n_particles,
        g_max=(1.0,) * n_params,
        g_min=(0.0,) * n_params,
    )


@dataclass(frozen=True)
class SeparableBounds:
    f_jj_max: np.ndarray      # F_jj <= N (g_max - g_min)^2 for separable probes
    inv_diag_min: np.ndarray  # [F^-1]_jj >= 1 / f_jj_max
    trace_min: float          # Tr[F^-1] >= sum_j inv_diag_min


def separable_bounds(spec: SeparableBoundSpec) -> SeparableBounds:
    span = np.array(spec.g_max) - np.array(spec.g_min)
    f_jj_max = spec.n_particles * span**2
    inv_diag_min = 1.0 / f_jj_max
    return SeparableBounds(
        f_jj_max=f_jj_max,
        inv_diag_min=inv_diag_min,
        trace_min=float(inv_diag_min.sum()),
    )


@dataclass(frozen=True)
class WitnessVerdict:
    """Comparison of a measured classical FIM against the separable bounds.

    Any True flag certifies useful qudit entanglement of the probe.  The
    trace and inverse-diagonal comparisons are None when the matrix is
    singular.
    """

    fjj_violation: tuple[bool, ...]
    inv_diag_violation: tuple[bool, ...] | None
    trace_violation: bool | None
    trace_inverse: float | None
    entangled: bool


def entanglement_witness(f: FisherMatrix, spec: SeparableBoundSpec) -> WitnessVerdict:
    if f.kind != "classical":
        raise ValueError("witness applies to classical Fisher matrices")
    bounds = separable_bounds(spec)
    if f.n != spec.n_params:
        raise ValueError("parameter count mismatch")
    fjj = tuple(bool(v) for v in (f.diag() > bounds.f_jj_max))
    inv = invert_fisher(f)
    if inv.singular:
        inv_diag_violation = None
        trace_violation = None
        trace_inverse = None
    else:
        inv_diag = np.diag(inv.inverse)
        inv_diag_violation = tuple(bool(v) for v in (inv_diag < bounds.inv_diag_min))
        trace_inverse = float(np.trace(inv.inverse))
        trace_violation = bool(trace_inverse < bounds.trace_min)
    flags = list(fjj)
    if inv_diag_violation is not None:
        flags.extend(inv_diag_violation)
    if trace_violation is not None:
        flags.append(trace_violation)
    return WitnessVerdict(
        fjj_violation=fjj,
        inv_diag_violation=inv_diag_violation,
        trace_violation=trace_violation,
        trace_inverse=trace_inverse,
        entangled=any(flags),
    )
