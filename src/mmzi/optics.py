"""Unitary building blocks of multiarm Mach-Zehnder interferometers.

A d-arm MZI is a balanced d-port splitter, a layer of single-mode phase
shifts, and a second balanced splitter.  Phases follow the convention
``exp(-i * theta)`` per mode, so a phase layer is ``diag(exp(-i theta_j))``
with ``theta_j`` the summed phase assigned to mode j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

UNITARITY_TOL = 1e-12


def multiport_unitary(d: int, kind: str) -> np.ndarray:
    """Balanced d-port splitter matrix.

    Supported: ``(3, "tritter")`` with diagonal 3^(-1/2) and off-diagonal
    3^(-1/2) exp(i 2pi/3); ``(4, "quarter")`` with diagonal 1/2 and
    off-diagonal -1/2.
    """
    if kind == "tritter" and d == 3:
        off = np.exp(2j * np.pi / 3.0) / np.sqrt(3.0)
        u = np.full((3, 3), off, dtype=complex)
        np.fill_diagonal(u, 1.0 / np.sqrt(3.0))
        return u
    if kind == "quarter" and d == 4:
        u = np.full((4, 4), -0.5, dtype=complex)
        np.fill_diagonal(u, 0.5)
        return u
    raise ValueError(f"unsupported multiport: d={d}, kind={kind!r}")


def _normalized_assignments(pairs, label):
    seen = set()
    out = []
    for mode, value in pairs:
        mode = int(mode)
        if mode in seen:
            raise ValueError(f"duplicate mode index {mode} in {label} phases")
        seen.add(mode)
        out.append((mode, float(value) % TWO_PI))
    return tuple(out)


@dataclass(frozen=True)
class PhaseConfig:
    """Assignment of unknown and control phases to interferometer modes.

    ``unknown`` lists (mode, value) pairs for the parameters under
    estimation, ``control`` for known tunable phases.  Mode indices must be
    distinct within each list (a mode may carry one unknown plus one
    control); values are stored reduced to [0, 2pi).
    """

    unknown: tuple[tuple[int, float], ...] = ()
    control: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "unknown", _normalized_assignments(self.unknown, "unknown"))
        object.__setattr__(self, "control", _normalized_assignments(self.control, "control"))

    @property
    def n_params(self) -> int:
        return len(self.unknown)

    def mode_totals(self, d: int) -> np.ndarray:
        """Summed phase per mode, length d."""
        theta = np.zeros(d)
        for mode, value in self.unknown + self.control:
            if not 0 <= mode < d:
                raise ValueError(f"mode index {mode} out of range for d={d}")
            theta[mode] += value
        return theta


def phase_layer(d: int, config: PhaseConfig) -> np.ndarray:
    """Diagonal phase transformation diag(exp(-i theta_j))."""
    return np.diag(np.exp(-1j * config.mode_totals(d)))


def compose_interferometer(u_in: np.ndarray, config: PhaseConfig, u_out: np.ndarray) -> np.ndarray:
    """u_out . phase_layer(config) . u_in"""
    u_in = np.asarray(u_in, dtype=complex)
    u_out = np.asarray(u_out, dtype=complex)
    if u_in.shape != u_out.shape or u_in.ndim != 2 or u_in.shape[0] != u_in.shape[1]:
        raise ValueError(f"dimension mismatch: {u_in.shape} vs {u_out.shape}")
    d = u_in.shape[0]
    # Cheaper than a full matrix product with the diagonal layer.
    return u_out @ (np.exp(-1j * config.mode_totals(d))[:, None] * u_in)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-absolute-entry norm of U^dag U - identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


@dataclass(frozen=True, eq=False)
class Interferometer:
    """A fixed multiarm MZI with declared unknown-phase and control slots.

    ``unknown_modes[j]`` is the mode carrying the j-th phase under
    estimation; ``control_modes[j]`` the mode whose tunable control shifts
    that parameter (the two coincide for the presets here).
    ``fixed_controls`` holds static control phases such as the auxiliary
    phase of the four-arm preset.
    """

    u_in: np.ndarray
    u_out: np.ndarray
    unknown_modes: tuple[int, ...]
    control_modes: tuple[int, ...]
    fixed_controls: tuple[tuple[int, float], ...] = ()
    label: str = ""

    @property
    def d(self) -> int:
        return self.u_in.shape[0]

    @property
    def n_params(self) -> int:
        return len(self.unknown_modes)

    def config(self, phis, psis=None) -> PhaseConfig:
        """Phase configuration for unknown values ``phis`` and tunable controls ``psis``."""
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        if phis.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} unknown phases, got {phis.shape}")
        control = list(self.fixed_controls)
        if psis is not None:
            psis = np.atleast_1d(np.asarray(psis, dtype=float))
            control.extend(zip(self.control_modes, psis))
        return PhaseConfig(
            unknown=tuple(zip(self.unknown_modes, phis)),
            control=tuple(control),
        )

    def unitary(self, phis, psis=None) -> np.ndarray:
        return compose_interferometer(self.u_in, self.config(phis, psis), self.u_out)


def three_mode_mzi() -> Interferometer:
    """Tritter-based 3-arm MZI: unknown phases on modes 0 and 1, mode 2 as reference."""
    u = multiport_unitary(3, "tritter")
    return Interferometer(
        u_in=u,
        u_out=u,
        unknown_modes=(0, 1),
        control_modes=(0, 1),
        label="three-mode",
    )


def four_mode_mzi(phi0: float) -> Interferometer:
    """Quarter-based 4-arm MZI: unknowns on modes 0 and 1, auxiliary control
    phase ``phi0`` on mode 2, mode 3 as reference."""
    u = multiport_unitary(4, "quarter")
    return Interferometer(
        u_in=u,
        u_out=u,
        unknown_modes=(0, 1),
        control_modes=(0, 1),
        fixed_controls=((2, float(phi0)),),
        label="four-mode",
    )
