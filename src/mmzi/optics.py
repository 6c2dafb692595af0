"""Unitary building blocks of multiarm Mach-Zehnder interferometers.

A d-arm MZI is a balanced d-port splitter, a layer of single-mode phase
shifts, and a second balanced splitter.  Phases follow the convention
``exp(-i * theta)`` per mode, so the phase layer is ``diag(exp(-i theta_j))``
with ``theta_j`` the summed phase on mode j: its unknown phase, the control
on the same mode, and any fixed control.  ``Interferometer.control_phases``
is the one map from control settings to that per-mode vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


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


def unitarity_defect(u: np.ndarray) -> float:
    """Max-absolute-entry norm of U^dag U - identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


@dataclass(frozen=True, eq=False)
class Interferometer:
    """A fixed multiarm MZI: splitter ``u_in``, one phase per mode, splitter ``u_out``.

    ``unknown_modes[j]`` is the mode carrying the j-th phase under
    estimation; its tunable control ``psis[j]`` sits on the same mode, so
    shifting a control by +x and its unknown by -x leaves the circuit alone.
    ``fixed_controls`` holds static (mode, phase) pairs such as the
    auxiliary phase of the four-arm preset.
    """

    u_in: np.ndarray
    u_out: np.ndarray
    unknown_modes: tuple[int, ...]
    fixed_controls: tuple[tuple[int, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        shape_in, shape_out = np.shape(self.u_in), np.shape(self.u_out)
        if len(shape_in) != 2 or shape_in[0] != shape_in[1] or shape_in != shape_out:
            raise ValueError(f"splitters must be square and alike: {shape_in} vs {shape_out}")
        modes = [int(m) for m in self.unknown_modes] + [int(m) for m, _ in self.fixed_controls]
        if len(set(modes)) != len(modes):
            raise ValueError(f"unknown and fixed-control modes must be distinct: {modes}")
        if any(not 0 <= m < shape_in[0] for m in modes):
            raise ValueError(f"mode index out of range for d={shape_in[0]}: {modes}")
        if not np.isfinite([v for _, v in self.fixed_controls]).all():
            raise ValueError(f"fixed controls must be finite: {self.fixed_controls}")

    @property
    def d(self) -> int:
        return self.u_in.shape[0]

    @property
    def n_params(self) -> int:
        return len(self.unknown_modes)

    def control_phases(self, psis=None) -> np.ndarray:
        """Per-mode phases [d] with the unknowns at zero: the fixed controls,
        then the tunable controls ``psis`` on the unknown modes, each reduced
        with ``float(v) % 2pi`` into [0, 2pi) and summed per mode in that
        order.  Non-finite controls raise ValueError."""
        controls = list(self.fixed_controls)
        if psis is not None:
            psis = np.atleast_1d(np.asarray(psis, dtype=float))
            if psis.shape != (self.n_params,):
                raise ValueError(f"expected {self.n_params} control phases, got shape {psis.shape}")
            if not np.isfinite(psis).all():
                raise ValueError(f"control phases must be finite: {psis}")
            controls.extend(zip(self.unknown_modes, psis))
        theta = np.zeros(self.d)
        for mode, value in controls:
            reduced = float(value) % TWO_PI
            theta[mode] += reduced if reduced < TWO_PI else 0.0  # v in (-4.5e-16, 0) gives 2pi
        return theta

    def unitary(self, phis, psis=None) -> np.ndarray:
        """u_out . diag(exp(-i theta)) . u_in at unknown phases ``phis``."""
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        if phis.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} unknown phases, got shape {phis.shape}")
        theta = self.control_phases(psis)
        theta[list(self.unknown_modes)] += np.mod(phis, TWO_PI)
        # Cheaper than a full matrix product with the diagonal layer.
        return self.u_out @ (np.exp(-1j * theta)[:, None] * self.u_in)


def three_mode_mzi() -> Interferometer:
    """Tritter-based 3-arm MZI: unknown phases on modes 0 and 1, mode 2 as reference."""
    u = multiport_unitary(3, "tritter")
    return Interferometer(
        u_in=u,
        u_out=u,
        unknown_modes=(0, 1),
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
        fixed_controls=((2, float(phi0)),),
        label="four-mode",
    )
