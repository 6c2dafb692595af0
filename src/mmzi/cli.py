"""Command-line frontend: landscape scans, sensitivity bounds, adaptive
protocol runs and working-point extraction, all reproducible from a JSON
config plus a seed.

Subcommands: scan | bounds | adaptive | workpoints.  Flags override config
keys.  Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

import numpy as np

from .adaptive import ProtocolConfig, monte_carlo, run_record_dict, write_run_record
from .fisher import invert_fisher, mmzi_separable_spec, qfim_for_probe, separable_bounds
from .landscape import export_grid, find_working_points, scan_grid
from .optics import four_mode_mzi, three_mode_mzi
from .probes import Probe

OUTPUT_SCHEMA_VERSION = 1

def _number(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _positive(v) -> bool:
    return _number(v) and v > 0


def _whole(low):
    return lambda v: _number(v) and v == int(v) and v >= low


def _or_null(check):
    return lambda v: v is None or check(v)


def _numbers(count=None):
    return lambda v: (isinstance(v, list) and all(map(_number, v))
                      and count in (None, len(v)))


# Every config key: (default, check of a valid value, what the error
# message asks for).
CONFIG_SCHEMA = {
    "circuit": {
        "modes": (3, lambda v: type(v) is int and v in (3, 4), "3 or 4"),
        "probe": ("fock", lambda v: v in ("fock", "distinguishable", "coherent"),
                  "fock, distinguishable or coherent"),
        "alpha": (None, _or_null(_positive), "a positive number or null"),
        "phi0": (0.01, _or_null(_number), "a number or null"),
    },
    "scan": {
        "resolution": (256, _whole(64), "an integer >= 64"),
        "out": (None, _or_null(lambda v: isinstance(v, str)), "a path or null"),
        "format": ("csv", lambda v: v in ("csv", "json"), "csv or json"),
    },
    "adaptive": {
        "true_phases": ([1.0, 2.0], _numbers(2), "a list of two numbers"),
        "nu": (10000, _whole(1), "an integer >= 1"),
        "fractions": (None, _or_null(_numbers()), "a list of numbers or null"),
        "repetitions": (200, _whole(2), "an integer >= 2 (statistics need two runs)"),
        "seed": (None, _or_null(lambda v: type(v) is int and v >= 0),
                 "a non-negative integer or null"),
        "out": ("mmzi_adaptive.json", lambda v: isinstance(v, str), "a path"),
        "bound_coeff": (None, _or_null(_positive), "a positive number or null"),
    },
    "workpoints": {
        "resolution": (256, _whole(64), "an integer >= 64"),
        "refine_tol": (1e-5, _positive, "a positive number"),
    },
}

DEFAULT_CONFIG = {section: {key: spec[0] for key, spec in keys.items()}
                  for section, keys in CONFIG_SCHEMA.items()}

# Command-line flags and the config keys each one sets.
FLAG_KEYS = {
    "resolution": (("scan", "resolution"), ("workpoints", "resolution")),
    "phi0": (("circuit", "phi0"),),
    "nu": (("adaptive", "nu"),),
    "reps": (("adaptive", "repetitions"),),
    "seed": (("adaptive", "seed"),),
    "out": (("scan", "out"), ("adaptive", "out")),
}


class ConfigError(ValueError):
    pass


def _merge_section(defaults: dict, overrides: dict, path: str) -> dict:
    merged = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path}{key!r} must be an object")
            merged[key] = _merge_section(defaults[key], value, f"{path}{key}.")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as handle:
            user = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge_section(copy.deepcopy(DEFAULT_CONFIG), user, "")


def _apply_flags(config: dict, args: argparse.Namespace) -> dict:
    for flag, keys in FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            for section, key in keys:
                config[section][key] = value
    return config


def _check_config(config: dict) -> None:
    """Raise ConfigError for a value of the wrong type or range, so a bad
    config fails before any work starts."""
    for section, keys in CONFIG_SCHEMA.items():
        for key, (_default, valid, expected) in keys.items():
            value = config[section][key]
            if not valid(value):
                raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    if config["circuit"]["modes"] == 4 and config["circuit"]["phi0"] is None:
        raise ConfigError("four-mode circuit needs phi0")


def _build_circuit(circuit_cfg: dict):
    modes = circuit_cfg["modes"]
    interf = three_mode_mzi() if modes == 3 else four_mode_mzi(float(circuit_cfg["phi0"]))
    kind = circuit_cfg["probe"]
    if kind == "coherent":
        alpha = circuit_cfg["alpha"]
        if alpha is None:
            alpha = np.sqrt(3.0) if modes == 3 else 2.0
        return interf, Probe.coherent(float(alpha), input_mode=0)
    return interf, Probe(kind, occupations=(1,) * modes)


def cmd_scan(config: dict) -> int:
    out = config["scan"]["out"]
    if not out:
        print("scan: no output path (set scan.out or --out)", file=sys.stderr)
        return 1
    interf, probe = _build_circuit(config["circuit"])
    grid = scan_grid(interf, probe, resolution=int(config["scan"]["resolution"]))
    export_grid(grid, out, fmt=config["scan"]["format"])
    points = find_working_points(grid, refine_tol=float(config["workpoints"]["refine_tol"]))
    print(f"grid written to {out}")
    print(f"min tr_finv: {grid.min_trace():.6f}")
    print(f"singular cells: {grid.singular_count()} of {grid.resolution[0] * grid.resolution[1]}")
    for wp in points[:6]:
        print(
            f"minimum at ({wp.phases[0]:.4f}, {wp.phases[1]:.4f}): "
            f"tr_finv={wp.tr_finv:.6f} diag=({wp.finv11:.6f}, {wp.finv22:.6f})"
        )
    return 0


def cmd_bounds(config: dict) -> int:
    interf, probe = _build_circuit(config["circuit"])
    # the mean photon number bounds a probe without a fixed one
    n_particles = probe.alpha**2 if probe.kind == "coherent" else probe.total_photons
    fq = qfim_for_probe(interf, probe)
    inv = invert_fisher(fq)
    bounds = separable_bounds(mmzi_separable_spec(n_particles, interf.n_params))
    doc = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "config": config,
        "qfim": [[float(x) for x in row] for row in fq.matrix],
        "qfim_trace_inv": None if inv.singular else float(np.trace(inv.inverse)),
        "qfim_inv_diag": None if inv.singular else [float(x) for x in np.diag(inv.inverse)],
        "separable": {
            "f_jj_max": [float(x) for x in bounds.f_jj_max],
            "inv_diag_min": [float(x) for x in bounds.inv_diag_min],
            "trace_min": bounds.trace_min,
        },
    }
    if not inv.singular:
        doc["beats_separable_trace"] = bool(np.trace(inv.inverse) < bounds.trace_min)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_adaptive(config: dict) -> int:
    adaptive_cfg = config["adaptive"]
    if adaptive_cfg["seed"] is None:
        print("adaptive: a master seed is required (set adaptive.seed or --seed)",
              file=sys.stderr)
        return 1
    try:
        protocol = ProtocolConfig(
            modes=config["circuit"]["modes"],
            true_phases=tuple(adaptive_cfg["true_phases"]),
            nu=int(adaptive_cfg["nu"]),
            fractions=tuple(adaptive_cfg["fractions"] or ()),
            phi0=float(config["circuit"]["phi0"] or 0.0),
            bound_coeff=adaptive_cfg["bound_coeff"],
        )
        protocol.interferometer()
    except ValueError as exc:  # fractions that do not fit, a four-mode phi0 <= 0
        raise ConfigError(str(exc)) from exc
    stats = monte_carlo(protocol, int(adaptive_cfg["repetitions"]), adaptive_cfg["seed"])
    out = adaptive_cfg["out"]
    write_run_record(run_record_dict(stats) | {"config_cli": config}, out)
    print(f"run record written to {out}")
    print(f"{'parameter':>10s} {'std*sqrt(nu)':>14s} {'bound':>8s} {'ratio':>8s} {'bias':>10s}")
    sqrt_nu = np.sqrt(protocol.nu)
    for j in range(len(stats.std)):
        print(
            f"{'phi' + str(j + 1):>10s} {stats.std[j] * sqrt_nu:14.4f} "
            f"{protocol.bound_coeff:8.4f} {stats.ratio[j]:8.4f} {stats.bias[j]:10.5f}"
        )
    return 0


def cmd_workpoints(config: dict) -> int:
    interf, probe = _build_circuit(config["circuit"])
    grid = scan_grid(interf, probe, resolution=int(config["workpoints"]["resolution"]))
    points = find_working_points(
        grid, refine_tol=float(config["workpoints"]["refine_tol"])
    )
    if not points:
        print("workpoints: landscape is entirely singular", file=sys.stderr)
        return 2
    doc = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "config": config,
        "working_points": [
            {
                "phases": [wp.phases[0], wp.phases[1]],
                "tr_finv": wp.tr_finv,
                "finv11": wp.finv11,
                "finv22": wp.finv22,
            }
            for wp in points
        ],
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmzi",
        description="Multiarm Mach-Zehnder multiphase estimation toolkit",
    )
    parser.add_argument("command", choices=["scan", "bounds", "adaptive", "workpoints"])
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", type=str, default=None, help="output file path")
    parser.add_argument("--resolution", type=int, default=None, help="grid resolution")
    parser.add_argument("--phi0", type=float, default=None, help="auxiliary control phase")
    parser.add_argument("--nu", type=int, default=None, help="measurement budget")
    parser.add_argument("--reps", type=int, default=None, help="Monte Carlo repetitions")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        config = _apply_flags(load_config(args.config), args)
        _check_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "scan": cmd_scan,
        "bounds": cmd_bounds,
        "adaptive": cmd_adaptive,
        "workpoints": cmd_workpoints,
    }
    try:
        return handlers[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
