"""Pinned outputs: fixed-seed protocol runs and landscape minima must stay
the same across code versions.  The values were recorded from the library
before its probe models and grid helpers were consolidated; a change that
moves any of them changes the numbers the package reports."""

import hashlib

import numpy as np
import pytest

from mmzi.adaptive import ProtocolConfig, derive_seeds, quotient_errors, run_protocol
from mmzi.landscape import export_grid, find_working_points, scan_grid
from mmzi.optics import four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe

ATOL = 1e-9
SEEDS = derive_seeds(1, 2)


@pytest.mark.parametrize(
    "modes,true_phases,seed,estimate,sigma",
    [
        (3, (2.2, 1.0), SEEDS[0],
         (2.2033894932675113, 0.9958247516222783),
         (0.005383032131769866, 0.005524738014762778)),
        (4, (0.7, 1.3), SEEDS[1],
         (0.701145889426738, 1.2939213271832246),
         (0.004405462018787241, 0.004391502510363321)),
    ],
)
def test_protocol_final_estimate_and_sigma(modes, true_phases, seed, estimate, sigma):
    trace = run_protocol(ProtocolConfig(modes=modes, true_phases=true_phases, nu=10000), seed)
    np.testing.assert_allclose(trace.final_estimate, estimate, rtol=0, atol=ATOL)
    np.testing.assert_allclose(trace.final_sigma, sigma, rtol=0, atol=ATOL)


# float.hex of (final_estimate, final_sigma) for master seed 1, two
# repetitions per preset: a byte that moves on the likelihood path fails here
# in the quick tier, not only in the acceptance Monte Carlo.  Which image of
# the phase group a run reports is decided by rounding-level ties between
# hypotheses, so a moved bit can move an estimate by a whole group shift.
# The four-mode entries' last bits follow fim_batch's Fisher sum, which the
# widths and the scoring information use: the 40-digit oracle
# (tests/oracle.py) puts each sigma within 2.2 ulps of the exact width at its
# estimate, and rep 1's first phase 9.0e-10 from the exact likelihood maximum.
# The grid passes' values (grid_probs) differ from prob_batch's in the last
# bits, which moves two entries: three-mode rep 1 is now 1.8e-11 from the
# exact joint-likelihood maximum (1.6e-9 before), and four-mode rep 0
# reports the (pi, pi) image of its old estimate, 1.1e-10 from the maximum
# as before.
HEX_PINS = {
    3: [(("0x1.1a08aabaf78c7p+1", "0x1.fddcbde987af3p-1"), ("0x1.60c84af592a2dp-8", "0x1.6a11b917a5d43p-8")),
        (("0x1.aa5cf660bbc13p-4", "0x1.8ace0adf99f7ep+1"), ("0x1.6031d076b79f0p-8", "0x1.6b6470bf76b32p-8"))],
    4: [(("0x1.67983c3baea4ep-1", "0x1.4d57a014c624bp+0"), ("0x1.206f5032aed96p-8", "0x1.1fa5a9bc5b569p-8")),
        (("0x1.66fc9811a0170p-1", "0x1.4b3e6d97d94f4p+0"), ("0x1.20b7634b61d19p-8", "0x1.1fcd2fa98d4d9p-8"))],
}


@pytest.mark.parametrize("modes,true_phases", [(3, (2.2, 1.0)), (4, (0.7, 1.3))])
@pytest.mark.parametrize("repetition", [0, 1])
def test_protocol_final_state_is_pinned_to_the_bit(modes, true_phases, repetition):
    config = ProtocolConfig(modes=modes, true_phases=true_phases, nu=10000)
    trace = run_protocol(config, SEEDS[repetition])
    got = tuple(tuple(float(x).hex() for x in v) for v in (trace.final_estimate, trace.final_sigma))
    assert got == HEX_PINS[modes][repetition]


@pytest.mark.parametrize("master_seed,repetition", [(19, 24), (50, 1)])
def test_four_mode_mirror_basin_repetitions_reach_the_truth(master_seed, repetition):
    # These repetitions of the 48-repetition four-mode run (bench workload
    # adaptive_mc) used to end in the a <-> b mirror basin, 26.6 and 22.3
    # bound widths from the truth; the final joint refit must find the
    # rough step's basin, whose joint likelihood is higher.
    config = ProtocolConfig(modes=4, true_phases=(0.7, 1.3), nu=10000)
    trace = run_protocol(config, derive_seeds(master_seed, 48)[repetition])
    errors = quotient_errors(trace.final_estimate, config.true_phases, config.phase_group())
    assert np.max(np.abs(errors)) <= 6.0 * config.bound_coeff / np.sqrt(config.nu)


def test_three_mode_fock_best_working_point():
    grid = scan_grid(three_mode_mzi(), Probe.fock((1, 1, 1)), resolution=64)
    best = find_working_points(grid)[0]
    np.testing.assert_allclose(best.phases, (0.892029962807412, 2.1908386214453985),
                               rtol=0, atol=ATOL)
    np.testing.assert_allclose(
        (best.tr_finv, best.finv11, best.finv22),
        (0.5916870442451844, 0.3096232410976758, 0.2820638031475086),
        rtol=0, atol=ATOL,
    )


def test_three_mode_coherent_min_trace():
    grid = scan_grid(three_mode_mzi(), Probe.coherent(np.sqrt(3.0)), resolution=64)
    # the exact Poisson Fisher information (test_probes checks its accuracy)
    assert abs(grid.min_trace() - 1.2887307076549737) <= ATOL


# float.hex of the best working point (phases, tr, finv11, finv22) and the
# sha256 of the exported CSV of 64^2 scans: a byte that moves anywhere on the
# scan, polish or export path fails here in the quick tier.
LANDSCAPE_PINS = {
    "fock3": (("0x1.c8b826ba9eaf4p-1", "0x1.186d6662f5faap+1", "0x1.2ef19ab0fffc5p-1",
               "0x1.3d0ddffa62588p-2", "0x1.20d555679da03p-2"),
              "66569e59274e2b00339513a9c98367c4e9877303ad6bf0bb51e4410a0c94feaa"),
    "fock4": (("0x1.e2af3e9723d9ap-11", "0x1.e2741b4b6ab99p-11", "0x1.80002d911a2cfp-2",
               "0x1.80002d9acb75fp-3", "0x1.80002d8768e3fp-3"),
              "ec0ae379912e9d6c98a28da29edca799cb9b56d5b4cce8011ed5e9e7f0780547"),
    "dist3": (("0x1.4390035f687a4p+0", "0x1.5cf92499707dap+2", "0x1.12284764ac2abp+2",
               "0x1.122844ae530f4p+1", "0x1.12284a1b05461p+1"),
              "7ff05f020aa44e3f0c82d03b1080674e5f5875c83cfcdcdb5d5ed6d048abba2b"),
    "dist4": (("0x1.2a4564920c49dp-12", "0x1.7b9479e872b01p-15", "0x1.800017d9806e9p-1",
               "0x1.8000119610f9ep-2", "0x1.80001e1cefe35p-2"),
              "d208bfc26892dc7651d6ed4f5483aaf2528b3b507ee7746c55bda0aadd135443"),
}
LANDSCAPE_CASES = {
    "fock3": (three_mode_mzi, (), Probe.fock((1, 1, 1))),
    "fock4": (four_mode_mzi, (0.001,), Probe.fock((1, 1, 1, 1))),
    "dist3": (three_mode_mzi, (), Probe.distinguishable((1, 1, 1))),
    "dist4": (four_mode_mzi, (0.001,), Probe.distinguishable((1, 1, 1, 1))),
}


@pytest.mark.parametrize("key", sorted(LANDSCAPE_PINS))
def test_landscape_working_point_and_csv_are_pinned_to_the_bit(key, tmp_path):
    preset, args, probe = LANDSCAPE_CASES[key]
    grid = scan_grid(preset(*args), probe, resolution=64)
    best = find_working_points(grid)[0]
    path = tmp_path / f"{key}.csv"
    export_grid(grid, path)
    got = tuple(float(v).hex() for v in (*best.phases, best.tr_finv, best.finv11, best.finv22))
    assert (got, hashlib.sha256(path.read_bytes()).hexdigest()) == LANDSCAPE_PINS[key]
