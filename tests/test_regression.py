"""Pinned outputs: fixed-seed protocol runs and landscape minima must stay
the same across code versions.  The values were recorded from the library
before its probe models and grid helpers were consolidated; a change that
moves any of them changes the numbers the package reports."""

import numpy as np
import pytest

from mmzi.adaptive import ProtocolConfig, derive_seeds, quotient_errors, run_protocol
from mmzi.landscape import find_working_points, scan_grid
from mmzi.optics import three_mode_mzi
from mmzi.probes import Probe

ATOL = 1e-9
SEEDS = derive_seeds(1, 2)


@pytest.mark.parametrize(
    "modes,true_phases,seed,estimate,sigma",
    [
        (3, (2.2, 1.0), SEEDS[0],
         (0.10899441373304378, 3.090219866812696),
         (0.005383032093765395, 0.0055247380443231445)),
        (4, (0.7, 1.3), SEEDS[1],
         (3.842738516697798, 4.435513953645103),
         (0.00440546201775976, 0.004391502510542657)),
    ],
)
def test_protocol_final_estimate_and_sigma(modes, true_phases, seed, estimate, sigma):
    trace = run_protocol(ProtocolConfig(modes=modes, true_phases=true_phases, nu=10000), seed)
    np.testing.assert_allclose(trace.final_estimate, estimate, rtol=0, atol=ATOL)
    np.testing.assert_allclose(trace.final_sigma, sigma, rtol=0, atol=ATOL)


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
