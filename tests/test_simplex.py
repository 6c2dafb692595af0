"""``nelder_mead`` against scipy's Nelder-Mead, bit for bit: synthetic
objectives with plateaus, ties, +inf, NaN, zero starts and an early
``maxiter``; the likelihood polishes of protocol runs; and the working-point
polishes of landscapes.  scipy is the reference here only: the package does
not import it."""

import numpy as np
import pytest
from scipy.optimize import minimize

from mmzi import adaptive, landscape
from mmzi.adaptive import ProtocolConfig, run_protocol
from mmzi.optics import four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe
from mmzi.simplex import nelder_mead


def _assert_scipys_result(objective, x0, **options):
    x, fun = nelder_mead(objective, x0, **options)
    want = minimize(objective, x0, method="Nelder-Mead", options=options)
    assert x.tobytes() == want.x.tobytes(), (x, want.x)
    assert np.float64(fun).tobytes() == np.float64(want.fun).tobytes(), (fun, want.fun)


def _synthetic_cases(n, count=360):
    """Objectives on R^n with a smooth bowl, rounded plateaus, a +inf half
    space, a NaN half space, integer-valued ties and a rippled bowl, from
    random, partly zero and all-zero starts."""
    rng = np.random.default_rng(n)
    for trial in range(count):
        c = rng.normal(size=n)
        a = rng.uniform(0.5, 3.0, size=n)
        objective = [
            lambda x: float(np.sum(a * (x - c) ** 2)),
            lambda x: float(np.round(np.sum((x - c) ** 2), 1)),
            lambda x: np.inf if x[0] > c[0] else float(np.sum((x - c) ** 2)),
            lambda x: np.nan if x[-1] < c[-1] - 0.3 else float(np.sum(np.cos(3.0 * (x - c)))),
            lambda x: float(np.floor(4.0 * np.sum(np.abs(x - c)))),
            lambda x: float(np.sum(np.sin(5.0 * x) + (x - c) ** 2)),
        ][trial % 6]
        x0 = rng.normal(size=n)
        if trial % 5 == 0:
            x0[rng.integers(n)] = 0.0
        if trial % 7 == 0:
            x0[:] = 0.0
        options = {"xatol": 1e-5, "fatol": 1e-10} if trial % 2 else {"xatol": 1e-4, "fatol": 1e-12}
        yield objective, x0, options | {"maxiter": 7 if trial % 11 == 0 else 400}


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_synthetic_minimizations_are_scipys_bit_for_bit(n):
    for objective, x0, options in _synthetic_cases(n):
        _assert_scipys_result(objective, x0, **options)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_vertices_are_ordered_where_scipy_orders_them(monkeypatch):
    # numpy's argsort leaves the order of tied values to the build: here an
    # argsort that reverses ties, so that sorting sorted values moves them
    # and every ordering scipy makes (two before the first iteration) shows
    real_argsort = np.argsort

    def ties_reversed(a, *args, **kwargs):
        a = np.asarray(a)
        return len(a) - 1 - real_argsort(a[::-1], kind="stable")

    monkeypatch.setattr(np, "argsort", ties_reversed)
    assert ties_reversed(np.array([1.0, 1.0, 0.5])).tolist() == [2, 1, 0]
    for n in (2, 3, 4):
        for objective, x0, options in _synthetic_cases(n, count=120):
            _assert_scipys_result(objective, x0, **options)


def test_a_nan_vertex_value_makes_the_minimum_nan_as_in_scipy():
    def objective(x):
        return np.nan if x[1] > 0.5 else float(x @ x)

    # the initial simplex has the vertex (0.3, 0.5145), and maxiter 1 stops
    # before the first iteration could replace it
    x, fun = nelder_mead(objective, [0.3, 0.49], xatol=1e-8, fatol=1e-8, maxiter=1)
    assert np.isnan(fun) and x.tolist() == [0.3, 0.49]
    for maxiter in (1, 2, 3):
        _assert_scipys_result(objective, np.array([0.3, 0.49]), xatol=1e-8, fatol=1e-8,
                              maxiter=maxiter)


@pytest.mark.parametrize("modes,true", [(3, (2.2, 1.0)), (4, (0.7, 1.3))])
def test_protocol_polishes_are_scipys_bit_for_bit(modes, true, monkeypatch):
    captured = []

    def recording(objective, x0, **options):
        captured.append((objective, np.array(x0, dtype=float), options))
        return nelder_mead(objective, x0, **options)

    monkeypatch.setattr(adaptive, "nelder_mead", recording)
    for seed in (5, 6):
        run_protocol(ProtocolConfig(modes=modes, true_phases=true), seed)
    assert len(captured) >= 10
    with np.errstate(divide="ignore"):
        for objective, x0, options in captured:
            _assert_scipys_result(objective, x0, **options)


@pytest.mark.parametrize("interf,probe", [
    (three_mode_mzi(), Probe.fock((1, 1, 1))),
    (four_mode_mzi(0.001), Probe.fock((1, 1, 1, 1))),
    (three_mode_mzi(), Probe.distinguishable((1, 1, 1))),
])
def test_working_point_polishes_are_scipys_bit_for_bit(interf, probe):
    grid = landscape.scan_grid(interf, probe, resolution=64)
    candidates = landscape._grid_local_minima(grid)
    assert len(candidates) >= 2
    for i, j in candidates:
        _assert_scipys_result(landscape._trace_objective(landscape._point_metrics(grid.model)),
                              np.array([grid.phi1[i], grid.phi2[j]]),
                              xatol=1e-5, fatol=1e-12, maxiter=600)
