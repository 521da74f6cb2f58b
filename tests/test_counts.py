"""One rule for every count, mode index, seed and grid size: ``core._count``.

Every entry point that takes one refuses a float (an integral one too), a
bool and a str with ``TypeError``, and a value below its floor with
``ValueError``, before anything is built: the first builder behind each one
is patched to fail.  A NumPy integer gives the bits a Python int gives, and
is stored as a Python int where it is stored.
"""

import json
import pickle
from typing import Callable, NamedTuple

import numpy as np
import pytest

from tffilter import core, gaussian, noisesim, schmidt, slepian
from tffilter.core import Domain, QuadratureAxis, SampledAxis, build_operator, recommended_axes
from tffilter.gaussian import gaussian_sif, gaussian_singular_values, hermite_gaussian_mode_set
from tffilter.noisesim import (
    MAX_TRIALS,
    NoiseEnsembleConfig,
    filtered_noise_correlation,
    run_ensemble,
    snr_setup,
    trial_generator,
)
from tffilter.schmidt import decompose_filter, project_onto_input_mode, schmidt_decompose
from tffilter.slepian import (
    pswf_solve_legendre,
    rectangular_filter_modes,
    rectangular_sif,
    slepian_filter_modes,
    slepian_singular_values,
)

GAUSSIAN = gaussian_sif(0.5, 1.0)


class Case(NamedTuple):
    """``make()`` builds what the call needs and returns it as a function of the
    count alone; ``builders`` are the (module, name)s that must not be reached
    with a bad count."""

    name: str
    floor: int
    valid: int
    make: Callable[[], Callable[[int], object]]
    builders: tuple = ()


def _schmidt_decompose():
    op = build_operator(GAUSSIAN, *recommended_axes(GAUSSIAN, 64))
    return lambda n: schmidt_decompose(op, n)


def _projection():
    res = decompose_filter(GAUSSIAN, keep=4)
    return lambda n: project_onto_input_mode(res, n, res.input_modes[2])


def _prolate(call):
    sol = pswf_solve_legendre(3.0, 4)  # a fresh solution: its quadrature is not built yet
    return lambda n: call(sol, n)


POINTS = np.linspace(-1.5, 1.5, 7)  # inside the interval and off it


def _rectangular_modes():
    axis = SampledAxis(-1.0, 2.0 / 512, 513, Domain.TIME)
    return lambda n: rectangular_filter_modes(rectangular_sif(4.0, 1.0), axis, n, "output")


def _ensemble(field):
    spec, _, mode, _ = snr_setup("gaussian", 0.5)
    given = {"trials": 10, "seed": 3}
    return lambda n: run_ensemble(NoiseEnsembleConfig(0.1, 1.0, mode, **{**given, field: n}), spec)


def _correlation(field):
    given = {"trials": 1000, "seed": 3}

    def run(n):
        kw = {**given, field: n}
        lags = np.array([0.0, 0.1])
        return filtered_noise_correlation(GAUSSIAN, 0.25, kw["trials"], lags, seed=kw["seed"])

    return run


NOISE_BUILDERS = ((noisesim, "_auto_correlation_axis"), (noisesim, "_filtered_noise_blocks"))

CASES = {
    "SampledAxis": Case(
        "axis count", 2, 5, lambda: lambda n: (ax := SampledAxis(0.0, 1.0, n, Domain.TIME), ax.points)
    ),
    "QuadratureAxis": Case(
        "axis count",
        2,
        5,
        lambda: lambda n: (ax := QuadratureAxis(1.0, n, Domain.TIME), ax.points),
        ((core, "_legendre_rule"),),
    ),
    "decompose_filter-keep": Case(
        "keep", 1, 4, lambda: lambda n: decompose_filter(GAUSSIAN, keep=n), ((schmidt, "recommended_axes"),)
    ),
    "decompose_filter-max_resolution": Case(
        "max_resolution",
        91,
        128,
        lambda: lambda n: decompose_filter(GAUSSIAN, keep=4, max_resolution=n),
        ((schmidt, "recommended_axes"),),
    ),
    "schmidt_decompose-keep": Case("keep", 1, 4, _schmidt_decompose, ((schmidt, "_svd"),)),
    "project_onto_input_mode": Case("mode index", 0, 2, _projection, ((schmidt, "inner_product"),)),
    "gaussian_singular_values": Case(
        "count", 1, 5, lambda: lambda n: gaussian_singular_values(0.5, n), ((gaussian, "mehler_u"),)
    ),
    "hermite_gaussian_mode_set": Case(
        "count",
        1,
        3,
        lambda: lambda n: hermite_gaussian_mode_set(GAUSSIAN, None, n, "input"),
        ((gaussian, "SampledAxis"), (gaussian, "_hermite_rows")),
    ),
    "pswf_solve_legendre": Case(
        "n_max", 0, 4, lambda: lambda n: pswf_solve_legendre(3.0, n), ((slepian, "_solve_stacked"),)
    ),
    "slepian_singular_values": Case(
        "count",
        1,
        4,
        lambda: lambda n: slepian_singular_values(3.0, n),
        ((slepian, "pswf_solve_legendre"),),
    ),
    "PswfSolution.evaluate": Case(
        "mode index",
        0,
        2,
        lambda: _prolate(lambda sol, n: sol.evaluate(n, POINTS)),
        ((slepian, "_normalized_legendre"), (slepian, "_legendre_rule")),
    ),
    "PswfSolution.finite_transform": Case(
        "mode index",
        0,
        2,
        lambda: _prolate(lambda sol, n: sol.finite_transform(n, POINTS)),
        ((slepian, "_normalized_legendre"), (slepian, "_legendre_rule")),
    ),
    "PswfSolution.log_slope": Case(
        "mode index",
        0,
        2,
        lambda: _prolate(lambda sol, n: sol.log_slope(n)),
        ((slepian, "_log_slopes"),),
    ),
    "slepian_filter_modes": Case(
        "mode index",
        0,
        2,
        lambda: _prolate(slepian_filter_modes),
        ((slepian, "SampledAxis"),),
    ),
    "rectangular_filter_modes": Case(
        "count", 1, 3, _rectangular_modes, ((slepian, "pswf_solve_legendre"),)
    ),
    "NoiseEnsembleConfig-trials": Case("trials", 1, 10, lambda: _ensemble("trials"), NOISE_BUILDERS),
    "NoiseEnsembleConfig-seed": Case("seed", 0, 3, lambda: _ensemble("seed"), NOISE_BUILDERS),
    "filtered_noise_correlation-trials": Case(
        "trials", 1000, 1000, lambda: _correlation("trials"), NOISE_BUILDERS
    ),
    "filtered_noise_correlation-seed": Case("seed", 0, 3, lambda: _correlation("seed"), NOISE_BUILDERS),
    "trial_generator-seed": Case(
        "seed",
        0,
        3,
        lambda: lambda n: trial_generator(n, 5).standard_normal(4),
        ((np.random, "SeedSequence"),),
    ),
    "trial_generator-trial": Case(
        "trial",
        0,
        5,
        lambda: lambda n: trial_generator(3, n).standard_normal(4),
        ((np.random, "SeedSequence"),),
    ),
}

# (value as a function of the case's valid count and floor, error)
BAD = {
    "float": (lambda c: float(c.valid), TypeError),
    "float64": (lambda c: np.float64(c.valid), TypeError),
    "bool": (lambda c: True, TypeError),
    "str": (lambda c: str(c.valid), TypeError),
    "below-the-floor": (lambda c: c.floor - 1, ValueError),
}


def _refuse(*args, **kwargs):
    raise AssertionError("built before the count was checked")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", CASES)
def test_a_bad_count_is_refused_before_anything_is_built(entry, bad, monkeypatch):
    case = CASES[entry]
    value_of, error = BAD[bad]
    value = value_of(case)
    run = case.make()
    for module, name in case.builders:
        monkeypatch.setattr(module, name, _refuse)
    if error is TypeError:
        message = f"^{case.name} must be an int, got {type(value).__name__}$"
    else:
        message = f"^{case.name} out of range$"
    with pytest.raises(error, match=message):
        run(value)


@pytest.mark.parametrize("kind", [np.int32, np.int64])
@pytest.mark.parametrize("entry", CASES)
def test_a_numpy_integer_count_gives_the_bits_of_an_int(entry, kind):
    # pickled whole, so a count stored as a NumPy integer would differ too
    case = CASES[entry]
    run = case.make()
    assert pickle.dumps(run(kind(case.valid))) == pickle.dumps(run(case.valid))


def test_a_report_of_numpy_integer_trials_and_seed_serialises():
    spec, _, mode, _ = snr_setup("gaussian", 0.5)
    rep = run_ensemble(NoiseEnsembleConfig(0.1, 1.0, mode, np.int64(10), np.int64(3)), spec)
    data = json.loads(json.dumps(rep.as_dict()))
    assert (data["trials"], data["seed"]) == (10, 3)
    assert type(rep.trials) is int and type(rep.seed) is int


def test_replay_takes_the_trial_indices_of_a_run():
    # a run of MAX_TRIALS trials draws trial MAX_TRIALS - 1 and no later one
    last = np.random.SeedSequence(7, spawn_key=(MAX_TRIALS - 1,))
    want = np.random.Generator(np.random.Philox(last)).standard_normal(4)
    assert np.array_equal(trial_generator(7, MAX_TRIALS - 1).standard_normal(4), want)
    with pytest.raises(ValueError, match="^trial out of range$"):
        trial_generator(7, MAX_TRIALS)
