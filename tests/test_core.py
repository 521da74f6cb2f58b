"""Axes, transforms, and operator assembly."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tffilter
from tffilter.core import (
    _legendre_rule,
    _transport,
    Domain,
    DomainMismatchError,
    QuadratureAxis,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    Sif,
    StageOrder,
    apply_filter,
    build_operator,
    centered_axis,
    filter_samples,
    fourier_forward,
    fourier_inverse,
    frequency_axis_for,
    inner_product,
    parity_blocks,
    recommended_axes,
)
from tffilter.gaussian import (
    GaussianProfile,
    gaussian_sif,
    hermite_gaussian_mode_set,
)
from tffilter.noisesim import (
    NoiseEnsembleConfig,
    filtered_noise_correlation,
    run_ensemble,
    sample_white_noise,
)
from tffilter.schmidt import decompose_filter
from tffilter.slepian import RectangularProfile, rectangular_sif


def gaussian_pulse(axis: SampledAxis, width: float = 1.0) -> SampledSignal:
    t = axis.points
    return SampledSignal(axis, np.exp(-(t / width) ** 2).astype(complex))


class TestSampledAxis:
    def test_points_and_span(self):
        ax = SampledAxis(-2.0, 0.5, 9, Domain.TIME)
        assert ax.points[0] == -2.0
        assert ax.points[-1] == pytest.approx(2.0)
        assert ax.count == 9
        assert ax.span == pytest.approx(4.0)

    def test_measure_time_is_step(self):
        ax = SampledAxis(0.0, 0.25, 5, Domain.TIME)
        assert ax.measure == pytest.approx(0.25)

    def test_measure_frequency_folds_2pi(self):
        ax = SampledAxis(0.0, 0.25, 5, Domain.ANGULAR_FREQUENCY)
        assert ax.measure == pytest.approx(0.25 / (2.0 * np.pi))

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        start=st.floats(-1e3, 1e3),
        step=st.floats(1e-4, 10.0),
        count=st.integers(2, 300),
        domain=st.sampled_from(list(Domain)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_are_the_integration_rule(self, start, step, count, domain, seed):
        # one rule per axis: the weights a ladder is factored with integrate
        # exactly as integrate() does, the Riemann sum on a uniform grid and
        # Gauss-Legendre on a quadrature axis
        v = np.random.default_rng(seed).standard_normal(count)
        for ax in (SampledAxis(start, step, count, domain), QuadratureAxis(step, count, domain)):
            scale = np.abs(v) @ ax.quadrature_weights()
            assert abs(v @ ax.quadrature_weights() - ax.integrate(v)) <= 4 * np.finfo(float).eps * scale

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledAxis(0.0, -0.1, 4, Domain.TIME)
        with pytest.raises(ValueError):
            SampledAxis(0.0, 0.1, 1, Domain.TIME)

    def test_centered_axis_contains_zero(self):
        ax = centered_axis(0.125, 33, Domain.TIME)
        assert np.min(np.abs(ax.points)) == pytest.approx(0.0, abs=1e-15)


# Gauss-Legendre nodes and weights from Newton's method on the Legendre recurrence at 40
# digits in mpmath (one more step at 60 digits moves no weight by 1e-32 relative), printed
# to 30 digits: (count, index) -> (node, weight).  The edge weights are where a rule loses
# accuracy: scipy.special.roots_legendre is off by 2.0e-10 at (276, 0) and 1.8e-9 at (1024, 0).
LEGENDRE_40_DIGIT = {
    (257, 0): (-0.99995639071233040247285681745, 0.00011191470145601756450862287886),
    (257, 1): (-0.999770232390338019056052574735, 0.000260499955801769644368066808308),
    (257, 128): (0.0, 0.0122003368199861450777728923176),
    (276, 0): (-0.999962178070600115272837138753, 0.0000970626728019379647317829553918),
    (276, 1): (-0.999800723869621630212869169128, 0.000225931266268853926195405229359),
    (276, 69): (-0.702066505221991494839439417992, 0.00809098255870146423216891663037),
    (1024, 0): (-0.999997245054558440351618206183, 0.00000707007641018258987129580517564),
    (1024, 1): (-0.999985484385028444767591359765, 0.0000164577275798968681068057987567),
    (1024, 2): (-0.999964326153889455094333024951, 0.0000258591246764618586715766963672),
    (1024, 511): (-0.00153323135606263840653874557698, 0.00306646030924390821155127849205),
}


class TestLegendreRule:
    @pytest.mark.parametrize("count", [257, 276, 1024])
    def test_matches_pinned_oracle(self, count):
        x, w = _legendre_rule(count)
        pins = {i: ref for (n, i), ref in LEGENDRE_40_DIGIT.items() if n == count}
        for i, (node, weight) in pins.items():
            assert abs(x[i] - node) <= 2.0 * np.spacing(1.0)
            assert abs(w[i] - weight) <= 3e-12 * weight

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 8, 16])
    def test_small_rules_match_numpy(self, count):
        # leggauss (companion-matrix eigenvalues and one Newton step) is an oracle only
        # while its own error stays at a few ulp, i.e. for small counts
        ref_x, ref_w = np.polynomial.legendre.leggauss(count)
        x, w = _legendre_rule(count)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-13

    @pytest.mark.parametrize("count", [40, 257, 512])
    def test_symmetric_ascending_and_exact(self, count):
        x, w = _legendre_rule(count)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and -1.0 < x[0]
        # exact for every polynomial of degree < 2 count: the even moments 2 / (2k + 1)
        for k in (0, 1, count // 2, count - 1):
            assert w @ x ** (2 * k) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    def test_shared_arrays_are_read_only(self):
        x, w = _legendre_rule(64)
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert _legendre_rule(64)[1][0] != 1.0


class TestQuadratureAxis:
    def test_nodes_lie_strictly_inside_support(self):
        ax = QuadratureAxis(1.5, 64, Domain.TIME)
        assert ax.points.shape == (64,)
        assert np.all(np.diff(ax.points) > 0)
        assert -1.5 < ax.points[0] and ax.points[-1] < 1.5

    def test_brick_wall_profiles_sampled_only_where_one(self):
        # no node sits on a jump, so the indicators read exactly 1 at every node
        spec = rectangular_sif(0.8, 1.0)
        t_ax, f_ax = recommended_axes(spec, resolution=256)
        assert np.all(spec.temporal(t_ax.points) == 1.0)
        assert np.all(spec.spectral(f_ax.points) == 1.0)

    def test_indicator_quadrature_exact(self):
        # the weights carry the axis measure: 2a on time, 2a / 2pi on frequency
        t_ax = QuadratureAxis(1.5, 48, Domain.TIME)
        assert t_ax.integrate(np.ones(48)) == pytest.approx(3.0, rel=1e-14)
        f_ax = QuadratureAxis(1.5, 48, Domain.ANGULAR_FREQUENCY)
        assert np.sum(f_ax.quadrature_weights()) == pytest.approx(3.0 / (2.0 * np.pi), rel=1e-14)

    def test_smooth_modes_orthonormal_under_gauss_legendre(self):
        # Hermite-Gauss modes on a Gauss-Legendre frequency axis: energy and
        # inner products integrate through the axis quadrature
        spec = gaussian_sif(0.5, 1.0)
        ax = QuadratureAxis(12.0 * spec.alpha, 128, Domain.ANGULAR_FREQUENCY)
        modes = hermite_gaussian_mode_set(spec, ax, 4, "input")
        gram = np.array([[inner_product(a, b) for b in modes] for a in modes])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_close_to_needs_same_kind(self):
        ax = QuadratureAxis(1.0, 32, Domain.TIME)
        assert ax.close_to(QuadratureAxis(1.0 + 1e-12, 32, Domain.TIME))
        assert not ax.close_to(QuadratureAxis(1.0, 33, Domain.TIME))
        assert not ax.close_to(QuadratureAxis(1.0, 32, Domain.ANGULAR_FREQUENCY))
        assert not ax.close_to(centered_axis(1.0 / 16, 32, Domain.TIME))
        assert not centered_axis(1.0 / 16, 32, Domain.TIME).close_to(ax)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            QuadratureAxis(0.0, 8, Domain.TIME)
        with pytest.raises(ValueError):
            QuadratureAxis(1.0, 1, Domain.TIME)

    @pytest.mark.parametrize(
        "entry",
        ["fourier_forward", "fourier_inverse", "frequency_axis_for", "apply_filter",
         "filter_samples", "sample_white_noise"],
    )
    def test_uniform_grid_entry_points_refuse_quadrature_axes(self, entry):
        # FFT-based paths need a uniform grid; a Gauss-Legendre axis is a typed
        # domain error, not an AttributeError from a missing step
        t_ax = QuadratureAxis(1.0, 64, Domain.TIME)
        f_ax = QuadratureAxis(10.0, 64, Domain.ANGULAR_FREQUENCY)
        ones = np.ones(64, dtype=complex)
        call = {
            "fourier_forward": lambda: fourier_forward(SampledSignal(t_ax, ones)),
            "fourier_inverse": lambda: fourier_inverse(SampledSignal(f_ax, ones)),
            "frequency_axis_for": lambda: frequency_axis_for(t_ax),
            "apply_filter": lambda: apply_filter(gaussian_sif(0.5, 1.0), SampledSignal(t_ax, ones)),
            "filter_samples": lambda: filter_samples(gaussian_sif(0.5, 1.0), t_ax, ones),
            "sample_white_noise": lambda: sample_white_noise(t_ax, 0.1, np.random.default_rng(0)),
        }[entry]
        with pytest.raises(DomainMismatchError):
            call()


class TestFourierPair:
    def test_round_trip_identity(self):
        ax = centered_axis(16.0 / 1024, 1024, Domain.TIME)
        sig = gaussian_pulse(ax)
        back = fourier_inverse(fourier_forward(sig))
        assert back.axis.close_to(ax)
        assert np.max(np.abs(back.values - sig.values)) < 1e-12

    def test_forward_matches_continuum_gaussian(self):
        # exp(-t^2) has transform sqrt(pi) exp(-w^2/4) under the e^{+iwt} kernel
        ax = centered_axis(32.0 / 4096, 4096, Domain.TIME)
        spec = fourier_forward(gaussian_pulse(ax))
        w = spec.axis.points
        expected = np.sqrt(np.pi) * np.exp(-(w**2) / 4.0)
        assert np.max(np.abs(spec.values - expected)) < 1e-10

    def test_shift_theorem_phase_sign(self):
        # f(t - s) picks up e^{+i w s} under this sign convention
        ax = centered_axis(32.0 / 4096, 4096, Domain.TIME)
        shift = 0.75
        t = ax.points
        plain = fourier_forward(gaussian_pulse(ax))
        moved = fourier_forward(
            SampledSignal(ax, np.exp(-((t - shift) ** 2)).astype(complex))
        )
        w = plain.axis.points
        predicted = plain.values * np.exp(1j * w * shift)
        assert np.max(np.abs(moved.values - predicted)) < 1e-10

    def test_parseval_energy(self):
        ax = centered_axis(20.0 / 2048, 2048, Domain.TIME)
        sig = gaussian_pulse(ax, width=0.8)
        assert fourier_forward(sig).energy() == pytest.approx(sig.energy(), rel=1e-12)

    def test_frequency_axis_reciprocity(self):
        ax = centered_axis(0.01, 500, Domain.TIME)
        fax = frequency_axis_for(ax)
        assert fax.step * ax.step == pytest.approx(2.0 * np.pi / ax.count)

    def test_forward_rejects_frequency_input(self):
        ax = centered_axis(0.1, 64, Domain.ANGULAR_FREQUENCY)
        sig = SampledSignal(ax, np.ones(64, dtype=complex))
        with pytest.raises(DomainMismatchError):
            fourier_forward(sig)


# a uniform grid of 2..256 samples (odd counts included) whose start lies
# anywhere from two spans left of 0 to one span right of it
grids = st.builds(
    lambda count, step, shift: SampledAxis(shift * count * step, step, count, Domain.TIME),
    st.integers(min_value=2, max_value=256),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=-2.0, max_value=1.0),
)


def random_signal(axis: SampledAxis, seed: int) -> SampledSignal:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, axis.count))
    return SampledSignal(axis, z[0] + 1j * z[1])


def inverse_onto(spectrum: SampledSignal, axis: SampledAxis) -> SampledSignal:
    """``fourier_inverse`` of ``spectrum`` on a time ``axis`` of its reciprocal step,
    centred or not: by the shift theorem, f(t + d) is the inverse of exp(-i w d) f~(w)."""
    shift = axis.start - fourier_inverse(spectrum).axis.start
    shifted = SampledSignal(spectrum.axis, spectrum.values * np.exp(-1j * spectrum.axis.points * shift))
    return SampledSignal(axis, fourier_inverse(shifted).values)


@settings(max_examples=60, deadline=None, database=None)
@given(grids, st.integers(min_value=0, max_value=2**32 - 1))
def test_fourier_parseval_and_round_trip(axis, seed):
    sig = random_signal(axis, seed)
    spec = fourier_forward(sig)
    assert spec.axis.close_to(frequency_axis_for(axis))
    assert abs(spec.energy() - sig.energy()) <= 1e-12 * sig.energy()
    back = inverse_onto(spec, axis)
    assert np.max(np.abs(back.values - sig.values)) <= 1e-12 * np.max(np.abs(sig.values))


@settings(max_examples=60, deadline=None, database=None)
@given(
    grids,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["gaussian", "rectangular"]),
    st.floats(min_value=0.1, max_value=5.0),
    st.sampled_from(list(StageOrder)),
    st.booleans(),
)
def test_filter_samples_never_gains_energy(axis, seed, family, bt, order, spectral):
    # peak-normalized stages and a unitary discrete transform: energy out <= energy in
    make = gaussian_sif if family == "gaussian" else rectangular_sif
    spec = make(bt, 1.0, order)
    sig = random_signal(axis, seed).normalized()
    if spectral:  # the same signal on the centred reciprocal frequency axis
        centred = centered_axis(axis.step, axis.count, Domain.TIME)
        sig = fourier_forward(SampledSignal(centred, sig.values))
    out = SampledSignal(sig.axis, filter_samples(spec, sig.axis, sig.values))
    assert out.energy() <= sig.energy() + 1e-12


class TestSignal:
    def test_norm_energy_normalized(self):
        ax = centered_axis(0.01, 1001, Domain.TIME)
        sig = gaussian_pulse(ax)
        unit = sig.normalized()
        assert unit.norm() == pytest.approx(1.0, rel=1e-12)
        assert unit.energy() == pytest.approx(1.0, rel=1e-12)

    def test_inner_product_self_is_energy(self):
        ax = centered_axis(0.01, 1001, Domain.TIME)
        sig = gaussian_pulse(ax)
        assert inner_product(sig, sig).real == pytest.approx(sig.energy(), rel=1e-12)

    def test_inner_product_rejects_mismatched_axes(self):
        a = centered_axis(0.01, 101, Domain.TIME)
        b = centered_axis(0.02, 101, Domain.TIME)
        with pytest.raises(DomainMismatchError):
            inner_product(gaussian_pulse(a), gaussian_pulse(b))


class TestApplyFilter:
    def test_matches_operator_action_gaussian(self):
        # the operator on a centred time axis and its reciprocal frequency
        # axis maps the input's samples in one domain onto the output's in the
        # other, the way round that the order fixes.  Entries are
        # sqrt(w) K sqrt(w), so the row weight is undone after acting
        sig = gaussian_pulse(centered_axis(16.0 / 1024, 1024, Domain.TIME)).normalized()
        spectrum = fourier_forward(sig)
        for order in StageOrder:
            spec = gaussian_sif(0.5, 1.0, order)
            time_rows = order is StageOrder.FREQUENCY_FIRST
            out_side, in_side = (sig, spectrum) if time_rows else (spectrum, sig)
            direct = apply_filter(spec, out_side)
            op = build_operator(spec, out_side.axis, in_side.axis)
            sr = np.sqrt(out_side.axis.quadrature_weights())
            sc = np.sqrt(in_side.axis.quadrature_weights())
            acted = (op.entries @ (sc * in_side.values)) / sr
            assert np.max(np.abs(direct.values - acted)) < 1e-12, order

    def test_undersampled_grid_raises(self):
        spec = gaussian_sif(4.0, 1.0)  # needs dt <= 1/40
        ax = centered_axis(0.1, 256, Domain.TIME)
        with pytest.raises(ResolutionError):
            apply_filter(spec, gaussian_pulse(ax))
        # on a spectrum the gate acts on the reciprocal time grid: dw = pi / 2
        # puts it on [-2, 2) s, inside the gate's 1e-12 radius of 4.19 s
        spec = gaussian_sif(0.5, 1.0)
        f_ax = centered_axis(np.pi / 2, 256, Domain.ANGULAR_FREQUENCY)
        spectrum = SampledSignal(f_ax, spec.spectral(f_ax.points))
        with pytest.raises(ResolutionError, match="gate support"):
            apply_filter(spec, spectrum)

    def test_output_energy_below_input(self):
        spec = gaussian_sif(0.5, 1.0)
        ax = centered_axis(16.0 / 1024, 1024, Domain.TIME)
        sig = gaussian_pulse(ax).normalized()
        assert apply_filter(spec, sig).energy() <= 1.0 + 1e-12


    @pytest.mark.parametrize("domain", [Domain.TIME, Domain.ANGULAR_FREQUENCY])
    @pytest.mark.parametrize("kind", ["sif_frequency_first", "sif_time_first"])
    def test_filter_samples_rows_match_apply_filter(self, kind, domain):
        # a (rows, n) block filters row by row like apply_filter, and the
        # caller's block is left untouched
        ax = centered_axis(16.0 / 1024, 1024, Domain.TIME)
        spec = {
            "sif_frequency_first": gaussian_sif(0.5, 1.0),
            "sif_time_first": gaussian_sif(0.5, 1.0, StageOrder.TIME_FIRST),
        }[kind]
        rng = np.random.default_rng(5)
        rows = [
            SampledSignal(ax, rng.standard_normal(ax.count) + 1j * rng.standard_normal(ax.count))
            for _ in range(3)
        ]
        if domain is Domain.ANGULAR_FREQUENCY:
            rows = [fourier_forward(r) for r in rows]
        block = np.stack([r.values for r in rows])
        before = block.copy()
        out = filter_samples(spec, rows[0].axis, block)
        assert np.array_equal(block, before)
        assert out.shape == block.shape
        for row, sig in zip(out, rows):
            ref = apply_filter(spec, sig).values
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the private in-place path, which the noise ensembles run, is the same numerics
        assert _transport(spec, rows[0].axis)(block, block) is block
        assert np.array_equal(block, out)


def stage_by_stage(spec: Sif, signal: SampledSignal) -> np.ndarray:
    """``spec`` applied one stage at a time, each in its own domain, by the public transforms."""
    stages = [spec.spectral, spec.temporal]
    if spec.order is StageOrder.TIME_FIRST:
        stages.reverse()
    on_time = signal.axis.domain is Domain.TIME
    sig = signal
    for profile in stages:
        native = profile.domain is signal.axis.domain
        if not native:  # over to the stage's own domain: a centred grid there
            sig = fourier_forward(sig) if on_time else fourier_inverse(sig)
        sig = SampledSignal(sig.axis, sig.values * profile(sig.axis.points))
        if not native:  # and back onto the caller's grid
            sig = inverse_onto(sig, signal.axis) if on_time else fourier_forward(sig)
    assert sig.axis.close_to(signal.axis)
    return sig.values


class TestTransportOracle:
    """filter_samples against its stages applied one at a time, with no ramps or stages folded."""

    @pytest.mark.parametrize(
        "axis",
        [
            SampledAxis(-2.3, 8.0 / 511, 511, Domain.TIME),  # odd count, non-centred start
            centered_axis(8.0 / 512, 512, Domain.TIME),
            frequency_axis_for(centered_axis(8.0 / 511, 511, Domain.TIME)),
            frequency_axis_for(centered_axis(8.0 / 512, 512, Domain.TIME)),
        ],
        ids=["time-odd-shifted", "time-centred", "frequency-odd", "frequency-even"],
    )
    @pytest.mark.parametrize(
        "kind",
        ["gaussian_ff", "gaussian_tf", "brickwall_ff", "brickwall_tf"],
    )
    def test_matches_stage_by_stage(self, kind, axis):
        g = gaussian_sif(1.5, 1.0)
        spec = {
            "gaussian_ff": g,
            "gaussian_tf": replace(g, order=StageOrder.TIME_FIRST),
            "brickwall_ff": rectangular_sif(2.0, 1.0),
            "brickwall_tf": rectangular_sif(2.0, 1.0, StageOrder.TIME_FIRST),
        }[kind]
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((3, axis.count)) + 1j * rng.standard_normal((3, axis.count))
        out = filter_samples(spec, axis, rows)
        for row, got in zip(rows, out):
            ref = stage_by_stage(spec, SampledSignal(axis, row))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gate_on_a_shifted_spectrum_is_refused(self):
        ax = frequency_axis_for(centered_axis(8.0 / 512, 512, Domain.TIME))
        shifted = SampledAxis(ax.start + 3 * ax.step, ax.step, ax.count, ax.domain)
        spec = gaussian_sif(1.5, 1.0)
        with pytest.raises(DomainMismatchError, match="centered"):
            filter_samples(spec, shifted, np.ones(ax.count, dtype=complex))


class TestFourierOwnership:
    def test_fft_calls_live_only_in_core(self):
        # one Fourier convention, implemented once: every other module
        # transforms through core
        pkg = Path(tffilter.__file__).parent
        fft_use = re.compile(r"\b(np|numpy|scipy)\.fft\b")
        users = sorted(p.name for p in pkg.glob("*.py") if fft_use.search(p.read_text("utf-8")))
        assert users == ["core.py"]


class TestIntegrationRuleOwnership:
    def test_profile_quadrature_lives_only_in_core(self):
        # one integration rule per profile: B, T and the |R~|^2 moments run on
        # core._profile_axis, the axis the ladder is factored on
        pkg = Path(tffilter.__file__).parent
        rule_use = re.compile(r"\b(np|numpy)\.trapz(oid)?\b|\bQuadratureAxis\(")
        users = sorted(p.name for p in pkg.glob("*.py") if rule_use.search(p.read_text("utf-8")))
        assert users == ["core.py"]


class TestScipyOwnership:
    def test_no_module_imports_scipy(self):
        # NumPy is the only runtime dependency: the Schmidt SVDs, the prolate
        # solver, the quadrature rules and the key-rate code all run on it
        pkg = Path(tffilter.__file__).parent
        sites = []
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    sites.append((path.name, node.lineno))
        assert sites == []


class TestOperator:
    def test_order_swap_same_grid_same_singulars(self):
        ff = rectangular_sif(0.8, 1.0)
        tf = rectangular_sif(0.8, 1.0, StageOrder.TIME_FIRST)
        rows, cols = recommended_axes(ff, resolution=256)
        a = np.linalg.svd(build_operator(ff, rows, cols).entries, compute_uv=False)
        b = np.linalg.svd(build_operator(tf, cols, rows).entries, compute_uv=False)
        assert np.max(np.abs(a[:10] - b[:10])) < 1e-12

    def test_weights_applied_flag(self):
        spec = gaussian_sif(0.5, 1.0)
        rows, cols = recommended_axes(spec, resolution=128)
        op = build_operator(spec, rows, cols)
        # quadrature weights folded in: the Frobenius mass is sum lambda_n^2 = BT
        assert op.frobenius_sq() == pytest.approx(0.5, rel=1e-12)
        assert op.entries.shape == (rows.count, cols.count)

    def test_mixed_and_coherent_entries_stay_complex(self):
        # the Fourier phase of the mixed brick-wall kernel keeps the matrix complex
        ff = rectangular_sif(0.8, 1.0)
        rows, cols = recommended_axes(ff, resolution=64)
        assert build_operator(ff, rows, cols).entries.dtype == np.complex128

    def test_entries_are_a_read_only_copy(self):
        spec = gaussian_sif(0.5, 1.0)
        rows, cols = recommended_axes(spec, resolution=64)
        raw = np.ones((rows.count, cols.count))
        op = tffilter.OperatorMatrix(rows, cols, raw, None)
        raw[0, 0] = 2.0
        assert op.entries[0, 0] == 1.0
        assert not op.entries.flags.writeable
        with pytest.raises(ValueError):
            tffilter.OperatorMatrix(rows, cols, np.full((rows.count, cols.count), np.nan), None)

    def test_recommended_axes_compact_mixed_domains(self):
        # FREQUENCY_FIRST: window limits the input spectrum, gate the output trace
        ff = rectangular_sif(0.8, 1.0)
        rows, cols = recommended_axes(ff, resolution=128)
        assert cols.domain is Domain.ANGULAR_FREQUENCY
        assert rows.domain is Domain.TIME

    @pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
    @pytest.mark.parametrize(
        "window, gate",
        [
            (GaussianProfile(0.5, Domain.ANGULAR_FREQUENCY), GaussianProfile(1.0, Domain.TIME)),
            (GaussianProfile(2.0, Domain.ANGULAR_FREQUENCY), RectangularProfile(1.0, Domain.TIME)),
            (RectangularProfile(2.0, Domain.ANGULAR_FREQUENCY), GaussianProfile(1.0, Domain.TIME)),
            (RectangularProfile(0.8, Domain.ANGULAR_FREQUENCY), RectangularProfile(1.0, Domain.TIME)),
        ],
        ids=["gauss-gauss", "gauss-rect", "rect-gauss", "rect-rect"],
    )
    def test_recommended_axes_mixed_per_profile(self, window, gate, order):
        # one time and one frequency axis, each chosen by its own profile:
        # Gauss-Legendre inside a compact support, a symmetric uniform grid
        # over a smooth profile's 1e-13 radius
        rows, cols = recommended_axes(Sif(window, gate, order), resolution=128)
        t_ax, f_ax = (rows, cols) if order is StageOrder.FREQUENCY_FIRST else (cols, rows)
        assert t_ax.domain is Domain.TIME and f_ax.domain is Domain.ANGULAR_FREQUENCY
        for ax, profile in ((t_ax, gate), (f_ax, window)):
            assert ax.count == 128
            if profile.compact:
                assert ax == QuadratureAxis(profile.support(1e-13), 128, ax.domain)
            else:
                assert isinstance(ax, SampledAxis)
                assert ax.start == -profile.support(1e-13)
                assert ax.stop == pytest.approx(profile.support(1e-13), rel=1e-14)

    def test_zero_kernel_is_refused(self):
        # peak-normalized profiles never give a kernel that vanishes at every
        # sample of a grid that covers the filter: a Sif whose rows, columns
        # or both miss its support is refused, in either order
        ff = gaussian_sif(0.5, 1.0)
        tf = replace(ff, order=StageOrder.TIME_FIRST)
        t_ax, f_ax = recommended_axes(ff, resolution=64)
        far = SampledAxis(100.0, 0.01, 64, Domain.TIME)
        far_freq = SampledAxis(1000.0, 0.1, 64, Domain.ANGULAR_FREQUENCY)
        for filt, rows, cols in (
            (ff, far, f_ax),
            (ff, t_ax, far_freq),
            (ff, far, far_freq),
            (tf, f_ax, far),
            (tf, far_freq, t_ax),
            (tf, far_freq, far),
        ):
            with pytest.raises(ResolutionError, match="kernel vanishes"):
                build_operator(filt, rows, cols)

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.name.lower())
    def test_same_domain_pairs_are_refused(self, domain):
        # a Sif has one kernel, the mixed time x frequency one, in either order
        g = gaussian_sif(0.5, 1.0)
        ax = centered_axis(0.1, 64, domain)
        for spec in (g, replace(g, order=StageOrder.TIME_FIRST)):
            with pytest.raises(DomainMismatchError):
                build_operator(spec, ax, ax)


@pytest.mark.parametrize("family", [GaussianProfile, RectangularProfile], ids=["gauss", "rect"])
def test_stages_on_the_wrong_domains_are_refused_at_construction(family):
    # a window on the time axis or a gate on the frequency axis is refused by
    # Sif itself, with the typed error, before any entry point reads a stage
    window = family(0.5, Domain.ANGULAR_FREQUENCY)
    gate = family(1.0, Domain.TIME)
    for spectral, temporal in ((gate, window), (window, window), (gate, gate), (window, None)):
        for order in StageOrder:
            with pytest.raises(DomainMismatchError, match="stage must be a StageProfile on"):
                Sif(spectral, temporal, order)
    assert Sif(window, gate).bt == 0.5


@pytest.mark.parametrize("family", [GaussianProfile, RectangularProfile], ids=["gauss", "rect"])
def test_profiles_are_values(family):
    # a profile is its class, width and domain: equal ones hash alike, so a
    # Sif built twice from the same arguments is one key
    for domain in Domain:
        a, b = family(0.5, domain), family(0.5, domain)
        assert a == b and hash(a) == hash(b)
        assert a != family(0.25, domain)
    assert family(0.5, Domain.TIME) != family(0.5, Domain.ANGULAR_FREQUENCY)
    other = RectangularProfile if family is GaussianProfile else GaussianProfile
    assert family(0.5, Domain.TIME) != other(0.5, Domain.TIME)
    assert family(0.5, Domain.TIME) != 0.5
    window, gate = family(0.5, Domain.ANGULAR_FREQUENCY), family(1.0, Domain.TIME)
    twin = Sif(family(0.5, Domain.ANGULAR_FREQUENCY), family(1.0, Domain.TIME))
    assert Sif(window, gate) == twin and len({Sif(window, gate), twin}) == 1
    assert Sif(window, gate) != Sif(window, gate, StageOrder.TIME_FIRST)


def test_family_filters_built_twice_are_equal():
    assert gaussian_sif(0.5, 1) == gaussian_sif(0.5, 1)
    assert hash(rectangular_sif(2.0, 1.0)) == hash(rectangular_sif(2.0, 1.0))
    assert gaussian_sif(0.5, 1) != gaussian_sif(0.5, 2)


FILTER_ENTRY_POINTS = [
    "apply_filter", "filter_samples", "build_operator", "parity_blocks", "recommended_axes",
    "decompose_filter", "run_ensemble", "filtered_noise_correlation",
]


@pytest.mark.parametrize("entry", FILTER_ENTRY_POINTS)
@pytest.mark.parametrize("stage", ["spectral", "temporal"])
def test_entry_points_refuse_anything_but_a_sif(entry, stage, monkeypatch):
    # a lone window or gate has no Schmidt ladder: every entry point that takes
    # a filter refuses a bare profile with one TypeError, never an AttributeError
    # from deep inside, and samples nothing of it first
    profile = getattr(gaussian_sif(0.5, 1.0), stage)
    sampled = []
    monkeypatch.setattr(type(profile), "__call__", lambda self, x: sampled.append(x))
    ax = centered_axis(16.0 / 1024, 1024, Domain.TIME)
    sig = gaussian_pulse(ax).normalized()
    t_ax, f_ax = recommended_axes(gaussian_sif(0.5, 1.0), resolution=64)
    call = {
        "apply_filter": lambda: apply_filter(profile, sig),
        "filter_samples": lambda: filter_samples(profile, ax, sig.values),
        "build_operator": lambda: build_operator(profile, t_ax, f_ax),
        "parity_blocks": lambda: parity_blocks(profile, t_ax, f_ax),
        "recommended_axes": lambda: recommended_axes(profile, 64),
        "decompose_filter": lambda: decompose_filter(profile, 10),
        "run_ensemble": lambda: run_ensemble(NoiseEnsembleConfig(0.1, 1.0, sig, 10, 0), profile),
        "filtered_noise_correlation": lambda: filtered_noise_correlation(
            profile, 0.25, 1000, np.array([0.0]), seed=0
        ),
    }[entry]
    name = type(profile).__name__
    with pytest.raises(TypeError, match=f"^unknown filter specification {name}$"):
        call()
    assert sampled == []
