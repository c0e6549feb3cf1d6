"""Tests for the Schulman RTD model (paper eq. 4, Figs. 4-5)."""

import math

import numpy as np
import pytest

from repro.devices import (
    NANO_SIM_DATE05,
    RTD_LOGIC,
    SCHULMAN_INGAAS,
    SchulmanParameters,
    SchulmanRTD,
)

ALL_PARAMS = [NANO_SIM_DATE05, SCHULMAN_INGAAS, RTD_LOGIC]


class TestIVLaw:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_zero_current_at_zero_bias(self, params):
        assert SchulmanRTD(params).current(0.0) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_current_is_odd_ish_passive(self, params):
        """Current always has the sign of the applied voltage."""
        rtd = SchulmanRTD(params)
        for v in np.linspace(-2.0, 2.0, 41):
            if abs(v) < 1e-9:
                continue
            assert rtd.is_passive_at(float(v)), f"active at V={v}"

    def test_components_sum(self, rtd):
        v = 0.7
        total = rtd.resonance_current(v) + rtd.thermionic_current(v)
        assert rtd.current(v) == pytest.approx(total)

    def test_no_overflow_at_extreme_bias(self):
        rtd = SchulmanRTD(NANO_SIM_DATE05)
        assert math.isfinite(rtd.current(100.0))
        assert math.isfinite(rtd.current(-100.0))
        assert math.isfinite(rtd.differential_conductance(100.0))


class TestRegions:
    """Paper Fig. 4: PDR1, NDR, PDR2."""

    def test_ingaas_peak_position(self):
        v_peak, i_peak = SchulmanRTD(SCHULMAN_INGAAS).peak()
        assert 0.3 < v_peak < 0.7
        assert i_peak > 0.0

    def test_date05_peak_position(self):
        # Resonance alignment at C/n1 ~ 4.3 V; the peak sits below it.
        v_peak, _ = SchulmanRTD(NANO_SIM_DATE05).peak()
        assert 2.5 < v_peak < 4.3

    def test_valley_past_peak(self, rtd):
        v_peak, i_peak = rtd.peak()
        v_valley, i_valley = rtd.valley()
        assert v_valley > v_peak
        assert i_valley < i_peak

    def test_peak_to_valley_ratio(self, rtd):
        assert SchulmanRTD(SCHULMAN_INGAAS).peak_to_valley_ratio() > 3.0

    def test_logic_params_sub_volt_landmarks(self):
        rtd = SchulmanRTD(RTD_LOGIC)
        v_peak, _ = rtd.peak()
        v_valley, _ = rtd.valley()
        assert 0.3 < v_peak < 0.6
        assert v_valley < 1.0

    def test_ndr_region_interval(self, rtd):
        v_peak, v_valley = rtd.ndr_region()
        mid = 0.5 * (v_peak + v_valley)
        assert rtd.differential_conductance(mid) < 0.0

    def test_pdr_regions_have_positive_slope(self, rtd):
        v_peak, v_valley = rtd.ndr_region()
        assert rtd.differential_conductance(v_peak * 0.5) > 0.0
        assert rtd.differential_conductance(v_valley * 1.5) > 0.0


class TestConductances:
    """Paper Fig. 5: differential goes negative, chord stays positive."""

    def test_analytic_derivative_matches_finite_difference(self, rtd):
        for v in [0.1, 0.3, 0.49, 0.8, 1.2, 1.8, 2.5]:
            h = 1e-7
            numeric = (rtd.current(v + h) - rtd.current(v - h)) / (2 * h)
            assert rtd.differential_conductance(v) == pytest.approx(
                numeric, rel=1e-4), f"at V={v}"

    def test_chord_positive_throughout_ndr(self, rtd):
        v_peak, v_valley = rtd.ndr_region()
        for v in np.linspace(v_peak, v_valley, 30):
            assert rtd.chord_conductance(float(v)) > 0.0

    def test_differential_negative_in_ndr(self, rtd):
        v_peak, v_valley = rtd.ndr_region()
        for v in np.linspace(v_peak * 1.02, v_valley * 0.98, 20):
            assert rtd.differential_conductance(float(v)) < 0.0

    def test_chord_limit_at_origin(self, rtd):
        limit = rtd.differential_conductance(0.0)
        assert rtd.chord_conductance(1e-12) == pytest.approx(limit, rel=1e-3)

    def test_chord_derivative_matches_quotient_rule(self, rtd):
        v = 0.8
        i = rtd.current(v)
        g = rtd.differential_conductance(v)
        expected = (v * g - i) / v**2
        assert rtd.chord_conductance_derivative(v) == pytest.approx(expected)

    def test_chord_derivative_finite_at_origin(self, rtd):
        assert math.isfinite(rtd.chord_conductance_derivative(0.0))

    @pytest.mark.parametrize("v", [0.0, 1e-12, -5e-10, 0.3, 0.8, -0.5])
    def test_chord_and_derivative_is_the_chord_law(self, rtd, v):
        """The fused call the SWEC stepper uses returns exactly what the
        two single-value methods return, inside chord_epsilon too."""
        chord = rtd.chord_conductance(v)
        assert rtd.chord_and_derivative(v) == (
            chord, rtd.chord_conductance_derivative(v))
        assert rtd.chord_and_derivative(v, derivative=False) == (chord, None)

    def test_origin_limits_leave_the_model_fingerprint_alone(self):
        """The origin limits are cached off the instance: its attribute
        dict is the job-cache fingerprint of the model."""
        rtd = SchulmanRTD()
        before = dict(vars(rtd))
        first = rtd.chord_and_derivative(0.0)
        assert vars(rtd) == before
        assert rtd.chord_and_derivative(0.0) == first
        assert first[0] == rtd.differential_conductance(0.0)

    def test_unhashable_model_still_evaluates_origin_limits(self):
        class ComparableRTD(SchulmanRTD):
            def __eq__(self, other):
                return isinstance(other, SchulmanRTD) and \
                    self.parameters == other.parameters

        rtd = ComparableRTD()
        assert rtd.chord_conductance(0.0) == \
            SchulmanRTD().chord_conductance(0.0)
        assert rtd.chord_conductance_derivative(0.0) == \
            SchulmanRTD().chord_conductance_derivative(0.0)


class TestParameters:
    def test_area_scaling_scales_current(self):
        base = SchulmanRTD(SCHULMAN_INGAAS)
        double = SchulmanRTD(SCHULMAN_INGAAS.scaled(2.0))
        assert double.current(0.8) == pytest.approx(2.0 * base.current(0.8))

    def test_area_scaling_preserves_peak_voltage(self):
        v_base, _ = SchulmanRTD(SCHULMAN_INGAAS).peak()
        v_scaled, _ = SchulmanRTD(SCHULMAN_INGAAS.scaled(3.0)).peak()
        assert v_scaled == pytest.approx(v_base, rel=1e-6)

    def test_area_scaling_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SCHULMAN_INGAAS.scaled(0.0)

    def test_paper_parameter_values(self):
        """The exact Section 5.2 values must stay in the library."""
        p = NANO_SIM_DATE05
        assert p.a == pytest.approx(1e-4)
        assert p.b == pytest.approx(2.0)
        assert p.c == pytest.approx(1.5)
        assert p.d == pytest.approx(0.3)
        assert p.n1 == pytest.approx(0.35)
        assert p.n2 == pytest.approx(0.0172)
        assert p.h == pytest.approx(1.43e-8)

    def test_parameters_frozen(self):
        with pytest.raises(AttributeError):
            NANO_SIM_DATE05.a = 5.0

    def test_sample_iv_shapes(self, rtd):
        voltages, currents = rtd.sample_iv(0.0, 2.0, 11)
        assert len(voltages) == len(currents) == 11
        assert voltages[0] == 0.0
        assert voltages[-1] == 2.0

    def test_sample_iv_rejects_single_point(self, rtd):
        with pytest.raises(ValueError):
            rtd.sample_iv(0.0, 1.0, 1)

    def test_landmark_search_failure_raises(self):
        # A parameter set with no valley inside the default window.
        flat = SchulmanParameters(a=1e-6, b=0.1, c=0.08, d=0.05,
                                  n1=0.05, n2=0.3, h=1e-2)
        rtd = SchulmanRTD(flat)
        with pytest.raises(ValueError):
            rtd.peak(v_max=0.01)
