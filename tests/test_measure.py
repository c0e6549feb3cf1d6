"""Tests for waveform measurements and result containers."""

import pickle

import numpy as np
import pytest

from repro.analysis import (
    TransientResult,
    crossing_times,
    delay_between,
    fall_time,
    logic_level,
    overshoot,
    peak_value,
    rise_time,
    settling_time,
)
from repro.analysis.dcsweep import DCSweepResult
from repro.errors import AnalysisError


@pytest.fixture
def ramp():
    t = np.linspace(0.0, 10.0, 101)
    v = np.clip(t - 2.0, 0.0, 5.0)  # ramps 0->5 between t=2 and t=7
    return t, v


class TestCrossings:
    def test_single_rising_crossing(self, ramp):
        t, v = ramp
        crossings = crossing_times(t, v, 2.5, "rising")
        assert crossings.shape == (1,)
        assert crossings[0] == pytest.approx(4.5)

    def test_direction_filter(self):
        t = np.linspace(0.0, 2.0 * np.pi, 400)
        v = np.sin(t)
        rising = crossing_times(t, v, 0.0, "rising")
        falling = crossing_times(t, v, 0.0, "falling")
        both = crossing_times(t, v, 0.0, "both")
        assert len(falling) == 1
        assert len(rising) >= 1
        assert len(both) == len(rising) + len(falling)

    def test_no_crossing(self, ramp):
        t, v = ramp
        assert crossing_times(t, v, 99.0).size == 0

    def test_interpolated_position(self):
        t = np.array([0.0, 1.0])
        v = np.array([0.0, 4.0])
        assert crossing_times(t, v, 1.0)[0] == pytest.approx(0.25)

    def test_bad_direction(self, ramp):
        t, v = ramp
        with pytest.raises(AnalysisError):
            crossing_times(t, v, 1.0, "sideways")

    def test_mismatched_arrays(self):
        with pytest.raises(AnalysisError):
            crossing_times([0.0, 1.0], [0.0], 0.5)


class TestEdges:
    def test_rise_time_of_linear_ramp(self, ramp):
        t, v = ramp
        # 10% = 0.5 at t=2.5; 90% = 4.5 at t=6.5
        assert rise_time(t, v) == pytest.approx(4.0, rel=1e-6)

    def test_fall_time(self):
        t = np.linspace(0.0, 10.0, 101)
        v = 5.0 - np.clip(t - 2.0, 0.0, 5.0)
        assert fall_time(t, v) == pytest.approx(4.0, rel=1e-6)

    def test_constant_waveform_raises(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(AnalysisError):
            rise_time(t, np.ones(10))

    def test_delay_between(self):
        t = np.linspace(0.0, 10.0, 201)
        a = np.where(t >= 2.0, 1.0, 0.0)
        b = np.where(t >= 5.0, 1.0, 0.0)
        delay = delay_between(t, a, t, b, 0.5, 0.5)
        assert delay == pytest.approx(3.0, abs=0.1)

    def test_delay_requires_b_edge_after_a(self):
        t = np.linspace(0.0, 10.0, 201)
        a = np.where(t >= 5.0, 1.0, 0.0)
        b = np.where(t >= 2.0, 1.0, 0.0)
        with pytest.raises(AnalysisError):
            delay_between(t, a, t, b, 0.5, 0.5)


class TestPeaksAndSettling:
    def test_peak_value_with_window(self):
        t = np.linspace(0.0, 2.0 * np.pi, 500)
        v = np.sin(t)
        t_peak, v_peak = peak_value(t, v)
        assert v_peak == pytest.approx(1.0, abs=1e-3)
        t_peak2, _ = peak_value(t, v, t_start=np.pi)
        assert t_peak2 >= np.pi

    def test_empty_window_raises(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(AnalysisError):
            peak_value(t, t, t_start=5.0)

    def test_overshoot(self):
        t = np.linspace(0.0, 10.0, 500)
        v = 1.0 - np.exp(-t) * np.cos(3.0 * t) * 1.2
        measured = overshoot(t, v, final_value=1.0)
        assert measured > 0.0

    def test_no_overshoot_is_zero(self, ramp):
        t, v = ramp
        assert overshoot(t, v, final_value=5.0) == 0.0

    def test_settling_time(self):
        t = np.linspace(0.0, 10.0, 1000)
        v = 1.0 - np.exp(-t)
        settle = settling_time(t, v, tolerance=0.02, final_value=1.0)
        assert settle == pytest.approx(-np.log(0.02), abs=0.1)

    def test_logic_level(self, ramp):
        t, v = ramp
        assert logic_level(t, v, 0.5, v_low=0.5, v_high=4.5) == 0
        assert logic_level(t, v, 9.0, v_low=0.5, v_high=4.5) == 1
        with pytest.raises(AnalysisError):
            logic_level(t, v, 4.5, v_low=0.5, v_high=4.5)
        with pytest.raises(AnalysisError):
            logic_level(t, v, 99.0, v_low=0.5, v_high=4.5)


class TestTransientResult:
    def make(self):
        result = TransientResult(("a", "b"), engine="test")
        for k in range(5):
            result.append(k * 1.0, np.array([k * 1.0, -k * 1.0]))
        return result

    def test_monotonic_time_enforced(self):
        result = TransientResult(("a",))
        result.append(1.0, np.array([0.0]))
        with pytest.raises(AnalysisError):
            result.append(1.0, np.array([0.0]))

    def test_voltage_column(self):
        result = self.make()
        assert np.allclose(result.voltage("b"), [0, -1, -2, -3, -4])
        with pytest.raises(AnalysisError):
            result.voltage("zz")

    def test_interpolation(self):
        result = self.make()
        assert result.at(2.5, "a") == pytest.approx(2.5)

    def test_at_exact_sample(self):
        result = self.make()
        assert result.at(3.0, "a") == pytest.approx(3.0)

    def test_at_clamps_roundoff(self):
        result = self.make()
        assert result.at(4.0 + 1e-9, "a") == pytest.approx(4.0)

    def test_at_rejects_far_outside(self):
        result = self.make()
        with pytest.raises(AnalysisError):
            result.at(10.0, "a")

    def test_resample(self):
        result = self.make()
        grid = np.array([0.5, 1.5])
        assert np.allclose(result.resample(grid, "a"), [0.5, 1.5])

    def test_final_voltages(self):
        result = self.make()
        assert result.final_voltages() == {"a": 4.0, "b": -4.0}

    def test_step_sizes(self):
        result = self.make()
        assert np.allclose(result.step_sizes(), 1.0)

    def test_empty_result_raises(self):
        empty = TransientResult(("a",))
        with pytest.raises(AnalysisError):
            empty.t_final
        with pytest.raises(AnalysisError):
            empty.final_voltages()
        with pytest.raises(AnalysisError):
            empty.at(0.0, "a")

    @pytest.mark.parametrize("rows", [5, 0])
    def test_pickle_round_trip(self, rows):
        """Rows travel as one array and come back as appendable rows."""
        result = TransientResult(("a", "b"), engine="test")
        for k in range(rows):
            result.append(k * 1.0, np.array([k * 1.0, -k * 1.0]))
        restored = pickle.loads(pickle.dumps(result))
        assert np.array_equal(restored.times, result.times)
        assert np.array_equal(restored.states, result.states)
        assert restored.states.shape == (rows, 2)
        restored.append(10.0, np.array([7.0, 8.0]))
        assert restored.final_voltages() == {"a": 7.0, "b": 8.0}
        assert len(result) == rows

    def test_unpickles_row_list_state(self):
        """Pickles that carry the row list itself still load."""
        result = self.make()
        restored = TransientResult.__new__(TransientResult)
        restored.__setstate__(dict(vars(result)))
        assert np.array_equal(restored.states, result.states)

    def test_summary_mentions_engine(self):
        result = self.make()
        result.iteration_counts.extend([3, 4])
        result.aborted = True
        result.abort_reason = "testing"
        text = result.summary()
        assert "test" in text
        assert "ABORTED" in text


class TestDCSweepResult:
    def make(self):
        result = DCSweepResult(("out",), "Vs", engine="swec")
        for k in range(4):
            result.append(k * 0.5, np.array([k * 0.25]), 2, True)
        return result

    def test_sweep_values(self):
        result = self.make()
        assert np.allclose(result.sweep_values, [0.0, 0.5, 1.0, 1.5])

    def test_voltage(self):
        result = self.make()
        assert np.allclose(result.voltage("out"), [0.0, 0.25, 0.5, 0.75])
        with pytest.raises(AnalysisError):
            result.voltage("zz")

    def test_branch_voltage_with_ground(self):
        result = self.make()
        assert np.allclose(result.branch_voltage("out", "0"),
                           result.voltage("out"))

    def test_counters(self):
        result = self.make()
        assert result.total_iterations == 8
        assert result.all_converged
        result.append(2.0, np.array([1.0]), 50, False)
        assert not result.all_converged

    def test_empty_states_raise(self):
        empty = DCSweepResult(("out",), "Vs")
        with pytest.raises(AnalysisError):
            empty.states


class TestEdgeCasesFailLoudly:
    """Sweep/AC measures must raise, never return silent NaN."""

    def test_nan_values_raise(self, ramp):
        t, v = ramp
        v = v.copy()
        v[50] = np.nan
        with pytest.raises(AnalysisError, match="non-finite"):
            rise_time(t, v)
        with pytest.raises(AnalysisError, match="non-finite"):
            crossing_times(t, v, 2.5)
        with pytest.raises(AnalysisError, match="non-finite"):
            peak_value(t, v)

    def test_nan_times_raise(self, ramp):
        t, v = ramp
        t = t.copy()
        t[0] = np.nan
        with pytest.raises(AnalysisError, match="non-finite"):
            settling_time(t, v)

    def test_infinite_values_raise(self, ramp):
        t, v = ramp
        v = v.copy()
        v[-1] = np.inf
        with pytest.raises(AnalysisError, match="non-finite"):
            overshoot(t, v)

    def test_empty_measurement_window_raises(self, ramp):
        t, v = ramp
        with pytest.raises(AnalysisError, match="window"):
            peak_value(t, v, t_start=20.0, t_stop=30.0)

    def test_inverted_measurement_window_raises(self, ramp):
        t, v = ramp
        with pytest.raises(AnalysisError, match="window"):
            peak_value(t, v, t_start=7.0, t_stop=3.0)

    def test_threshold_never_crossed(self, ramp):
        t, v = ramp
        assert crossing_times(t, v, 99.0).size == 0
        with pytest.raises(AnalysisError, match="never crosses"):
            delay_between(t, v, t, v, level_a=99.0, level_b=2.5)

    def test_rising_edge_never_completes(self):
        # Rises through 10% but never reaches the 90% level before the
        # record ends: rise_time must refuse, not report a bogus edge.
        t = np.linspace(0.0, 1.0, 11)
        v = np.concatenate([np.linspace(0.0, 0.4, 6), np.full(5, 0.4)])
        with pytest.raises(AnalysisError):
            rise_time(t, v, low_frac=0.1, high_frac=3.0)

    def test_never_settles_raises(self):
        t = np.linspace(0.0, 1.0, 21)
        v = np.cos(40.0 * t)  # still outside the band at the last sample
        with pytest.raises(AnalysisError, match="settle"):
            settling_time(t, v, tolerance=1e-6, final_value=0.0)
