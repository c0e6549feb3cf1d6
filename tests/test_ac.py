"""Tests for the small-signal AC & noise subsystem (``repro.ac``).

The anchor validations requested by the subsystem's issue:

* a single-pole RC matches the analytic ``1/(1 + j w R C)`` to 1e-9;
* the FET-RTD inverter's AC gain matches a finite-difference slope of
  the SWEC DC transfer curve within 1%;
* resistor Johnson noise at a node matches ``4 k T R |H(j w)|^2``.
"""

import numpy as np
import pytest

from repro import Circuit
from repro.ac import (
    ACAnalysis,
    frequency_grid,
    johnson_noise,
    linearize,
    thermal_ou_amplitude,
)
from repro.circuits_lib import fet_rtd_inverter, rtd_divider
from repro.constants import BOLTZMANN
from repro.devices import nmos
from repro.errors import AnalysisError, NanoSimError, SweepSpecError
from repro.runtime import ACJob, BatchRunner, job_from_mapping
from repro.swec import SwecDC

R_LP = 1e3
C_LP = 1e-9


def lowpass() -> Circuit:
    """Vin - R - out - C: transfer 1/(1 + j w R C) at ``out``."""
    circuit = Circuit("lowpass")
    circuit.add_voltage_source("Vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", R_LP)
    circuit.add_capacitor("C1", "out", "0", C_LP)
    return circuit


def common_source_amp(gain: float = 20.0) -> Circuit:
    """Resistor-loaded NMOS amplifier with ``|H(0)| = gm R`` > 1.

    Biased in saturation: with ``vov = 0.2 V`` the drain sits at
    ``vdd - gain * vov / 2`` (3 V for the default gain), well above
    the overdrive, so ``gds = 0`` and the gain is exactly ``-gm R``.
    """
    r_load = 10e3
    vov = 0.2
    gm = gain / r_load
    circuit = Circuit("cs-amp")
    circuit.add_voltage_source("Vdd", "vdd", "0", 5.0)
    circuit.add_voltage_source("Vin", "in", "0", 1.0 + vov)
    circuit.add_resistor("Rload", "vdd", "out", r_load)
    circuit.add_mosfet("M1", "out", "in", "0",
                       nmos(kp=gm / vov, w=1.0, l=1.0, vth=1.0))
    circuit.add_capacitor("Cload", "out", "0", 1e-12)
    return circuit


class TestFrequencyGrid:
    def test_linear(self):
        f = frequency_grid(0.0, 10.0, 11, "linear")
        assert np.allclose(f, np.linspace(0.0, 10.0, 11))

    def test_log(self):
        f = frequency_grid(1.0, 1e4, 5, "log")
        assert np.allclose(f, [1.0, 10.0, 100.0, 1e3, 1e4])

    def test_decade_counts_points_per_decade(self):
        f = frequency_grid(1.0, 1e4, 10, "decade")
        assert f.size == 41  # 4 decades x 10 + endpoint
        assert np.allclose(f[::10], [1.0, 10.0, 100.0, 1e3, 1e4])

    def test_decade_accepts_one_point_per_decade(self):
        # SPICE's ".AC DEC 1 1 1e6": one point per decade is legal.
        f = frequency_grid(1.0, 1e6, 1, "decade")
        assert np.allclose(f, np.geomspace(1.0, 1e6, 7))

    @pytest.mark.parametrize("kwargs", [
        dict(f_start=1.0, f_stop=1.0),          # empty band
        dict(f_start=10.0, f_stop=1.0),         # reversed
        dict(f_start=0.0, f_stop=1e3),          # log needs > 0
        dict(f_start=1.0, f_stop=1e3, n_points=1),
        dict(f_start=1.0, f_stop=1e3, n_points=0, scale="decade"),
        dict(f_start=1.0, f_stop=1e3, scale="octave"),
    ])
    def test_bad_grids_raise(self, kwargs):
        with pytest.raises(AnalysisError):
            frequency_grid(**{"n_points": 11, "scale": "log", **kwargs})


class TestSinglePoleRC:
    def test_matches_analytic_to_1e_9(self):
        f = frequency_grid(1e2, 1e9, 201, "log")
        result = ACAnalysis(lowpass()).solve(f)
        measured = result.transfer("out")
        analytic = 1.0 / (1.0 + 2j * np.pi * f * R_LP * C_LP)
        assert np.allclose(measured, analytic, rtol=1e-9, atol=0.0)

    def test_vectorized_matches_loop(self):
        f = frequency_grid(1e2, 1e9, 64, "log")
        analysis = ACAnalysis(lowpass())
        assert np.allclose(analysis.solve(f).states,
                           analysis.solve_loop(f).states,
                           rtol=1e-12, atol=0.0)

    def test_chunked_solve_matches_unchunked(self, monkeypatch):
        # Chunk sizing lives in the shared solve_stack, not the AC
        # layer; shrinking the shared bound must not change results.
        import repro.mna.batch as batch

        f = frequency_grid(1e2, 1e9, 50, "log")
        full = ACAnalysis(lowpass()).solve(f)
        monkeypatch.setattr(batch, "CHUNK_ENTRIES", 7 * 9)  # 7 freqs/chunk
        chunked = ACAnalysis(lowpass()).solve(f)
        assert np.array_equal(full.states, chunked.states)

    def test_backends_agree(self):
        f = frequency_grid(1e2, 1e9, 40, "log")
        stack = ACAnalysis(lowpass(), backend="stack").solve(f)
        sparse = ACAnalysis(lowpass(), backend="sparse").solve(f)
        dense = ACAnalysis(lowpass(), backend="dense").solve(f)
        auto = ACAnalysis(lowpass(), backend="auto").solve(f)
        assert np.allclose(stack.states, sparse.states, rtol=1e-12)
        assert np.allclose(stack.states, dense.states, rtol=1e-12)
        assert np.allclose(stack.states, auto.states, rtol=1e-12)

    def test_unknown_backend_rejected(self):
        with pytest.raises(AnalysisError, match="backend"):
            ACAnalysis(lowpass(), backend="ragged")

    def test_noise_backend_validated_and_equivalent(self):
        from repro.ac import johnson_noise

        f = frequency_grid(1e3, 1e8, 21, "log")
        stack = johnson_noise(lowpass(), f)
        sparse = johnson_noise(lowpass(), f, backend="sparse")
        assert np.allclose(stack.psd("out"), sparse.psd("out"),
                           rtol=1e-10)
        with pytest.raises(AnalysisError, match="backend"):
            johnson_noise(lowpass(), f, backend="ragged")

    def test_bode_measures(self):
        result = ACAnalysis(lowpass()).sweep(1e2, 1e9, 401)
        f_corner = 1.0 / (2.0 * np.pi * R_LP * C_LP)
        assert abs(result.low_frequency_gain("out") - 1.0) < 1e-3
        assert result.bandwidth_3db("out") == \
            pytest.approx(f_corner, rel=1e-3)
        assert result.gain_at(f_corner, "out") == \
            pytest.approx(1.0 / np.sqrt(2.0), rel=1e-3)
        assert result.phase_at(f_corner, "out") == \
            pytest.approx(-45.0, abs=0.5)

    def test_input_node_is_flat(self):
        result = ACAnalysis(lowpass()).sweep(1e2, 1e9, 21)
        assert np.allclose(result.transfer("in"), 1.0)
        assert np.allclose(result.transfer("0"), 0.0)

    def test_unknown_node_raises(self):
        result = ACAnalysis(lowpass()).sweep(1e2, 1e6, 11)
        with pytest.raises(AnalysisError, match="node"):
            result.transfer("nope")

    def test_landmarks_outside_band_fail_loudly(self):
        result = ACAnalysis(lowpass()).sweep(1e2, 1e3, 11)  # flat band
        with pytest.raises(AnalysisError, match="never falls"):
            result.bandwidth_3db("out")
        with pytest.raises(AnalysisError):
            result.unity_gain_frequency("out")  # |H| <= 1 everywhere
        with pytest.raises(AnalysisError, match="outside"):
            result.gain_at(1e9, "out")


class TestAmplifierMeasures:
    def test_unity_gain_and_phase_margin(self):
        result = ACAnalysis(common_source_amp(gain=20.0),
                            source="Vin").sweep(1e3, 1e12, 301)
        gain = result.low_frequency_gain("out")
        assert gain.real == pytest.approx(-20.0, rel=1e-3)
        # Single pole at 1/(2 pi (Rload || 1/gm ... ) C); the unity
        # crossing sits ~|H0| times beyond the corner.
        f_corner = result.bandwidth_3db("out")
        f_unity = result.unity_gain_frequency("out")
        assert f_unity == pytest.approx(
            f_corner * np.sqrt(abs(gain) ** 2 - 1.0), rel=1e-2)
        # Inverting single-pole stage: phase unwraps 180 -> 90 deg, so
        # the margin 180 + phase(f_unity) sits just above 270 deg.
        margin = result.phase_margin("out")
        assert margin == pytest.approx(
            360.0 - np.degrees(np.arctan(f_unity / f_corner)), abs=1.0)


class TestInverterSmallSignal:
    def test_ac_gain_matches_dc_slope_within_1pct(self):
        vin0 = 2.0
        circuit, _ = fet_rtd_inverter(vin=vin0)
        result = ACAnalysis(circuit, source="Vin",
                            bias={"Vin": vin0}).sweep(1.0, 1e6, 13)
        gain = result.low_frequency_gain("out")
        assert abs(gain.imag) < 1e-6  # resistive at low frequency

        h = 1e-4
        sweep_circuit, _ = fet_rtd_inverter(vin=0.0)
        sweep = SwecDC(sweep_circuit).sweep("Vin", [vin0 - h, vin0 + h])
        vout = sweep.voltage("out")
        slope = (vout[1] - vout[0]) / (2.0 * h)
        assert gain.real == pytest.approx(slope, rel=0.01)

    def test_linearize_stamps_differential_conductance(self):
        # Bias the RTD divider and check the stamped small-signal
        # conductance is the device's dI/dV — negative inside NDR.
        circuit, info = rtd_divider(resistance=10.0)
        bias = 2.6  # inside the NANO-SIM RTD's NDR region at the node
        small = linearize(circuit, bias={info.source: bias})
        device = circuit.devices[0]
        node = circuit.nodes.index(info.device_node)
        v_op = small.state[node]
        g_dev = device.differential_conductance(v_op)
        g_expected = 1.0 / 10.0 + g_dev
        assert small.g0[node, node] == pytest.approx(g_expected, rel=1e-12)

    def test_bias_override_changes_operating_point(self):
        circuit, _ = fet_rtd_inverter(vin=0.0)
        low = ACAnalysis(circuit, source="Vin").bias_voltages["out"]
        high = ACAnalysis(circuit, source="Vin",
                          bias={"Vin": 5.0}).bias_voltages["out"]
        assert low > 3.5 and high < 1.0  # logic swing of the design


class TestOperatingPoint:
    def test_matches_single_point_sweep(self):
        circuit, info = rtd_divider(resistance=10.0)
        dc = SwecDC(circuit)
        x = dc.operating_point({info.source: 1.7})
        sweep = dc.sweep(info.source, [1.7])
        assert np.allclose(x, sweep.states[0], rtol=1e-8)

    def test_unknown_source_raises(self):
        with pytest.raises(AnalysisError, match="no independent source"):
            SwecDC(lowpass()).operating_point({"Vnope": 1.0})

    def test_parallel_current_sources_override_by_element(self):
        # Two current sources on the same node pair: the override must
        # replace the named source's value, not its sibling's.
        circuit = Circuit("parallel-isrc")
        circuit.add_resistor("R1", "n1", "0", 1e3)
        circuit.add_current_source("I1", "0", "n1", 1e-3)
        circuit.add_current_source("I2", "0", "n1", 2e-3)
        x = SwecDC(circuit).operating_point({"I2": 5e-3})
        assert x[0] == pytest.approx((1e-3 + 5e-3) * 1e3, rel=1e-9)


class TestJohnsonNoise:
    def test_rc_psd_matches_4kTR_H_squared(self):
        f = frequency_grid(1e2, 1e9, 121, "log")
        noise = johnson_noise(lowpass(), f, temperature=300.0)
        h_squared = 1.0 / (1.0 + (2.0 * np.pi * f * R_LP * C_LP) ** 2)
        analytic = 4.0 * BOLTZMANN * 300.0 * R_LP * h_squared
        assert np.allclose(noise.psd("out"), analytic, rtol=1e-9, atol=0.0)

    def test_integrated_rms_approaches_kT_over_C(self):
        f = frequency_grid(1e1, 1e12, 601, "log")
        noise = johnson_noise(lowpass(), f)
        expected = np.sqrt(BOLTZMANN * 300.0 / C_LP)
        assert noise.integrated_rms("out") == pytest.approx(expected,
                                                            rel=1e-2)

    def test_contributions_sum_to_total(self):
        circuit = lowpass()
        circuit.add_resistor("R2", "out", "0", 5e3)
        f = frequency_grid(1e3, 1e8, 31, "log")
        noise = johnson_noise(circuit, f)
        total = (noise.contribution("out", "R1")
                 + noise.contribution("out", "R2"))
        assert np.allclose(total, noise.psd("out"), rtol=1e-12)

    def test_matches_stochastic_ou_lorentzian(self):
        # The deterministic cross-check for repro.stochastic.spectrum:
        # Johnson noise on an R || C node is the OU Lorentzian with
        # lambda = 1/(RC) and sigma = thermal_ou_amplitude(R, C).
        from repro.stochastic.spectrum import ou_psd

        resistance, capacitance = 1e3, 1e-12
        circuit = Circuit("rc-node")
        circuit.add_resistor("R1", "n1", "0", resistance)
        circuit.add_capacitor("C1", "n1", "0", capacitance)
        circuit.add_current_source("Idrive", "0", "n1", 0.0)
        f = frequency_grid(1e4, 1e11, 61, "log")
        noise = johnson_noise(circuit, f)
        lorentzian = ou_psd(f, 1.0 / (resistance * capacitance),
                            thermal_ou_amplitude(resistance, capacitance))
        assert np.allclose(noise.psd("n1"), lorentzian, rtol=1e-9,
                           atol=0.0)

    def test_no_resistors_raises(self):
        circuit = Circuit("no-noise")
        circuit.add_voltage_source("Vin", "in", "0", 1.0)
        circuit.add_capacitor("C1", "in", "0", 1e-12)
        with pytest.raises(AnalysisError, match="no resistors"):
            johnson_noise(circuit, frequency_grid(1e3, 1e6, 11))

    def test_bad_temperature_raises(self):
        with pytest.raises(AnalysisError, match="temperature"):
            johnson_noise(lowpass(), frequency_grid(1e3, 1e6, 11),
                          temperature=0.0)

    def test_analysis_noise_reuses_the_linearization(self):
        # ACAnalysis.noise must give the same spectra as a standalone
        # johnson_noise call, without a second bias solve.
        f = frequency_grid(1e3, 1e8, 21, "log")
        analysis = ACAnalysis(lowpass())
        via_method = analysis.noise(f, temperature=310.0)
        standalone = johnson_noise(lowpass(), f, temperature=310.0)
        assert np.array_equal(via_method.psd("out"),
                              standalone.psd("out"))
        assert via_method.temperature == 310.0


NETLIST = """\
* parametric single-pole low-pass
.param rval=1k
Vin in 0 DC 1
R1 in out {rval}
C1 out 0 1n
.end
"""


class TestACJob:
    def test_builder_job(self):
        job = ACJob(builder="rtd_divider", params={"resistance": 10.0},
                    f_start=1e3, f_stop=1e9, n_points=21, source="Vs",
                    bias={"Vs": 1.0}, label="divider-ac")
        result = job.run()
        assert len(result) == 21
        assert result.source_name == "Vs"

    def test_netlist_job_with_params(self):
        job = ACJob(netlist=NETLIST, params={"rval": 2e3},
                    f_start=1e2, f_stop=1e9, n_points=101)
        result = job.run()
        f_corner = 1.0 / (2.0 * np.pi * 2e3 * 1e-9)
        assert result.bandwidth_3db("out") == pytest.approx(f_corner,
                                                            rel=1e-2)

    def test_needs_exactly_one_circuit_source(self):
        with pytest.raises(AnalysisError, match="exactly one"):
            ACJob(f_start=1.0, f_stop=1e3)
        with pytest.raises(AnalysisError, match="exactly one"):
            ACJob(f_start=1.0, f_stop=1e3, builder="rtd_divider",
                  netlist=NETLIST)

    def test_job_from_mapping(self):
        job = job_from_mapping({
            "type": "ac", "circuit": "rtd_divider",
            "params": {"resistance": 10.0},
            "f_start": 1e3, "f_stop": 1e6, "n_points": 5,
        })
        assert isinstance(job, ACJob)
        assert job.builder == "rtd_divider"

    def test_runs_on_batch_runner(self):
        jobs = [ACJob(builder="rtd_divider",
                      params={"resistance": r}, f_start=1e3,
                      f_stop=1e9, n_points=11, label=f"R={r}")
                for r in (5.0, 10.0)]
        report = BatchRunner(executor="serial").run(jobs)
        report.raise_failures()
        assert all(len(value) == 11 for value in report.values())


class TestACSweep:
    def _spec(self):
        from repro.sweep import MeasureSpec, ParameterAxis, SweepSpec

        return SweepSpec(
            name="inverter-ac-corners",
            kind="ac",
            template="fet_rtd_inverter",
            settings={"f_start": 1e3, "f_stop": 1e12, "n_points": 61,
                      "bias": {"Vin": 2.0}},
            axes=[ParameterAxis.from_values(
                "load_capacitance", [0.5e-12, 1e-12, 2e-12])],
            measures=[
                MeasureSpec(kind="ac_gain"),
                MeasureSpec(kind="bandwidth_3db", name="bw"),
            ],
        )

    def test_template_default_source_and_node(self):
        from repro.sweep.runner import build_jobs

        jobs = build_jobs(self._spec())
        assert all(job.inner.source == "Vin" for job in jobs)
        assert all(m.node == "out" for m in jobs[0].measures)

    def test_bit_identical_at_any_worker_count(self):
        from repro.sweep import run_sweep

        serial = run_sweep(self._spec(), executor="serial", seed=0)
        parallel = run_sweep(self._spec(), max_workers=2,
                             executor="process", seed=0)
        assert serial.ok and parallel.ok
        for column in ("ac_gain", "bw"):
            assert serial.columns[column] == parallel.columns[column]
        # More capacitance, less bandwidth — and gain is bias-fixed.
        bw = serial.columns["bw"]
        assert bw[0] > bw[1] > bw[2]
        assert np.allclose(serial.columns["ac_gain"],
                           serial.columns["ac_gain"][0])

    def test_analysis_alias_in_spec_document(self):
        from repro.sweep import SweepSpec

        document = {
            "sweep": {"analysis": "ac", "circuit": "rtd_divider",
                      "f_start": 1e3, "f_stop": 1e6},
            "axes": [{"name": "resistance", "values": [5.0, 10.0]}],
            "measures": [{"kind": "ac_gain"}],
        }
        spec = SweepSpec.from_mapping(document)
        assert spec.kind == "ac"
        with pytest.raises(SweepSpecError, match="not both"):
            SweepSpec.from_mapping({
                **document,
                "sweep": {**document["sweep"], "kind": "ac"},
            })

    def test_sde_template_rejects_ac(self):
        from repro.sweep import MeasureSpec, ParameterAxis, SweepSpec

        with pytest.raises(SweepSpecError, match="SDE"):
            SweepSpec(
                kind="ac", template="noisy_rc_node",
                settings={"f_start": 1e3, "f_stop": 1e6},
                axes=[ParameterAxis.from_values("resistance", [1e3])],
                measures=[MeasureSpec(kind="ac_gain")],
            )

    def test_unknown_ac_measure_lists_registry(self):
        from repro.sweep.measures import MeasureSpec as MS

        with pytest.raises(SweepSpecError, match="ac_gain"):
            MS.from_mapping({"kind": "rise_time"}, kind="ac")

    def test_typoed_sweep_kind_fails_loudly(self):
        from repro.sweep.measures import MeasureSpec as MS

        with pytest.raises(SweepSpecError, match="unknown sweep kind"):
            MS.from_mapping({"kind": "ac_gain"}, kind="acc")


class TestACCli:
    def test_netlist_bode_and_noise(self, tmp_path, capsys):
        from repro.cli import main

        netlist = tmp_path / "lp.cir"
        netlist.write_text(NETLIST)
        csv_path = tmp_path / "bode.csv"
        status = main(["ac", str(netlist), "--start", "1e2", "--stop", "1e9",
                       "--points", "40", "--noise",
                       "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert status == 0
        assert "Bode plot of V(out)/Vin" in captured.out
        assert "-3 dB bandwidth" in captured.out
        assert "Johnson noise" in captured.out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "out_mag_db" in header

    def test_template_uses_registered_ac_source(self, capsys):
        from repro.cli import main

        status = main(["ac", "--template", "fet_rtd_inverter",
                       "--bias", "Vin=2.0", "--start", "1e3",
                       "--stop", "1e10", "--points", "30"])
        captured = capsys.readouterr()
        assert status == 0
        assert "V(out)/Vin" in captured.out

    def test_config_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.cir"
        assert main(["ac", str(missing)]) == 2
        netlist = tmp_path / "lp.cir"
        netlist.write_text(NETLIST)
        assert main(["ac", str(netlist), "--start", "1e6",
                     "--stop", "1e3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_exactly_one_circuit(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["ac"])
        capsys.readouterr()


def test_errors_derive_from_nanosim():
    assert issubclass(AnalysisError, NanoSimError)
