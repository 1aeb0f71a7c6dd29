import json
import math
from importlib import resources

import numpy as np
import pytest

from ionlink.errors import ChainError, DomainError
from ionlink.qfc import (
    C_NM_THZ,
    ConversionStage,
    DispersionModel,
    LightField,
    MixKind,
    chain_efficiency,
    dfg_output,
    dispersion_data_version,
    load_dispersion,
    noise_audit,
    plan_stage,
    qpm_residual,
    sfg_output,
    solve_poling_period,
    standard_conversion_table,
)

from oracles import bisect_poling_period

# frozen outputs of exact energy conservation for the bundled designs
OUT_THZ_493 = 384.8723367653477
OUT_THZ_650 = 237.99321082994442
OUT_THZ_780 = 193.27699282737657

# frozen from the pre-build bisection oracle over the bundled dispersion data
GOLDEN_PERIOD_493_PPKTP = 7.397805188193949
GOLDEN_PERIOD_650_PPLN = 12.537762022437104
GOLDEN_PERIOD_780_PPLN = 19.66848842824558


def _ppln_payload():
    return json.loads(resources.files("ionlink.data").joinpath("ppln_mgo_cln.json").read_text())


def field(nm):
    return LightField.from_wavelength_nm(nm)


class TestLightField:
    def test_duality_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            nm = float(rng.uniform(300.0, 3000.0))
            f = field(nm)
            back = LightField.from_frequency_thz(f.frequency_thz)
            assert back.wavelength_nm == pytest.approx(nm, rel=1e-9)

    def test_reference_frequencies(self):
        assert field(493.0).frequency_thz == pytest.approx(608.0982920892494, rel=1e-12)
        assert field(1343.0).frequency_thz == pytest.approx(223.2259553239017, rel=1e-12)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            LightField(493.0, 500.0)

    def test_positive_required(self):
        with pytest.raises(DomainError):
            LightField.from_wavelength_nm(-5.0)
        with pytest.raises(DomainError):
            LightField.from_frequency_thz(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="^wavelength_nm out of range"):
            LightField.from_wavelength_nm(value)
        with pytest.raises(DomainError, match="^frequency_thz out of range"):
            LightField.from_frequency_thz(value)
        with pytest.raises(DomainError, match="out of range"):
            LightField(value, 500.0)


class TestMixingOutputs:
    def test_visible_to_near_ir(self):
        out = dfg_output(field(493.0), field(1343.0))
        assert out.frequency_thz == pytest.approx(OUT_THZ_493, rel=1e-12)
        assert out.wavelength_nm == pytest.approx(778.94, abs=0.01)

    def test_red_to_o_band(self):
        out = dfg_output(field(650.0), field(1343.0))
        assert out.frequency_thz == pytest.approx(OUT_THZ_650, rel=1e-12)
        assert out.wavelength_nm == pytest.approx(1259.67, abs=0.01)

    def test_near_ir_to_c_band(self):
        out = dfg_output(field(780.0), field(1569.0))
        assert out.frequency_thz == pytest.approx(OUT_THZ_780, rel=1e-12)
        assert out.wavelength_nm == pytest.approx(1551.10, abs=0.01)

    def test_dfg_needs_input_above_pump(self):
        with pytest.raises(DomainError):
            dfg_output(field(1343.0), field(493.0))

    def test_sfg_adds_frequencies(self):
        out = sfg_output(field(1550.0), field(1550.0))
        assert out.frequency_thz == pytest.approx(2.0 * C_NM_THZ / 1550.0, rel=1e-12)
        assert out.wavelength_nm == pytest.approx(775.0, rel=1e-9)


class TestDispersionModels:
    def test_bundled_reference_indices(self):
        ppln = load_dispersion("ppln")
        ppktp = load_dispersion("ppktp")
        assert ppln.index(650.0) == pytest.approx(2.1901857387657935, rel=1e-12)
        assert ppln.index(1000.0) == pytest.approx(2.151684703384064, rel=1e-12)
        assert ppktp.index(1000.0) == pytest.approx(1.8328898500618909, rel=1e-12)
        assert ppktp.index(1550.0) == pytest.approx(1.8160294135218573, rel=1e-12)

    def test_alias_and_case(self):
        assert load_dispersion("PPLNE").material == "ppln"
        assert load_dispersion("ppktp").material == "ppktp"

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            load_dispersion("bbo")

    def test_out_of_range_wavelength_names_the_field(self):
        ppktp = load_dispersion("ppktp")
        with pytest.raises(DomainError, match="pump"):
            ppktp.index(5000.0, label="pump")

    def test_index_physical_over_validity_range(self):
        for name in ("ppln", "ppktp"):
            model = load_dispersion(name)
            lo, hi = model.valid_range_nm
            for nm in np.linspace(lo, hi, 50):
                assert 1.0 < model.index(float(nm)) < 4.0

    def test_normal_dispersion_over_visible_near_ir(self):
        for name in ("ppln", "ppktp"):
            model = load_dispersion(name)
            grid = np.linspace(500.0, 2000.0, 60)
            values = [model.index(float(nm)) for nm in grid]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_custom_file_with_generic_form(self, tmp_path):
        payload = {
            "version": "test",
            "material": "custom",
            "form": "sellmeier_poles",
            "coefficients": {"A": 1.0, "poles": [[1.03961212, 0.00600069867],
                                                 [0.231792344, 0.0200179144],
                                                 [1.01046945, 103.560653]]},
            "valid_range_nm": [400.0, 2000.0],
            "reference_temperature_k": 293.15,
            "notes": "BK7-like test glass",
        }
        path = tmp_path / "glass.json"
        path.write_text(json.dumps(payload))
        model = load_dispersion(str(path))
        assert model.index(587.6) == pytest.approx(1.5168, abs=2e-4)

    @pytest.mark.parametrize("content, fragment", [
        (b'{"form": "mgo', "cannot parse dispersion file"),
        (b"\xff\xfe", "cannot parse dispersion file"),
        (b"[1, 2]", "unsupported dispersion form None"),
        (b'{"form": "mgo_cln_e"}', "KeyError\\('valid_range_nm'\\)"),
    ])
    def test_malformed_file_names_the_path(self, tmp_path, content, fragment):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(DomainError, match=fragment) as info:
            load_dispersion(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, value, fragment", [
        ("valid_range_nm", 5, "malformed dispersion file"),
        ("valid_range_nm", [1.0, 2.0, 3.0], "malformed dispersion file"),
        ("reference_temperature_k", "hot", "malformed dispersion file"),
        ("reference_temperature_k", math.nan, "reference_temperature_k out of range"),
        ("material", math.nan, "material must be a string"),
        ("material", None, "material must be a string"),
        ("version", 2026.08, "version must be a string"),
    ])
    def test_malformed_fields_rejected_on_load(self, tmp_path, key, value, fragment):
        payload = _ppln_payload()
        payload[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DomainError, match=fragment):
            load_dispersion(str(path))

    @pytest.mark.parametrize("coefficients", [{}, [1.0], {"a1": "x"}])
    def test_malformed_coefficients_rejected_on_use(self, tmp_path, coefficients):
        payload = _ppln_payload()
        payload["coefficients"] = coefficients
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        model = load_dispersion(str(path))
        with pytest.raises(DomainError, match="cannot be evaluated"):
            model.index(650.0)

    def test_data_version_exposed(self):
        assert dispersion_data_version() == "2026.08"


class TestPolingPeriod:
    def test_golden_bisection_values(self):
        ppktp = load_dispersion("ppktp")
        ppln = load_dispersion("ppln")
        period_493 = solve_poling_period(
            field(493.0), field(1343.0),
            dfg_output(field(493.0), field(1343.0)), ppktp,
        )
        period_650 = solve_poling_period(
            field(650.0), field(1343.0),
            dfg_output(field(650.0), field(1343.0)), ppln,
        )
        period_780 = solve_poling_period(
            field(780.0), field(1569.0),
            dfg_output(field(780.0), field(1569.0)), ppln,
        )
        assert period_493 == pytest.approx(GOLDEN_PERIOD_493_PPKTP, rel=1e-12)
        assert period_650 == pytest.approx(GOLDEN_PERIOD_650_PPLN, rel=1e-12)
        assert period_780 == pytest.approx(GOLDEN_PERIOD_780_PPLN, rel=1e-12)

    def test_bisection_oracle_agrees_live(self):
        ppln = load_dispersion("ppln")
        out = dfg_output(field(650.0), field(1343.0))
        direct = solve_poling_period(field(650.0), field(1343.0), out, ppln)
        bisected = bisect_poling_period(ppln, 650.0, 1343.0, out.wavelength_nm)
        assert direct == pytest.approx(bisected, rel=1e-12)

    def test_third_order_is_exactly_triple(self):
        ppln = load_dispersion("ppln")
        out = dfg_output(field(650.0), field(1343.0))
        first = solve_poling_period(field(650.0), field(1343.0), out, ppln, poling_order=1)
        third = solve_poling_period(field(650.0), field(1343.0), out, ppln, poling_order=3)
        assert third == 3.0 * first

    def test_even_order_rejected(self):
        ppln = load_dispersion("ppln")
        out = dfg_output(field(650.0), field(1343.0))
        with pytest.raises(DomainError):
            solve_poling_period(field(650.0), field(1343.0), out, ppln, poling_order=2)

    def test_order_beyond_float_range_rejected(self):
        ppln = load_dispersion("ppln")
        out = dfg_output(field(650.0), field(1343.0))
        period = solve_poling_period(field(650.0), field(1343.0), out, ppln, poling_order=10**300 + 1)
        assert math.isfinite(period)
        for order in (10**308 + 1, int("1" * 400)):
            with pytest.raises(DomainError, match="poling order too large"):
                solve_poling_period(field(650.0), field(1343.0), out, ppln, poling_order=order)

    def test_unmatchable_ordering_reports_sign_convention(self):
        # SFG puts the output wavevector on top, so the printed convention fails
        ppln = load_dispersion("ppln")
        out = sfg_output(field(1550.0), field(1550.0))
        with pytest.raises(DomainError, match="cannot be quasi-phase-matched"):
            solve_poling_period(field(1550.0), field(1550.0), out, ppln)


def random_dfg_stage(rng, material):
    dispersion = load_dispersion(material)
    input_nm = float(rng.uniform(510.0, 700.0))
    pump_nm = float(rng.uniform(1050.0, 1400.0))
    stage, _ = plan_stage(input_nm, pump_nm, MixKind.DFG, dispersion,
                          poling_order=int(rng.choice([1, 3, 5])))
    return stage, dispersion


class TestResidualRoundTrip:
    def test_solved_stages_have_machine_zero_residual(self):
        rng = np.random.default_rng(2026)
        for material in ("ppln", "ppktp"):
            for _ in range(20):
                stage, dispersion = random_dfg_stage(rng, material)
                residual = qpm_residual(stage, dispersion)
                grating = 2.0 * math.pi / (stage.poling_period_um * 1e-6)
                assert abs(residual) < 1e-9 * grating

    def test_infinite_period_limit_recovers_bulk_mismatch(self):
        ppln = load_dispersion("ppln")
        out = dfg_output(field(650.0), field(1343.0))
        solved = solve_poling_period(field(650.0), field(1343.0), out, ppln)
        stage_solved = ConversionStage(field(650.0), field(1343.0), out,
                                       MixKind.DFG, solved)
        bulk = qpm_residual(stage_solved, ppln) + 2.0 * math.pi / (solved * 1e-6)
        huge = ConversionStage(field(650.0), field(1343.0), out,
                               MixKind.DFG, 1e15)
        assert qpm_residual(huge, ppln) == pytest.approx(bulk, rel=1e-6)

    def test_residual_checks_dispersion_range(self):
        ppktp = load_dispersion("ppktp")
        narrow = DispersionModel(
            material=ppktp.material, form=ppktp.form, coefficients=ppktp.coefficients,
            valid_range_nm=(430.0, 1200.0), temperature_k=ppktp.temperature_k,
            version=ppktp.version, notes=ppktp.notes,
        )
        out = dfg_output(field(650.0), field(1343.0))
        stage = ConversionStage(field(650.0), field(1343.0), out,
                                MixKind.DFG, 10.0)
        with pytest.raises(DomainError, match="pump"):
            qpm_residual(stage, narrow)


class TestStageValidation:
    def test_energy_conservation_enforced(self):
        with pytest.raises(DomainError):
            ConversionStage(field(493.0), field(1343.0),
                            field(780.0), MixKind.DFG, 7.0)

    def test_exact_output_accepted(self):
        out = dfg_output(field(493.0), field(1343.0))
        stage = ConversionStage(field(493.0), field(1343.0), out,
                                MixKind.DFG, 7.4, efficiency=0.05)
        assert stage.efficiency == 0.05

    def test_efficiency_bounds(self):
        out = dfg_output(field(493.0), field(1343.0))
        with pytest.raises(DomainError):
            ConversionStage(field(493.0), field(1343.0), out,
                            MixKind.DFG, 7.4, efficiency=1.5)
        for kwargs in ({"efficiency": math.nan}, {"poling_period_um": math.inf}):
            with pytest.raises(DomainError, match=f"^{next(iter(kwargs))} out of range"):
                ConversionStage(**{**dict(input=field(493.0), pump=field(1343.0),
                                          output=out, kind=MixKind.DFG, poling_period_um=7.4),
                                   **kwargs})

    def test_even_poling_order_rejected(self):
        out = dfg_output(field(493.0), field(1343.0))
        with pytest.raises(DomainError):
            ConversionStage(field(493.0), field(1343.0), out,
                            MixKind.DFG, 7.4, poling_order=2)


class TestNoiseAudit:
    def test_bundled_designs_pass_spdc_rule(self):
        for row in standard_conversion_table():
            codes = {f.code for f in noise_audit(row.stage)}
            assert "SPDC_RISK" not in codes

    def test_pump_above_output_flags_spdc(self):
        stage, findings = plan_stage(500.0, 600.0, MixKind.DFG, load_dispersion("ppln"))
        codes = {f.code for f in findings}
        assert "SPDC_RISK" in codes

    def test_small_detuning_flags_srs_with_value(self):
        stage, _ = plan_stage(780.0, 1569.0, MixKind.DFG, load_dispersion("ppln"))
        findings = noise_audit(stage)
        srs = [f for f in findings if f.code == "SRS_RISK"]
        assert len(srs) == 1
        assert "2.205" in srs[0].message

    def test_clean_stage_passes(self):
        stage, findings = plan_stage(650.0, 1343.0, MixKind.DFG, load_dispersion("ppln"))
        assert [f.code for f in findings] == ["PASS"]

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_bad_threshold_rejected(self, threshold):
        stage, _ = plan_stage(650.0, 1343.0, MixKind.DFG, load_dispersion("ppln"))
        with pytest.raises(DomainError, match="^srs_threshold_thz out of range"):
            noise_audit(stage, threshold)

    def test_threshold_is_configurable(self):
        stage, _ = plan_stage(650.0, 1343.0, MixKind.DFG, load_dispersion("ppln"))
        codes = {f.code for f in noise_audit(stage, srs_threshold_thz=20.0)}
        assert "SRS_RISK" in codes


class TestChains:
    def _stage(self, input_nm, pump_nm, efficiency):
        stage, _ = plan_stage(input_nm, pump_nm, MixKind.DFG,
                              load_dispersion("ppln" if input_nm > 500 else "ppktp"),
                              efficiency=efficiency)
        return stage

    def test_empty_chain_is_identity(self):
        assert chain_efficiency([]) == 1.0

    def test_single_stage(self):
        assert chain_efficiency([self._stage(650.0, 1343.0, 0.05)]) == 0.05

    def test_two_stage_telecom_route(self):
        first = self._stage(493.0, 1343.0, 0.05)
        second, _ = plan_stage(first.output.wavelength_nm, 1569.0, MixKind.DFG,
                               load_dispersion("ppln"), efficiency=0.18)
        assert chain_efficiency([first, second]) == pytest.approx(0.009, rel=1e-12)

    def test_disconnected_chain_rejected(self):
        first = self._stage(493.0, 1343.0, 0.05)
        second = self._stage(650.0, 1343.0, 0.18)
        with pytest.raises(ChainError):
            chain_efficiency([first, second])

    def test_validity_is_order_sensitive(self):
        first = self._stage(493.0, 1343.0, 0.05)
        second, _ = plan_stage(first.output.wavelength_nm, 1569.0, MixKind.DFG,
                               load_dispersion("ppln"), efficiency=0.18)
        chain_efficiency([first, second])
        with pytest.raises(ChainError):
            chain_efficiency([second, first])


class TestStandardConversionTable:
    def test_frequencies(self):
        rows = standard_conversion_table()
        assert [r.device for r in rows] == ["PPKTP", "PPLN", "PPLN"]
        assert rows[0].output_thz == pytest.approx(OUT_THZ_493, rel=1e-12)
        assert rows[1].output_thz == pytest.approx(OUT_THZ_650, rel=1e-12)
        assert rows[2].output_thz == pytest.approx(OUT_THZ_780, rel=1e-12)

    def test_integer_presentation(self):
        rows = standard_conversion_table()
        printed = [(round(r.input_thz), round(r.output_thz), round(r.pump_thz)) for r in rows]
        assert printed == [(608, 385, 223), (461, 238, 223), (384, 193, 191)]

    def test_stage_periods_match_goldens(self):
        rows = standard_conversion_table()
        assert rows[0].stage.poling_period_um == pytest.approx(GOLDEN_PERIOD_493_PPKTP, rel=1e-12)
        assert rows[1].stage.poling_period_um == pytest.approx(GOLDEN_PERIOD_650_PPLN, rel=1e-12)
        assert rows[2].stage.poling_period_um == pytest.approx(GOLDEN_PERIOD_780_PPLN, rel=1e-12)
