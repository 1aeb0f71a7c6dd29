import functools
import math
import re

import numpy as np
import pytest

from ionlink.atomic import BranchingModel, Level, Polarization, ZeemanState, default_barium_model
from ionlink.emission import EmissionDirection, PolarizationVector, collection_fraction
from ionlink.emission import cone_mixing_weight
from ionlink.errors import MAX_ROWS, DomainError, Record, check, steps, whole
from ionlink.fiber import (
    FiberChannel, conversion_crossing, link_rate, transmission, transmission_curves,
)
from ionlink.pump_cycle import ChainOutcome, PumpCycleConfig, simulate
from ionlink.qfc import (
    ConversionStage, DispersionModel, LightField, MixKind, dfg_output, load_dispersion,
    noise_audit, plan_stage, sfg_output,
)
from ionlink.schemes import (
    D_SHELVING, SchemeSpec, entanglement_probability, fidelity_at_na, mixture_fidelity,
)
from ionlink.trap import TrapConfig, pseudopotential


class TestCheck:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_whatever_the_bounds(self, value):
        with pytest.raises(DomainError, match=r"^x out of range: (nan|inf|-inf) \(must be finite"):
            check("x", value, -math.inf, math.inf)

    @pytest.mark.parametrize("value, kwargs", [
        (-1e-300, {}), (0.0, {"open_lo": True}), (1.0000000000000002, {"hi": 1.0}),
        (0.5, {"lo": 1.0}),
    ])
    def test_out_of_bounds_rejected(self, value, kwargs):
        with pytest.raises(DomainError, match=f"^x out of range: {value}"):
            check("x", value, **kwargs)

    def test_bounds_are_inclusive_unless_open(self):
        assert check("x", 0.0) == 0.0
        assert check("x", 1.0, 0.0, 1.0) == 1.0
        assert check("x", 5e-324, open_lo=True) == 5e-324

    def test_value_returned_unchanged(self):
        value = np.float64(0.25)
        assert check("x", value) is value

    def test_message_format(self):
        with pytest.raises(DomainError) as closed:
            check("NA", 1.5, 0.0, 1.0)
        assert str(closed.value) == "NA out of range: 1.5 (must be finite and lie in [0, 1])"
        with pytest.raises(DomainError) as half_open:
            check("r", 0.0, open_lo=True)
        assert str(half_open.value) == "r out of range: 0.0 (must be finite and lie in (0, inf))"


class TestSteps:
    def test_span_over_step(self):
        assert type(steps("s", 0.5, 2.0)) is int
        assert steps("s", 0.5, 2.0) == 4
        assert steps("s", 1.0, 0.0) == 0
        assert steps("s", 7.0, 180.0) == 25
        # 180 / 1.8e-4 rounds to 999999.9999999999: a rounding error short of the end
        assert steps("s", 1.8e-4, 180.0) == 1_000_000

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 2.0])
    def test_step_outside_its_range_rejected(self, step):
        with pytest.raises(DomainError, match=r"^s out of range"):
            steps("s", step, 1.0, hi=1.0)

    def test_grid_capped(self):
        assert steps("s", 1.0, MAX_ROWS - 1) == MAX_ROWS - 1
        for step, span in ((1.0, MAX_ROWS), (1e-300, 1.0), (1e-320, 1.0)):
            with pytest.raises(DomainError, match=f"^s {step} is too small"):
                steps("s", step, span)


class TestWhole:
    def test_integers_in_range_pass_as_int(self):
        assert whole("n", 0) == 0
        assert whole("n", 2**64 - 1, 0, 2**64 - 1) == 2**64 - 1
        assert whole("n", int("1" * 400), 1, odd=True) == int("1" * 400)
        value = whole("n", np.int64(7), 1)
        assert value == 7 and type(value) is int

    @pytest.mark.parametrize("value, kwargs, text", [
        (2.5, {}, "n out of range: 2.5 (must be an integer in [0, inf))"),
        (2.0, {}, "n out of range: 2.0 (must be an integer in [0, inf))"),
        (math.nan, {}, "n out of range: nan (must be an integer in [0, inf))"),
        (math.inf, {}, "n out of range: inf (must be an integer in [0, inf))"),
        (0, {"lo": 1}, "n out of range: 0 (must be an integer in [1, inf))"),
        (2**64, {"hi": 2**64 - 1},
         "n out of range: 18446744073709551616 (must be an integer in [0, 18446744073709551615])"),
        (2, {"lo": 1, "odd": True}, "n out of range: 2 (must be an odd integer in [1, inf))"),
        (-1, {"lo": 1, "odd": True}, "n out of range: -1 (must be an odd integer in [1, inf))"),
    ])
    def test_outside_the_integers_in_range_rejected(self, value, kwargs, text):
        with pytest.raises(DomainError) as raised:
            whole("n", value, **kwargs)
        assert str(raised.value) == text

    @pytest.mark.parametrize("value", [None, "3"])
    def test_wrong_type_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            whole("n", value)


def _plan(**kwargs):
    return plan_stage(650.0, 1343.0, MixKind.DFG, load_dispersion("ppln"), **kwargs)


#: Library calls given a whole-number parameter that is not one, or is out of
#: its range; each must raise a DomainError naming that parameter.  The bounds
#: of ``n_trials``, ``seed``, ``workers``, ``max_cycles`` and the even poling
#: orders are tested beside their functions.
WHOLE_NUMBER_CASES = [
    ("poling order", lambda: _plan(poling_order=2.5)),  # was a 2.5x first-order period
    ("poling order", lambda: ConversionStage(
        LightField.from_wavelength_nm(650.0),
        LightField.from_wavelength_nm(1343.0),
        _plan()[0].output, MixKind.DFG, 7.4, poling_order=3.0)),
    ("max_cycles", lambda: simulate(PumpCycleConfig(), n_trials=10, seed=0, max_cycles=1.5)),
    ("n_trials", lambda: simulate(PumpCycleConfig(), n_trials=10.0, seed=0)),  # was a TypeError
    ("seed", lambda: simulate(PumpCycleConfig(), n_trials=10, seed=0.5)),  # ran on seed 0's bits
    ("workers", lambda: simulate(PumpCycleConfig(), n_trials=10, seed=0, workers=1.5)),  # ran
]


@pytest.mark.parametrize("name, call", WHOLE_NUMBER_CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(WHOLE_NUMBER_CASES)])
def test_library_refuses_what_is_not_a_whole_number_in_range(name, call):
    with pytest.raises(DomainError, match=f"^{name} out of range: "):
        call()


#: Records and functions given a non-finite float; each must raise a DomainError naming it.
NON_FINITE_CASES = [
    ("mj", lambda x: ZeemanState(Level.D32, x)),  # was a ValueError (nan) or OverflowError (inf)
    ("p_good", lambda x: mixture_fidelity(x, 0.5)),
    ("p_bad", lambda x: mixture_fidelity(0.5, x)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, make", NON_FINITE_CASES, ids=[name for name, _ in NON_FINITE_CASES])
def test_records_refuse_non_finite_fields(name, make, value):
    with pytest.raises(DomainError, match=fr"^{name} out of range: {value} \(must be finite"):
        make(value)


TRAP = TrapConfig.from_lab_units(v0=200.0, f_rf_mhz=20.0, r_um=260.0, eta=0.9, mass_amu=138.0)

#: Library calls given what the CLI refuses, or cannot pass; each must raise a
#: DomainError whose message begins as given.
OUT_OF_RANGE_CASES = [
    ("x out of range: nan", lambda: pseudopotential(TRAP, math.nan, 0.0)),  # returned nan
    ("y out of range: inf", lambda: pseudopotential(TRAP, 0.0, math.inf)),  # returned inf
    ("x out of range: -inf", lambda: pseudopotential(TRAP, -math.inf, 0.0)),
    (f"pseudopotential of {TRAP} out of range: inf",
     lambda: pseudopotential(TRAP, 1e200, 0.0)),  # returned inf
    (f"pseudopotential of {TRAP} out of range: inf", lambda: pseudopotential(TRAP, 1e-3, 1e160)),
    ("p_good out of range: -0.1", lambda: mixture_fidelity(-0.1, 0.5)),
    ("p_bad out of range: -5e-324", lambda: mixture_fidelity(0.5, -5e-324)),
    ("p_good + p_bad out of range: 0.0", lambda: mixture_fidelity(0.0, 0.0)),
    ("p_good + p_bad out of range: -0.0", lambda: mixture_fidelity(-0.0, -0.0)),
    ("p_good + p_bad out of range: inf", lambda: mixture_fidelity(1e308, 1e308)),
]

RAW, CONVERTED = FiberChannel(493.0, 50.0), FiberChannel(780.0, 3.5)
#: Float inputs of the scalar library functions, each with the nearest floats
#: outside its range (None: unbounded above; none listed: only NaN and +-inf
#: are tested); NaN, +-inf and those are refused.
FLOAT_INPUTS = [
    ("source_rate", lambda x: link_rate(x, 1e6, 0.05, CONVERTED, 1.0, 0.95),
     -5e-324, 1.0000000000000002),
    ("repetition_rate_hz", lambda x: link_rate(0.085, x, 0.05, CONVERTED, 1.0, 0.95),
     -5e-324, None),
    ("conversion_efficiency", lambda x: link_rate(0.085, 1e6, x, CONVERTED, 1.0, 0.95),
     -5e-324, 1.0000000000000002),
    ("length_km", lambda x: link_rate(0.085, 1e6, 0.05, CONVERTED, x, 0.95), -5e-324, None),
    ("detector_efficiency", lambda x: link_rate(0.085, 1e6, 0.05, CONVERTED, 1.0, x),
     -5e-324, 1.0000000000000002),
    ("length_km", lambda x: transmission(CONVERTED, x), -5e-324, None),
    ("efficiency", lambda x: conversion_crossing(RAW, CONVERTED, x), 0.0, 1.0000000000000002),
    ("NA", collection_fraction, -5e-324, 1.0000000000000002),
    ("max_fidelity", lambda x: fidelity_at_na(x, 0.6), -5e-324, 1.0000000000000002),
    ("NA", lambda x: fidelity_at_na(0.891, x), -5e-324, 1.0000000000000002),
    ("NA", lambda x: entanglement_probability(D_SHELVING, x), -5e-324, 1.0000000000000002),
    ("NA", cone_mixing_weight, 0.0, 1.0000000000000002),
    ("wavelength_nm", lambda x: plan_stage(x, 1343.0, MixKind.DFG, load_dispersion("ppln")),
     0.0, None),
    ("wavelength_nm", lambda x: plan_stage(650.0, x, MixKind.DFG, load_dispersion("ppln")),
     0.0, None),
    ("efficiency", lambda x: _plan(efficiency=x), -5e-324, 1.0000000000000002),
    ("srs_threshold_thz", lambda x: _plan(srs_threshold_thz=x), -5e-324, None),
    ("srs_threshold_thz", lambda x: noise_audit(_plan()[0], x), -5e-324, None),
    ("v0", lambda x: TrapConfig.from_lab_units(x, 20.0, 260.0, 0.9, 138.0), 0.0, None),
    ("f_rf_mhz", lambda x: TrapConfig.from_lab_units(200.0, x, 260.0, 0.9, 138.0), 0.0, None),
    ("r_um", lambda x: TrapConfig.from_lab_units(200.0, 20.0, x, 0.9, 138.0), 0.0, None),
    ("eta", lambda x: TrapConfig.from_lab_units(200.0, 20.0, 260.0, x, 138.0),
     0.0, 1.0000000000000002),
    ("mass_amu", lambda x: TrapConfig.from_lab_units(200.0, 20.0, 260.0, 0.9, x), 0.0, None),
    ("charge_e", lambda x: TrapConfig.from_lab_units(200.0, 20.0, 260.0, 0.9, 138.0, x),
     0.0, None),
    # a generator checks its inputs when the first row is pulled
    ("max_km", lambda x: next(transmission_curves(x, 1.0)), -5e-324, None),
    ("step_km", lambda x: next(transmission_curves(10.0, x)), 0.0, None),
    ("eta_780", lambda x: next(transmission_curves(10.0, 1.0, eta_780=x)),
     -5e-324, 1.0000000000000002),
    ("eta_1259", lambda x: next(transmission_curves(10.0, 1.0, eta_1259=x)),
     -5e-324, 1.0000000000000002),
    ("eta_1550", lambda x: next(transmission_curves(10.0, 1.0, eta_1550=x)),
     -5e-324, 1.0000000000000002),
]
OUT_OF_RANGE_CASES += [
    (f"{name} out of range: {value} ", functools.partial(call, value))
    for name, call, *outside in FLOAT_INPUTS
    for value in (math.nan, math.inf, -math.inf, *outside) if value is not None
]
OUT_OF_RANGE_CASES += [  # a lab-unit trap input whose SI value under- or overflows
    ("f_rf_mhz out of range: 1e+303 (its SI value inf",
     lambda: TrapConfig.from_lab_units(200.0, 1e303, 260.0, 0.9, 138.0)),
    ("r_um out of range: 1e-320 (its SI value 0.0",
     lambda: TrapConfig.from_lab_units(200.0, 20.0, 1e-320, 0.9, 138.0)),
    ("mass_amu out of range: 1e-310 (its SI value 0.0",
     lambda: TrapConfig.from_lab_units(200.0, 20.0, 260.0, 0.9, 1e-310)),
    ("charge_e out of range: 5e-324 (its SI value 0.0",
     lambda: TrapConfig.from_lab_units(200.0, 20.0, 260.0, 0.9, 138.0, 5e-324)),
]
OUT_OF_RANGE_CASES += [  # a non-finite amplitude, real or complex: the intensity was nan or inf
    ("e_theta out of range: nan", lambda: PolarizationVector(math.nan, 0j)),
    ("e_phi out of range: inf", lambda: PolarizationVector(0j, math.inf)),
    ("e_theta out of range: -inf", lambda: PolarizationVector(-math.inf, 0j)),
    ("e_theta out of range: (inf+0j) (must be finite)",
     lambda: PolarizationVector(complex("inf"), 0j)),
    ("e_phi out of range: -infj", lambda: PolarizationVector(0j, complex(0.0, -math.inf))),
    ("e_phi out of range: (nan+nanj)", lambda: PolarizationVector(1j, complex("nan+nanj"))),
]
FAR_UV = LightField.from_wavelength_nm(1e-300)  # 2.99792458e+305 THz
PUMP = LightField.from_wavelength_nm(1343.0)  # 223.2259553239017 THz
OUT_OF_RANGE_CASES += [  # a pump below the input's rounding step: the output was the input
    ("pump out of range: 223.2259553239017 THz (lost to rounding against the 2.99792458e+305",
     lambda: sfg_output(FAR_UV, PUMP)),
    ("pump out of range: 223.2259553239017 THz (lost to rounding against the 2.99792458e+305",
     lambda: dfg_output(FAR_UV, PUMP)),
]


@pytest.mark.parametrize("start, call", OUT_OF_RANGE_CASES,
                         ids=[f"{i}-{start.split()[0]}"
                              for i, (start, _) in enumerate(OUT_OF_RANGE_CASES)])
def test_library_refuses_what_the_cli_refuses(start, call):
    with pytest.raises(DomainError, match=f"^{re.escape(start)}"):
        call()


P12, S12, D32 = Level.P12, Level.S12, Level.D32
#: The smallest valid model: each P1/2 sublevel decays to one S and one D sublevel.
SMALL_CG = {(ZeemanState(P12, m), ZeemanState(lower, m)): 1.0 for m in (0.5, -0.5) for lower in (S12, D32)}
SMALL_MODEL_REPR = (
    "BranchingModel(br_493=0.75, br_650=0.25, cg=mappingproxy({"
    "(ZeemanState(level=<Level.P12: 'P12'>, mj=0.5), ZeemanState(level=<Level.S12: 'S12'>, "
    "mj=0.5)): 1.0, "
    "(ZeemanState(level=<Level.P12: 'P12'>, mj=0.5), ZeemanState(level=<Level.D32: 'D32'>, "
    "mj=0.5)): 1.0, "
    "(ZeemanState(level=<Level.P12: 'P12'>, mj=-0.5), ZeemanState(level=<Level.S12: 'S12'>, "
    "mj=-0.5)): 1.0, "
    "(ZeemanState(level=<Level.P12: 'P12'>, mj=-0.5), ZeemanState(level=<Level.D32: 'D32'>, "
    "mj=-0.5)): 1.0}))"
)
LIGHT_REPR = "LightField(wavelength_nm={}, frequency_thz={})"

#: One instance of every record class: its fields by keyword, in order, and the
#: repr the frozen dataclasses printed for it.
RECORDS = [
    (ZeemanState, {"level": D32, "mj": 1.5}, "ZeemanState(level=<Level.D32: 'D32'>, mj=1.5)"),
    (BranchingModel, {"br_493": 0.75, "br_650": 0.25, "cg": SMALL_CG}, SMALL_MODEL_REPR),
    (EmissionDirection, {"theta": 0.5, "phi": 1.0}, "EmissionDirection(theta=0.5, phi=1.0)"),
    (PolarizationVector, {"e_theta": 1j, "e_phi": 0.5},
     "PolarizationVector(e_theta=1j, e_phi=0.5)"),
    (FiberChannel, {"wavelength_nm": 780.0, "attenuation_db_per_km": 4.0},
     "FiberChannel(wavelength_nm=780.0, attenuation_db_per_km=4.0)"),
    (PumpCycleConfig, {"initial": ZeemanState(D32, -1.5), "drive": Polarization.SIGMA_PLUS,
                       "model": BranchingModel(0.75, 0.25, SMALL_CG)},
     "PumpCycleConfig(initial=ZeemanState(level=<Level.D32: 'D32'>, mj=-1.5), "
     f"drive=<Polarization.SIGMA_PLUS: 'sigma+'>, model={SMALL_MODEL_REPR})"),
    (ChainOutcome, {"p_good": 0.5, "p_bad": 0.25, "p_dark": 0.25, "se_good": None,
                    "se_bad": None, "se_dark": None, "n_trials": None, "seed": None},
     "ChainOutcome(p_good=0.5, p_bad=0.25, p_dark=0.25, se_good=None, se_bad=None, "
     "se_dark=None, n_trials=None, seed=None)"),
    (LightField, {"wavelength_nm": 500.0, "frequency_thz": 599.584916},
     LIGHT_REPR.format(500.0, 599.584916)),
    (DispersionModel, {"material": "m", "form": "sellmeier-poles", "coefficients": {"a": 1.0},
                       "valid_range_nm": (400.0, 1600.0), "temperature_k": 300.0,
                       "version": "v1", "notes": ""},
     "DispersionModel(material='m', form='sellmeier-poles', coefficients={'a': 1.0}, "
     "valid_range_nm=(400.0, 1600.0), temperature_k=300.0, version='v1', notes='')"),
    (ConversionStage, {"input": LightField(500.0, 599.584916),
                       "pump": LightField(1000.0, 299.792458),
                       "output": LightField(1000.0, 299.792458), "kind": MixKind.DFG,
                       "poling_period_um": 20.0, "poling_order": 1, "efficiency": 1.0},
     f"ConversionStage(input={LIGHT_REPR.format(500.0, 599.584916)}, "
     f"pump={LIGHT_REPR.format(1000.0, 299.792458)}, "
     f"output={LIGHT_REPR.format(1000.0, 299.792458)}, kind=<MixKind.DFG: 'dfg'>, "
     "poling_period_um=20.0, poling_order=1, efficiency=1.0)"),
    (SchemeSpec, {"name": "weak", "excite_prob": 0.2, "s_decay_prob": 0.7304,
                  "max_fidelity": 1.0},
     "SchemeSpec(name='weak', excite_prob=0.2, s_decay_prob=0.7304, max_fidelity=1.0)"),
    (TrapConfig, {"v0": 200.0, "omega_rf": 1e8, "r": 2.6e-4, "eta": 0.9, "mass": 2.3e-25,
                  "charge": 1.6e-19},
     "TrapConfig(v0=200.0, omega_rf=100000000.0, r=0.00026, eta=0.9, mass=2.3e-25, "
     "charge=1.6e-19)"),
]


class TestRecord:
    """Every record is a frozen value: built by position or keyword, checked
    once, compared and hashed by its fields, and printed field by field."""

    def test_every_record_class_is_listed(self):
        assert {cls for cls, _, _ in RECORDS} == set(Record.__subclasses__())
        assert len(RECORDS) == 12

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
    def test_frozen_value_semantics(self, cls, fields, text):
        a, b = cls(**fields), cls(*fields.values())
        assert repr(a) == repr(b) == text
        values = tuple(getattr(a, name) for name in fields)

        name = next(iter(fields))
        for action in (lambda: setattr(a, name, values[0]), lambda: delattr(a, name),
                       lambda: setattr(a, "other", 1)):
            with pytest.raises(AttributeError):
                action()
        assert tuple(getattr(a, n) for n in fields) == values

        assert a == b and not a != b
        assert a != values and a.__eq__(values) is NotImplemented
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        if cls is not PumpCycleConfig:  # the only record whose fields all have defaults
            with pytest.raises(TypeError):
                cls(**{n: v for n, v in fields.items() if n != name})

    def test_records_of_two_classes_never_compare_equal(self):
        assert EmissionDirection(0.5, 1.0) != FiberChannel(0.5, 1.0)
        assert ZeemanState(D32, 1.5) != (D32, 1.5)

    def test_zeeman_states_are_dict_keys(self):
        index = {ZeemanState(P12, 0.5): 0, ZeemanState(P12, -0.5): 1}
        assert index[ZeemanState(P12, -0.5)] == 1

    def test_omitted_model_is_a_fresh_default(self):
        first, second = PumpCycleConfig(), PumpCycleConfig()
        assert first.model == default_barium_model() and first.model is not second.model
        assert PumpCycleConfig(drive=Polarization.SIGMA_PLUS).model == default_barium_model()

    def test_checks_run_once_per_construction(self, monkeypatch):
        checked = []
        check_channel = FiberChannel.__post_init__
        monkeypatch.setattr(FiberChannel, "__post_init__",
                            lambda channel: checked.append(channel) or check_channel(channel))
        FiberChannel(780.0, 4.0)
        FiberChannel(wavelength_nm=780.0, attenuation_db_per_km=4.0)
        assert len(checked) == 2
        with pytest.raises(DomainError):
            FiberChannel(-1.0, 4.0)

    def test_chain_outcome_dict_keeps_field_order(self):
        outcome = ChainOutcome(0.5, 0.25, 0.25, n_trials=4, seed=7)
        assert list(outcome.as_dict().items()) == [
            ("p_good", 0.5), ("p_bad", 0.25), ("p_dark", 0.25), ("se_good", None),
            ("se_bad", None), ("se_dark", None), ("n_trials", 4), ("seed", 7)]
