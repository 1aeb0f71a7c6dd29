import math
import re

import numpy as np
import pytest

from ionlink.atomic import BranchingModel, Level, Polarization, ZeemanState, default_barium_model
from ionlink.emission import CollectionOptic, EmissionDirection, PolarizationVector
from ionlink.emission import cone_mixing_weight
from ionlink.errors import MAX_ROWS, DomainError, Record, check, steps, whole
from ionlink.fiber import FiberChannel, LinkBudget
from ionlink.pump_cycle import ChainOutcome, PumpCycleConfig, simulate
from ionlink.qfc import (
    ConversionStage, DispersionModel, LightField, MixKind, load_dispersion, plan_stage,
)
from ionlink.schemes import CycleAmplitudes, SchemeSpec, TwoQubitState
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
    ("max_cycles", lambda: PumpCycleConfig(max_cycles=1.5)),  # was accepted
    ("n_trials", lambda: simulate(PumpCycleConfig(), n_trials=10.0, seed=0)),  # was a TypeError
    ("seed", lambda: simulate(PumpCycleConfig(), n_trials=10, seed=0.5)),  # ran on seed 0's bits
    ("workers", lambda: simulate(PumpCycleConfig(), n_trials=10, seed=0, workers=1.5)),  # ran
    ("n_polar", lambda: cone_mixing_weight(0.5, n_polar=0)),
    ("n_polar", lambda: cone_mixing_weight(0.5, n_polar=2.5)),
    ("n_azimuth", lambda: cone_mixing_weight(0.5, n_azimuth=0)),
]


@pytest.mark.parametrize("name, call", WHOLE_NUMBER_CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(WHOLE_NUMBER_CASES)])
def test_library_refuses_what_is_not_a_whole_number_in_range(name, call):
    with pytest.raises(DomainError, match=f"^{name} out of range: "):
        call()


#: Records given a non-finite float field; each must raise a DomainError naming it.
NON_FINITE_CASES = [
    ("mj", lambda x: ZeemanState(Level.D32, x)),  # was a ValueError (nan) or OverflowError (inf)
    ("reinit", lambda x: CycleAmplitudes(x, 0.0, 0.0)),  # nan was accepted
    ("crossover", lambda x: CycleAmplitudes(0.0, x, 0.0)),
    ("bad_loop", lambda x: CycleAmplitudes(0.0, 0.0, x)),
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
    ("reinit and crossover amplitudes squared sum to 2.0, above 1",
     lambda: CycleAmplitudes(1.0, 1.0, 1.0)),  # p_dark was -0.2696
    ("reinit and crossover amplitudes squared sum to", lambda: CycleAmplitudes(0.8, -0.7, 0.0)),
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
    (CollectionOptic, {"na": 0.6}, "CollectionOptic(na=0.6)"),
    (FiberChannel, {"wavelength_nm": 780.0, "attenuation_db_per_km": 4.0},
     "FiberChannel(wavelength_nm=780.0, attenuation_db_per_km=4.0)"),
    (LinkBudget, {"source_rate": 0.085, "repetition_rate_hz": 1e6,
                  "fiber": FiberChannel(1550.0, 0.2), "length_km": 10.0,
                  "detector_efficiency": 0.9, "conversion_efficiency": 1.0},
     "LinkBudget(source_rate=0.085, repetition_rate_hz=1000000.0, fiber=FiberChannel("
     "wavelength_nm=1550.0, attenuation_db_per_km=0.2), length_km=10.0, "
     "detector_efficiency=0.9, conversion_efficiency=1.0)"),
    (PumpCycleConfig, {"initial": ZeemanState(D32, -1.5), "drive": Polarization.SIGMA_PLUS,
                       "model": BranchingModel(0.75, 0.25, SMALL_CG), "max_cycles": 3},
     "PumpCycleConfig(initial=ZeemanState(level=<Level.D32: 'D32'>, mj=-1.5), "
     f"drive=<Polarization.SIGMA_PLUS: 'sigma+'>, model={SMALL_MODEL_REPR}, max_cycles=3)"),
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
    (TwoQubitState, {"rho": np.eye(4) / 4},
     "TwoQubitState(rho=array([[0.25+0.j, 0.  +0.j, 0.  +0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.25+0.j, 0.  +0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.  +0.j, 0.25+0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.  +0.j, 0.  +0.j, 0.25+0.j]]))"),
    (CycleAmplitudes, {"reinit": 0.5, "crossover": -0.5, "bad_loop": 0.25},
     "CycleAmplitudes(reinit=0.5, crossover=-0.5, bad_loop=0.25)"),
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
        assert len(RECORDS) == 16

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

        if cls is TwoQubitState:  # an array has no truth value, as under the dataclass
            assert a == a
            with pytest.raises(ValueError):
                a == b  # noqa: B015
        else:
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
        assert PumpCycleConfig(max_cycles=3).model == default_barium_model()

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
