import math
import re

import numpy as np
import pytest

from ionlink.errors import DomainError
from ionlink.fiber import (
    STANDARD_ATTENUATION_DB_PER_KM,
    FiberChannel,
    conversion_crossing,
    link_rate,
    standard_channel,
    transmission,
    transmission_curves,
)
from ionlink.qfc import MixKind, chain_efficiency, load_dispersion, plan_stage

from oracles import transmission_curve_rows_per_row

# frozen closed-form values
CROSSING_493_TO_780_AT_5PCT = 0.27979139691698524
CROSSING_650_TO_1259_AT_5PCT = 0.8850544188190349
BUDGET_EXAMPLE_RATE_HZ = 1803.4850033095138

#: The worked example's inputs, by keyword.
LINK_INPUTS = dict(source_rate=0.085, repetition_rate_hz=1e6, conversion_efficiency=0.05,
                   fiber=standard_channel(780), length_km=1.0, detector_efficiency=0.95)


class TestChannels:
    def test_reference_attenuations(self):
        assert STANDARD_ATTENUATION_DB_PER_KM == {
            493: 50.0, 650: 15.0, 780: 3.5, 1259: 0.3, 1550: 0.18,
        }

    def test_standard_channel_lookup(self):
        ch = standard_channel(780)
        assert ch.wavelength_nm == 780.0
        assert ch.attenuation_db_per_km == 3.5

    def test_unknown_wavelength_rejected(self):
        with pytest.raises(DomainError):
            standard_channel(633)

    @pytest.mark.parametrize("nm", [780.4, 779.5, 780.5, 780])
    def test_wavelength_rounds_to_the_nearest_whole_nm(self, nm):
        assert standard_channel(nm) == FiberChannel(780.0, 3.5)

    @pytest.mark.parametrize("nm, text", [
        (math.nan, "nan"), (-math.inf, "-inf"), (1e308, "1e+308"), (633.4, "633"),
    ])
    def test_wavelength_without_a_channel_is_refused_by_name(self, nm, text):
        expected = fr"^no bundled attenuation for {re.escape(text)} nm \(known: "
        with pytest.raises(DomainError, match=expected):
            standard_channel(nm)


class TestTransmission:
    def test_visible_over_one_km(self):
        assert transmission(standard_channel(493), 1.0) == pytest.approx(1e-5, rel=1e-12)

    def test_zero_length(self):
        for nm in STANDARD_ATTENUATION_DB_PER_KM:
            assert transmission(standard_channel(nm), 0.0) == 1.0

    def test_telecom_over_ten_km(self):
        assert transmission(standard_channel(1550), 10.0) == pytest.approx(
            10.0 ** (-0.18), rel=1e-12
        )

    def test_multiplicative_within_float_rounding(self):
        rng = np.random.default_rng(8)
        ch = standard_channel(780)
        for _ in range(100):
            l1, l2 = rng.uniform(0.0, 30.0, size=2)
            combined = transmission(ch, l1 + l2)
            product = transmission(ch, l1) * transmission(ch, l2)
            assert combined == pytest.approx(product, rel=1e-12)


class TestCrossing:
    def test_visible_to_near_ir_value(self):
        got = conversion_crossing(standard_channel(493), standard_channel(780), 0.05)
        assert got == pytest.approx(CROSSING_493_TO_780_AT_5PCT, rel=1e-12)
        assert got <= 0.5

    def test_red_to_o_band_value(self):
        got = conversion_crossing(standard_channel(650), standard_channel(1259), 0.05)
        assert got == pytest.approx(CROSSING_650_TO_1259_AT_5PCT, rel=1e-12)

    def test_back_substitution(self):
        raw, converted = standard_channel(493), standard_channel(780)
        for eff in (0.01, 0.05, 0.3, 0.9):
            length = conversion_crossing(raw, converted, eff)
            assert eff * transmission(converted, length) == pytest.approx(
                transmission(raw, length), rel=1e-9
            )

    def test_unit_efficiency_crosses_immediately(self):
        assert conversion_crossing(standard_channel(493), standard_channel(780), 1.0) == 0.0

    def test_no_crossing_when_conversion_does_not_help(self):
        with pytest.raises(DomainError, match=r"^converted channel \(\S+ dB/km\) does not improve "
                                              r"on the raw one \(\S+ dB/km\): no crossover$"):
            conversion_crossing(standard_channel(1550), standard_channel(493), 0.5)


class TestLinkRate:
    def test_lossless_reference(self):
        rate = link_rate(0.085, 1e6, 1.0, standard_channel(780), 0.0, 1.0)
        assert rate == pytest.approx(85000.0, rel=1e-12)

    def test_worked_example(self):
        rate = link_rate(0.085, 1e6, 0.05, standard_channel(780), 1.0, 0.95)
        assert rate == pytest.approx(BUDGET_EXAMPLE_RATE_HZ, rel=1e-12)
        assert rate == pytest.approx(1.80e3, rel=5e-3)

    def test_monotone_in_length(self):
        rates = [
            link_rate(0.085, 1e6, 0.05, standard_channel(780), float(km), 0.95)
            for km in np.linspace(0.0, 20.0, 50)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_vanishes_at_extreme_length(self):
        assert link_rate(0.085, 1e6, 0.05, standard_channel(780), 1e6, 0.95) == 0.0

    def test_monotone_in_each_probability_factor(self):
        base = link_rate(0.08, 1e6, 0.05, standard_channel(780), 1.0, 0.9)
        assert link_rate(0.09, 1e6, 0.05, standard_channel(780), 1.0, 0.9) > base
        assert link_rate(0.08, 1e6, 0.06, standard_channel(780), 1.0, 0.9) > base
        assert link_rate(0.08, 1e6, 0.05, standard_channel(780), 1.0, 0.95) > base

    def test_conversion_chain_efficiency(self):
        stage, _ = plan_stage(493.0, 1343.0, MixKind.DFG, load_dispersion("ppktp"),
                              efficiency=0.05)
        rate = link_rate(0.085, 1e6, chain_efficiency((stage,)), standard_channel(780), 1.0, 0.95)
        assert rate == pytest.approx(BUDGET_EXAMPLE_RATE_HZ, rel=1e-12)

    def test_first_bad_input_is_named(self):
        """The [0, 1] fractions are checked first, then the rate and the length."""
        order = ["source_rate", "detector_efficiency", "conversion_efficiency",
                 "repetition_rate_hz", "length_km"]
        for first, second in zip(order, order[1:]):
            with pytest.raises(DomainError, match=f"^{first} out of range"):
                link_rate(**{**LINK_INPUTS, first: math.nan, second: math.nan})


class TestCurves:
    def test_row_grid_and_scaling(self):
        rows = list(transmission_curves(2.0, 0.01))
        assert len(rows) == 201
        assert rows[0][0] == 0.0
        assert rows[0][1] == 1.0          # raw trace starts at unity
        assert rows[0][2] == 0.05         # converted trace starts at its efficiency
        assert rows[-1][0] == pytest.approx(2.0, rel=1e-12)

    def test_converted_trace_wins_beyond_crossing(self):
        rows = list(transmission_curves(2.0, 0.01))
        beyond = [r for r in rows if r[0] > CROSSING_493_TO_780_AT_5PCT + 0.01]
        for row in beyond:
            assert row[2] > row[1]

    @pytest.mark.parametrize("args", [
        (200.0, 0.01), (3.7, 0.013, 0.07, 0.11, 0.3), (0.0, 1.0), (1e4, 0.7), (5.0, 7.0),
    ])
    def test_rows_bit_identical_to_per_row_loop(self, args):
        rows = list(transmission_curves(*args))
        expected = transmission_curve_rows_per_row(*args)
        assert (np.array(rows).view(np.uint64) == np.array(expected).view(np.uint64)).all()
        assert all(type(row) is list for row in rows)
