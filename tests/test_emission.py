import cmath
import math
import random
import types
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest

from ionlink import emission
from ionlink._format import _BLOCK
from ionlink.emission import (
    CollectionModel,
    EmissionDirection,
    collection_fraction,
    cone_mixing_weight,
    pattern_rows,
    pi_emission,
    polarization_overlap,
    sigma_emission,
)
from ionlink.errors import DomainError

from oracles import (
    cap_fraction_quadrature,
    cone_mixing_weight_quadrature,
    pattern_rows_per_point,
    sphere_average,
)

HALF_PI = math.pi / 2.0


class TestFieldComponents:
    def test_pi_in_observation_plane(self):
        v = pi_emission(EmissionDirection(HALF_PI, 0.0))
        assert v.e_theta == pytest.approx(-1.0, abs=1e-15)
        assert v.e_phi == 0.0

    def test_pi_vanishes_on_axis(self):
        v = pi_emission(EmissionDirection(0.0, 0.0))
        assert v.e_theta == 0.0 and v.e_phi == 0.0

    def test_pi_at_quarter_turn(self):
        v = pi_emission(EmissionDirection(math.pi / 4.0, 0.0))
        assert v.e_theta == pytest.approx(-0.7071067811865476, abs=1e-15)

    def test_sigma_on_axis_is_unit_intensity(self):
        v = sigma_emission(EmissionDirection(0.0, 0.0), +1)
        assert v.e_theta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert v.e_phi == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)
        assert v.intensity == pytest.approx(1.0, abs=1e-15)

    def test_sigma_in_plane_is_half_intensity(self):
        v = sigma_emission(EmissionDirection(HALF_PI, 0.0), +1)
        assert abs(v.e_theta) < 1e-16
        assert v.e_phi == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)
        assert v.intensity == pytest.approx(0.5, abs=1e-15)

    def test_sigma_azimuthal_phase(self):
        phi = 1.2345
        for sign in (+1, -1):
            v = sigma_emission(EmissionDirection(HALF_PI, phi), sign)
            assert v.e_phi == pytest.approx(
                cmath.exp(1j * sign * phi) * sign * 1j / math.sqrt(2.0), abs=1e-15
            )

    def test_pi_twice_sigma_in_plane(self):
        # fl(1/sqrt(2))^2 is one ulp off 0.5, so the factor 2 is exact to 1e-15
        d = EmissionDirection(HALF_PI, 0.3)
        ratio = pi_emission(d).intensity / sigma_emission(d, +1).intensity
        assert math.isclose(ratio, 2.0, rel_tol=1e-15)

    def test_bad_sign_rejected(self):
        with pytest.raises(DomainError):
            sigma_emission(EmissionDirection(1.0, 0.0), 2)

    def test_direction_range_enforced(self):
        with pytest.raises(DomainError):
            EmissionDirection(-0.1, 0.0)
        with pytest.raises(DomainError):
            EmissionDirection(1.0, 7.0)


class TestOverlap:
    def test_zero_in_observation_plane(self):
        # cos(pi/2) rounds to 6.1e-17, so the analytic zero appears at the 1e-16 level
        for sign in (+1, -1):
            assert abs(polarization_overlap(EmissionDirection(HALF_PI, 0.7), sign)) <= 1e-16

    def test_zero_on_axis(self):
        assert polarization_overlap(EmissionDirection(0.0, 0.0), +1) == 0.0
        assert abs(polarization_overlap(EmissionDirection(math.pi, 0.0), +1)) <= 1e-15

    def test_quarter_turn_value(self):
        value = polarization_overlap(EmissionDirection(math.pi / 4.0, 0.0), +1)
        assert value.real == pytest.approx(-0.3535533905932738, abs=1e-15)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            sign = int(rng.choice([-1, 1]))
            expected = -math.sin(theta) * math.cos(theta) * cmath.exp(1j * sign * phi) / math.sqrt(2.0)
            assert polarization_overlap(EmissionDirection(theta, phi), sign) == pytest.approx(
                expected, abs=1e-14
            )

    def test_continuous_and_nonzero_off_plane(self):
        assert abs(polarization_overlap(EmissionDirection(1.0, 0.0), +1)) > 0.1

    def test_intensity_closed_forms(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = float(rng.uniform(0.0, math.pi))
            d = EmissionDirection(theta, float(rng.uniform(0.0, 2.0 * math.pi)))
            assert pi_emission(d).intensity == pytest.approx(math.sin(theta) ** 2, abs=1e-14)
            assert sigma_emission(d, -1).intensity == pytest.approx(
                (1.0 + math.cos(theta) ** 2) / 2.0, abs=1e-14
            )


class TestIsotropyBudget:
    def test_pi_and_sigma_sphere_averages_match(self):
        pi_avg = sphere_average(lambda t: pi_emission(EmissionDirection(t, 0.0)).intensity)
        sigma_avg = sphere_average(lambda t: sigma_emission(EmissionDirection(t, 0.0), +1).intensity)
        assert pi_avg == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert sigma_avg == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert pi_avg == pytest.approx(sigma_avg, abs=1e-6)


class TestCollectionFraction:
    def test_quadratic_reference_point(self):
        assert collection_fraction(0.6, CollectionModel.QUADRATIC) == pytest.approx(0.09, abs=1e-15)

    def test_exact_reference_point(self):
        exact = collection_fraction(0.6, CollectionModel.EXACT_SOLID_ANGLE)
        assert exact == pytest.approx(0.1, abs=1e-12)

    def test_zero_aperture(self):
        for model in CollectionModel:
            assert collection_fraction(0.0, model) == 0.0

    def test_exact_at_least_quadratic(self):
        for na in np.linspace(0.01, 1.0, 100):
            exact = collection_fraction(float(na), CollectionModel.EXACT_SOLID_ANGLE)
            quad = collection_fraction(float(na), CollectionModel.QUADRATIC)
            assert exact >= quad

    def test_models_agree_at_small_aperture(self):
        exact = collection_fraction(0.05, CollectionModel.EXACT_SOLID_ANGLE)
        quad = collection_fraction(0.05, CollectionModel.QUADRATIC)
        assert exact / quad == pytest.approx(1.0, abs=1e-3)

    def test_exact_matches_quadrature_oracle(self):
        for na in (0.2, 0.6, 0.95):
            assert collection_fraction(na, CollectionModel.EXACT_SOLID_ANGLE) == pytest.approx(
                cap_fraction_quadrature(na), abs=1e-9
            )

    def test_exact_solid_angle_within_two_ulp(self):
        """Against a 50-digit decimal (1 - sqrt(1 - NA^2)) / 2: at NA 10^-k for
        k = 1..9, where the subtraction cancelled (it gave 0.0 at 1e-9), at
        random NAs, and at NAs just below 1, where 1 - NA^2 would cancel."""
        rng = random.Random(19)
        nas = ([10.0**-k for k in range(1, 10)] + [rng.random() for _ in range(500)]
               + [1.0 - rng.random() * 10.0 ** -rng.uniform(3, 15) for _ in range(500)] + [1.0])
        with localcontext() as ctx:
            ctx.prec = 50
            for na in nas:
                reference = (1 - (1 - Decimal(na) ** 2).sqrt()) / 2
                error = abs(Decimal(collection_fraction(na, "exact")) - reference)
                assert error <= 2 * Decimal(math.ulp(float(reference))), na

    def test_fraction_range_check(self):
        with pytest.raises(DomainError):
            collection_fraction(1.5)

    def test_string_aperture_is_a_type_error(self):
        """A numeric string is not an NA: it used to pass through ``float``."""
        for call in (collection_fraction, cone_mixing_weight):
            with pytest.raises(TypeError):
                call("0.5")

    def test_model_given_by_value(self):
        """The model's value selects the same formula as the member itself."""
        for model in CollectionModel:
            assert collection_fraction(0.6, model.value) == collection_fraction(0.6, model)
        assert collection_fraction(0.6, "quadratic") == pytest.approx(0.09, abs=1e-15)

    @pytest.mark.parametrize("model", ["bogus", "QUADRATIC", None, 1])
    def test_unknown_model_rejected(self, model):
        with pytest.raises(DomainError, match="unknown collection model"):
            collection_fraction(0.6, model)

    @pytest.mark.parametrize("na", [math.nan, math.inf, -math.inf])
    def test_non_finite_aperture_rejected(self, na):
        for call in (collection_fraction, cone_mixing_weight):
            with pytest.raises(DomainError, match="^NA out of range"):
                call(na)


class TestConeMixing:
    def test_monotone_in_aperture(self):
        values = [cone_mixing_weight(float(na)) for na in np.linspace(0.1, 1.0, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_vanishes_for_small_aperture(self):
        assert cone_mixing_weight(0.01) < 1e-4

    def test_matches_quadrature_within_two_ulp(self):
        """The closed form against a 40-digit quadrature of the cone average, at
        12 NAs from 1e-6 to 1; at NA 1 it is exactly 1/15."""
        for na in (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.99, 1.0 - 1e-8, 1.0):
            reference = cone_mixing_weight_quadrature(na)
            assert abs(cone_mixing_weight(na) - reference) <= 2 * math.ulp(float(reference)), na
        assert cone_mixing_weight(1.0) == 1.0 / 15.0


def axes(rows):
    """The theta and phi axes of pattern rows: the distinct values of the first
    two columns, theta read once per line of ``len(phis)`` rows."""
    phis = list(dict.fromkeys(row[1] for row in rows))
    return [row[0] for row in rows[::len(phis)]], phis


def count_and_last(rows):
    n, last = 0, None
    for last in rows:
        n += 1
    return n, last


class TestPatternRows:
    def test_grid_shape_and_columns(self):
        rows = list(pattern_rows(30.0, 60.0))
        assert len(rows) == 7 * 6
        theta, phi, i_pi, i_sp, i_sm, overlap_abs = rows[0]
        assert (theta, phi) == (0.0, 0.0)
        assert i_pi == 0.0
        assert i_sp == pytest.approx(1.0, abs=1e-15)
        assert i_sm == pytest.approx(1.0, abs=1e-15)
        assert overlap_abs == 0.0

    def test_sigma_plus_minus_intensities_equal(self):
        rows = list(pattern_rows(7.0, 13.0))
        assert len(rows) == 26 * 28
        assert bits([row[3] for row in rows]).tolist() == bits([row[4] for row in rows]).tolist()


def bits(rows):
    return np.array(rows, dtype=np.float64).view(np.uint64)


class TestPatternKernel:
    """The per-axis kernel against the point-by-point scalar loop, bit for bit."""

    @pytest.mark.parametrize("steps", [(1.0, 2.0), (5.0, 30.0), (7.0, 13.0), (0.7, 11.0)])
    def test_export_grids_bit_identical(self, steps):
        new = list(pattern_rows(*steps))
        assert bits(new).tolist() == bits(list(pattern_rows_per_point(*axes(new)))).tolist()
        assert all(type(v) is float for row in new[:50] for v in row)

    def test_random_steps_bit_identical(self):
        rng = np.random.default_rng(3)
        steps = [(180.0, 360.0), (1e300, 1e300), (179.9, 359.9), (90.0, 360.0 / 7.0),
                 *zip(rng.uniform(0.5, 40.0, 20).tolist(), rng.uniform(1.0, 90.0, 20).tolist())]
        for theta_step, phi_step in steps:
            new = list(pattern_rows(theta_step, phi_step))
            assert (bits(new) == bits(list(pattern_rows_per_point(*axes(new))))).all()

    def test_theta_factors_are_built_one_line_at_a_time(self):
        calls = []

        def recording_sin(theta):
            calls.append(theta)
            return math.sin(theta)

        # sin(theta) is the one theta factor nothing else in pattern_rows computes
        stand_in = types.SimpleNamespace(**{**vars(math), "sin": recording_sin})
        with mock.patch.object(emission, "math", stand_in):
            rows = pattern_rows(1.0, 2.0)  # 181 x 180 points
            first = next(rows)
            assert calls == [0.0]
            rows = [first, *rows]
        assert len(rows) == 181 * 180 > 4 * _BLOCK
        assert calls == axes(rows)[0]

    def test_is_a_generator_of_tuples(self):
        rows = pattern_rows(90.0, 360.0)
        assert iter(rows) is rows
        assert all(isinstance(row, tuple) and len(row) == 6 for row in rows)


class TestPatternGrid:
    def test_default_grid(self):
        thetas, phis = axes(list(pattern_rows(5.0, 30.0)))
        assert len(thetas) == 37 and thetas[-1] == math.pi
        assert len(phis) == 12 and phis[-1] == math.radians(330.0)

    @pytest.mark.parametrize("theta_step, n_theta", [(1.8e-4, 1_000_001), (3.6e-4, 500_001)])
    def test_step_a_rounding_error_short_of_dividing_180_keeps_the_pole(self, theta_step, n_theta):
        n_rows, last = count_and_last(pattern_rows(theta_step, 360.0))
        assert n_rows == n_theta and last[:2] == (math.pi, 0.0)

    def test_steps_that_do_not_divide_the_range(self):
        thetas, phis = axes(list(pattern_rows(7.0, 13.0)))
        assert thetas[-1] == math.radians(175.0)
        assert len(phis) == 28 and phis[-1] == math.radians(351.0)

    @pytest.mark.parametrize("theta_step, phi_step, name", [
        (math.nan, 1.0, "theta_step_deg"), (math.inf, 1.0, "theta_step_deg"),
        (0.0, 1.0, "theta_step_deg"), (1.0, -2.0, "phi_step_deg"),
        (1.0, math.nan, "phi_step_deg"), (1.0, -math.inf, "phi_step_deg"),
        (1e-320, 1.0, "theta_step_deg"), (1.0, 1e-320, "phi_step_deg"),
        (1e-300, 1.0, "theta_step_deg"), (0.0001, 30.0, "theta_step_deg"),
        (0.01, 1.0, "phi_step_deg"),  # 18001 x 360 rows: the cap is on the product
    ])
    def test_non_finite_or_non_positive_steps_rejected(self, theta_step, phi_step, name):
        rows = pattern_rows(theta_step, phi_step)  # checked when the first row is pulled
        with pytest.raises(DomainError, match=name):
            next(rows)
