import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ionlink.atomic import default_barium_model
from ionlink.emission import CollectionModel
from ionlink.errors import DomainError
from ionlink.pump_cycle import PumpCycleConfig, solve_exact
from ionlink.schemes import (
    D_SHELVING,
    SCHEMES,
    STRONG,
    WEAK,
    SchemeSpec,
    entanglement_probability,
    fidelity_at_na,
    fidelity_curve,
    mixture_fidelity,
    probability_curve,
    scheme_comparison,
)

from oracles import bell_mixture_fidelity

# frozen from the normalized-weight identity
MIXTURE_FIDELITY = 0.8912354804646252


class TestMixture:
    def test_reference_weights(self):
        assert mixture_fidelity(0.844, 0.103) == MIXTURE_FIDELITY
        assert MIXTURE_FIDELITY == pytest.approx(0.891, abs=2e-3)

    def test_pure_limits_are_exact(self):
        assert mixture_fidelity(0.3, 0.0) == 1.0  # the density-matrix form gives 1 - 4.4e-16
        assert mixture_fidelity(0.0, 0.3) == 0.0

    def test_even_mixture(self):
        assert mixture_fidelity(0.5, 0.5) == 0.5

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))  # subnormals included
    @example(5e-324, 0.0)
    @example(0.0, 5e-324)
    @example(1e-310, 1.0)
    @example(1.0, 1e-310)
    @example(5e-324, 5e-324)
    @example(1.0, 0.0)
    @example(0.0, 1.0)
    def test_matches_the_density_matrix_form(self, p_good, p_bad):
        assume(p_good or p_bad)
        value = mixture_fidelity(p_good, p_bad)
        assert abs(bell_mixture_fidelity(p_good, p_bad) - value) <= 4 * math.ulp(value)


class TestFidelityVsAperture:
    def test_reference_points(self):
        assert fidelity_at_na(0.89, 0.6) == pytest.approx(0.8684, abs=1e-12)
        assert fidelity_at_na(1.0, 0.6) == pytest.approx(0.9784, abs=1e-12)

    def test_zero_aperture_is_exact_identity(self):
        for f in (0.5, 0.891, 1.0):
            assert fidelity_at_na(f, 0.0) == f

    def test_full_aperture_penalty_is_exact(self):
        for f in (0.5, 0.891, 1.0):
            assert fidelity_at_na(f, 1.0) == f - 0.06

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [fidelity_at_na(0.891, float(na)) for na in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEntanglementProbability:
    def test_reference_points(self):
        assert entanglement_probability(D_SHELVING, 0.6) == pytest.approx(0.08523, rel=1e-12)
        assert entanglement_probability(STRONG, 0.6) == pytest.approx(0.065736, rel=1e-12)
        assert entanglement_probability(WEAK, 0.6) == pytest.approx(0.0131472, rel=1e-12)

    def test_zero_aperture(self):
        for spec in (D_SHELVING, WEAK, STRONG):
            assert entanglement_probability(spec, 0.0) == 0.0

    def test_quadratic_scaling_is_exact(self):
        for na in (0.05, 0.125, 0.2, 0.31, 0.5):
            assert entanglement_probability(D_SHELVING, 2.0 * na) == 4.0 * entanglement_probability(
                D_SHELVING, na
            )

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [entanglement_probability(STRONG, float(na)) for na in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSchemeTable:
    def test_canonical_operating_points(self):
        assert D_SHELVING.excite_prob * D_SHELVING.s_decay_prob == pytest.approx(0.947, abs=1e-12)
        assert WEAK.excite_prob * WEAK.s_decay_prob == pytest.approx(0.14608, rel=1e-12)
        assert STRONG.excite_prob * STRONG.s_decay_prob == pytest.approx(0.7304, rel=1e-12)
        assert WEAK.max_fidelity == 1.0 and STRONG.max_fidelity == 1.0
        assert D_SHELVING.max_fidelity == 0.891

    def test_comparison_at_reference_aperture(self):
        rows = {r.scheme: r for r in scheme_comparison(0.6)}
        assert rows["d-shelving"].probability == pytest.approx(0.08523, rel=1e-12)
        assert rows["d-shelving"].fidelity == pytest.approx(0.8694, abs=1e-12)
        assert rows["weak"].probability == pytest.approx(0.0131472, rel=1e-12)
        assert rows["weak"].fidelity == pytest.approx(0.9784, abs=1e-12)
        assert rows["strong"].probability == pytest.approx(0.065736, rel=1e-12)

    def test_zero_aperture_rows(self):
        for row in scheme_comparison(0.0):
            assert row.probability == 0.0
            assert row.fidelity == SCHEMES[row.scheme].max_fidelity

    def test_exact_collection_variant_is_larger(self):
        quad = {r.scheme: r for r in scheme_comparison(0.6)}
        exact = {r.scheme: r for r in scheme_comparison(0.6, CollectionModel.EXACT_SOLID_ANGLE)}
        for name in quad:
            assert exact[name].probability > quad[name].probability

    def test_d_shelving_row_is_the_paper_row_not_the_chain(self):
        """The row adds the probability of ever reaching the wrong P1/2 sublevel
        (0.103) to p_good; the absorbing chain counts only photons emitted
        from it, so its success and good weight differ from the row's."""
        model = default_barium_model()
        chain = solve_exact(PumpCycleConfig(model=model))
        success = chain.p_good + chain.p_bad
        assert success == pytest.approx(0.92363, abs=5e-6)
        assert chain.p_good / success == pytest.approx(0.91400, abs=5e-6)
        assert (D_SHELVING.s_decay_prob, D_SHELVING.max_fidelity) == (0.947, 0.891)
        ever_bad = (model.br_650 / 3.0) / (1.0 - model.br_650 / 2.0)
        assert chain.p_good + ever_bad == pytest.approx(D_SHELVING.s_decay_prob, abs=2e-3)
        assert D_SHELVING.s_decay_prob - success == pytest.approx(0.02337, abs=5e-5)
        assert D_SHELVING.max_fidelity - chain.p_good / success == pytest.approx(-0.02300, abs=5e-5)


class TestCurves:
    def test_fidelity_curve_grid(self):
        curve = list(fidelity_curve(0.891, 0.01))
        assert len(curve) == 101
        assert curve[0] == (0.0, 0.891)
        assert curve[-1][0] == pytest.approx(1.0, abs=1e-12)
        assert curve[-1][1] == pytest.approx(0.831, abs=1e-12)

    def test_probability_curve_grid(self):
        curve = list(probability_curve(STRONG, 0.1))
        assert len(curve) == 11
        assert curve[0][1] == 0.0
        assert curve[-1][1] == pytest.approx(STRONG.excite_prob * STRONG.s_decay_prob / 4.0, rel=1e-12)

    @pytest.mark.parametrize("step, n_rows", [(0.6, 2), (0.65, 2), (0.18, 6), (0.15, 7)])
    def test_grid_stops_at_na_one(self, step, n_rows):
        """Steps that do not divide 1 stop at the last multiple below it, and
        each printed NA is the one evaluated."""
        fidelities = list(fidelity_curve(0.891, step))
        probabilities = list(probability_curve(STRONG, step))
        assert [na for na, _ in fidelities] == [na for na, _ in probabilities]
        assert len(fidelities) == n_rows
        for i, (na, value) in enumerate(fidelities):
            assert na == pytest.approx(i * step, rel=1e-12) and na <= 1.0
            assert value == fidelity_at_na(0.891, na)
        for na, value in probabilities:
            assert value == entanglement_probability(STRONG, na)

    def test_point_within_tolerance_of_one_is_na_one(self):
        step = 0.3333333334  # three steps overshoot 1 by 2e-10, inside the grid tolerance
        assert list(fidelity_curve(0.891, step))[-1] == (1.0, fidelity_at_na(0.891, 1.0))
        assert list(probability_curve(STRONG, step))[-1] == (1.0, entanglement_probability(STRONG, 1.0))

    @pytest.mark.parametrize("collection", list(CollectionModel))
    def test_rows_bit_identical_to_per_point_functions(self, collection):
        """The curves check their inputs once per grid; every row keeps the bits
        of fidelity_at_na and entanglement_probability at that NA."""
        rng = random.Random(20261018)
        for _ in range(40):
            step = 10 ** rng.uniform(-3, 0)
            f_max = rng.random()
            spec = SchemeSpec("random", rng.random(), rng.random(), f_max)
            fidelities = list(fidelity_curve(f_max, step, collection))
            probabilities = list(probability_curve(spec, step, collection))
            assert [na for na, _ in fidelities] == [na for na, _ in probabilities]
            assert fidelities == [(na, fidelity_at_na(f_max, na, collection)) for na, _ in fidelities]
            assert probabilities == [(na, entanglement_probability(spec, na, collection))
                                     for na, _ in probabilities]

    def test_collection_model_given_by_value(self):
        for model in CollectionModel:
            assert list(fidelity_curve(0.891, 0.1, model.value)) == list(
                fidelity_curve(0.891, 0.1, model))
            assert list(probability_curve(STRONG, 0.1, model.value)) == list(
                probability_curve(STRONG, 0.1, model))
            assert fidelity_at_na(0.891, 0.6, model.value) == fidelity_at_na(0.891, 0.6, model)
            assert entanglement_probability(STRONG, 0.6, model.value) == entanglement_probability(
                STRONG, 0.6, model)

    def test_unknown_collection_model_rejected(self):
        for call in (lambda: list(fidelity_curve(0.891, 0.1, "bogus")),
                     lambda: list(probability_curve(STRONG, 0.1, "bogus")),
                     lambda: fidelity_at_na(0.891, 0.6, "bogus"),
                     lambda: entanglement_probability(STRONG, 0.6, "bogus"),
                     lambda: scheme_comparison(0.6, "bogus")):
            with pytest.raises(DomainError, match="unknown collection model 'bogus'"):
                call()
        with pytest.raises(DomainError, match="na_step"):  # the step is checked first
            list(fidelity_curve(0.891, 0.0, "bogus"))
