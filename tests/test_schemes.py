import math
import random

import numpy as np
import pytest

from ionlink.atomic import BranchingModel, default_barium_model
from ionlink.emission import CollectionModel
from ionlink.errors import DomainError
from ionlink.pump_cycle import PumpCycleConfig, solve_exact
from ionlink.schemes import (
    D_SHELVING,
    SCHEMES,
    STRONG,
    WEAK,
    CycleAmplitudes,
    SchemeSpec,
    TwoQubitState,
    bad_state,
    double_excitation_probability,
    entanglement_probability,
    fidelity,
    fidelity_at_na,
    fidelity_curve,
    geometric_branch_probabilities,
    good_state,
    probability_curve,
    reexcitation_mixture,
    scheme_comparison,
)

from oracles import geometric_p_good, random_branching_model

# frozen from the term-by-term series and the normalized-weight identity
P_GOOD_DEFAULT = 0.844197873324087
P_BAD_CLOSED_FORM_DEFAULT = 0.06872673460840428
MIXTURE_FIDELITY = 0.8912354804646252


class TestBellPairings:
    def test_traces(self):
        assert np.trace(good_state().rho).real == pytest.approx(1.0, abs=1e-15)
        assert np.trace(bad_state().rho).real == pytest.approx(1.0, abs=1e-15)

    def test_purity(self):
        assert good_state().purity == pytest.approx(1.0, abs=1e-12)
        assert bad_state().purity == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(good_state(), bad_state()) == pytest.approx(0.0, abs=1e-15)
        assert fidelity(bad_state(), good_state()) == pytest.approx(0.0, abs=1e-15)

    def test_self_fidelity(self):
        assert fidelity(good_state(), good_state()) == pytest.approx(1.0, abs=1e-12)

    def test_pairings_use_the_right_slots(self):
        # good pairs H with 0 and V with 1 in the (H0, H1, V0, V1) ordering
        rho = good_state().rho
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-15)
        assert rho[3, 3].real == pytest.approx(0.5, abs=1e-15)
        assert rho[1, 1].real == 0.0 and rho[2, 2].real == 0.0


class TestStateValidation:
    def test_trace_enforced(self):
        with pytest.raises(DomainError):
            TwoQubitState(np.eye(4) * 0.5)

    def test_hermiticity_enforced(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.3
        with pytest.raises(DomainError):
            TwoQubitState(rho)

    def test_positivity_enforced(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(DomainError):
            TwoQubitState(rho)

    def test_matrix_is_frozen(self):
        state = good_state()
        with pytest.raises(ValueError):
            state.rho[0, 0] = 9.0

    def test_fidelity_requires_pure_target(self):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4.0)
        with pytest.raises(DomainError):
            fidelity(mixed, good_state())


class TestGeometricBranches:
    def test_default_good_branch(self):
        model = default_barium_model()
        amps = CycleAmplitudes.from_model(model)
        result = geometric_branch_probabilities(model, amps)
        assert result.p_good == pytest.approx(P_GOOD_DEFAULT, rel=1e-12)
        assert result.p_good == pytest.approx(0.844, abs=1e-3)

    def test_good_branch_matches_series_oracle(self):
        model = default_barium_model()
        amps = CycleAmplitudes.from_model(model)
        series = geometric_p_good(model.br_493, model.br_650, amps.reinit**2)
        assert geometric_branch_probabilities(model, amps).p_good == pytest.approx(
            series, rel=1e-12
        )

    def test_default_bad_branch_closed_form(self):
        model = default_barium_model()
        amps = CycleAmplitudes.from_model(model)
        result = geometric_branch_probabilities(model, amps)
        assert result.p_bad == pytest.approx(P_BAD_CLOSED_FORM_DEFAULT, rel=1e-12)

    def test_default_amplitude_squares(self):
        amps = CycleAmplitudes.from_model(default_barium_model())
        assert amps.reinit**2 == pytest.approx(0.5, abs=1e-12)
        assert amps.crossover**2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert amps.bad_loop**2 == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_zero_amplitudes_collapse_to_single_attempt(self):
        model = default_barium_model()
        result = geometric_branch_probabilities(model, CycleAmplitudes(0.0, 0.0, 0.0))
        assert result.p_good == model.br_493
        assert result.p_bad == 0.0
        assert result.p_dark == pytest.approx(model.br_650, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        model = default_barium_model()
        amps = CycleAmplitudes.from_model(model)
        result = geometric_branch_probabilities(model, amps)
        assert result.p_good + result.p_bad + result.p_dark == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_bounds_checked(self):
        with pytest.raises(DomainError):
            CycleAmplitudes(1.2, 0.0, 0.0)

    def test_probabilities_lie_in_the_unit_interval_for_any_accepted_input(self):
        """Random models and amplitudes inside their bounds, the edges included:
        reinit 1 gives br_493 / (1 - br_650), which rounds to 1 + 2e-16 on some
        models, and an amplitude at the 1e-12 tolerance overshoots further."""
        rng = np.random.default_rng(19)
        edge = math.sqrt(1.0 + 1e-12)
        for i in range(3_000):
            model = random_branching_model(rng)
            reinit_sq = float(rng.uniform(0.0, 1.0))
            crossover_sq = float(rng.uniform(0.0, 1.0 - reinit_sq))
            reinit, crossover, bad_loop = (math.sqrt(reinit_sq), math.sqrt(crossover_sq),
                                           math.sqrt(float(rng.uniform(0.0, 1.0))))
            kind = i % 6
            if kind == 0:
                reinit, crossover = 1.0, 0.0
            elif kind == 1:
                crossover = math.sqrt(1.0 - reinit_sq)  # the shelf's sum of 1
            elif kind == 2:
                bad_loop = 1.0
            elif kind == 3:
                reinit, crossover, bad_loop = edge, 0.0, edge
            elif kind == 4:
                reinit, crossover, bad_loop = 0.0, edge, 1.0
            signs = rng.choice([-1.0, 1.0], size=3).tolist()
            amps = CycleAmplitudes(*(s * a for s, a in zip(signs, (reinit, crossover, bad_loop))))
            result = geometric_branch_probabilities(model, amps)
            assert all(0.0 <= p <= 1.0 for p in result), (model, amps, result)
            assert sum(result) == pytest.approx(1.0, abs=1e-12)

    def test_divergent_series_rejected(self):
        model = default_barium_model()
        all_to_shelf = BranchingModel(
            br_493=0.0, br_650=1.0, cg=dict(model.cg)
        )
        with pytest.raises(DomainError):
            geometric_branch_probabilities(all_to_shelf, CycleAmplitudes(1.0, 0.0, 0.0))


class TestMixture:
    def test_reference_weights(self):
        state = reexcitation_mixture(0.844, 0.103)
        assert fidelity(good_state(), state) == pytest.approx(MIXTURE_FIDELITY, abs=1e-12)
        assert fidelity(good_state(), state) == pytest.approx(0.891, abs=2e-3)

    def test_pure_limit(self):
        assert fidelity(good_state(), reexcitation_mixture(0.3, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_even_mixture(self):
        assert fidelity(good_state(), reexcitation_mixture(0.5, 0.5)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_weight_identity_over_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p_g, p_b = rng.uniform(0.01, 1.0, size=2)
            state = reexcitation_mixture(p_g, p_b)
            assert fidelity(good_state(), state) == pytest.approx(
                p_g / (p_g + p_b), abs=1e-14
            )

    def test_mixture_state_is_valid(self):
        state = reexcitation_mixture(0.844, 0.103)
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        assert state.purity < 1.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError):
            reexcitation_mixture(0.0, 0.0)
        with pytest.raises(DomainError):
            reexcitation_mixture(-0.1, 0.5)
        with pytest.raises(DomainError, match="p_bad"):
            reexcitation_mixture(0.5, math.nan)


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

    def test_range_check(self):
        with pytest.raises(DomainError):
            fidelity_at_na(0.9, 1.5)
        with pytest.raises(DomainError):
            fidelity_at_na(0.9, -0.1)
        for max_fidelity in (math.nan, math.inf, 7.0, -0.1):
            with pytest.raises(DomainError, match="max_fidelity"):
                fidelity_at_na(max_fidelity, 0.5)


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

    def test_range_check(self):
        with pytest.raises(DomainError):
            entanglement_probability(WEAK, 1.01)


class TestDoubleExcitation:
    def test_zero_duration(self):
        assert double_excitation_probability(0.0, 1e-8) == 0.0

    def test_one_lifetime(self):
        assert double_excitation_probability(1.0, 1.0) == pytest.approx(
            0.6321205588285577, rel=1e-12
        )

    def test_long_exposure_saturates(self):
        assert double_excitation_probability(1000.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_duration(self):
        durations = np.linspace(0.0, 5.0, 40)
        values = [double_excitation_probability(float(t), 1.0) for t in durations]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_lifetime_rejected(self):
        with pytest.raises(DomainError):
            double_excitation_probability(1.0, 0.0)
        with pytest.raises(DomainError):
            double_excitation_probability(-1.0, 1.0)
        with pytest.raises(DomainError, match="lifetime_s"):
            double_excitation_probability(1.0, math.nan)
        with pytest.raises(DomainError, match="pulse_duration_s"):
            double_excitation_probability(math.inf, 1.0)


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

    def test_spec_bounds(self):
        with pytest.raises(DomainError):
            SchemeSpec("broken", 1.2, 0.5, 0.9)
        with pytest.raises(DomainError, match="max_fidelity"):
            SchemeSpec("broken", 1.0, 0.5, math.nan)

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

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            list(fidelity_curve(0.9, 0.0))
        with pytest.raises(DomainError, match="na_step"):  # the step is checked first
            list(fidelity_curve(1.5, 0.0))
        with pytest.raises(DomainError, match="max_fidelity"):
            list(fidelity_curve(1.5, 0.1))
        with pytest.raises(DomainError, match="na_step"):
            list(probability_curve(STRONG, 1e-320))
        for step in (1e-300, 1e-7, 2.0, math.nan):
            with pytest.raises(DomainError, match="na_step"):
                list(fidelity_curve(0.9, step))
