import inspect
import math
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlink import pump_cycle
from ionlink.atomic import (
    BranchingModel,
    Level,
    Polarization,
    ZeemanState,
    default_barium_model,
    drive_target,
)
from ionlink.errors import DomainError, NumericError
from ionlink.pump_cycle import (
    ChainOutcome,
    PumpCycleConfig,
    geometric_branch_probabilities,
    simulate,
    solve_exact,
)

from oracles import (
    geometric_p_good,
    philox4x64_10,
    pump_cycle_power_iteration,
    random_branching_model,
    solve_fractions,
)

# frozen from the 9-state power-iteration oracle
EXACT_P_GOOD = 0.8441978733240868
EXACT_P_BAD = 0.07943450601988476
EXACT_P_DARK = 0.07636762065602828

# the closed form on the default model, frozen
CLOSED_FORM = ChainOutcome(0.844197873324087, 0.06872673460840428, 0.0870753920675087)

D = lambda m: ZeemanState(Level.D32, m)  # noqa: E731
P_PLUS, P_MINUS = ZeemanState(Level.P12, +0.5), ZeemanState(Level.P12, -0.5)


class TestConfig:
    def test_defaults(self):
        config = PumpCycleConfig()
        assert config.initial == D(+1.5)
        assert config.drive is Polarization.SIGMA_MINUS

    def test_initial_must_be_shelf(self):
        with pytest.raises(DomainError):
            PumpCycleConfig(initial=ZeemanState(Level.S12, 0.5))


class TestSolveExact:
    def test_default_barium_values(self):
        outcome = solve_exact(PumpCycleConfig())
        assert outcome.p_good == pytest.approx(EXACT_P_GOOD, rel=1e-12)
        assert outcome.p_bad == pytest.approx(EXACT_P_BAD, rel=1e-12)
        assert outcome.p_dark == pytest.approx(EXACT_P_DARK, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        outcome = solve_exact(PumpCycleConfig())
        assert outcome.p_good + outcome.p_bad + outcome.p_dark == pytest.approx(1.0, abs=1e-9)

    def test_matches_power_iteration_oracle_on_default(self):
        config = PumpCycleConfig()
        oracle = pump_cycle_power_iteration(config.model, config.initial, config.drive)
        outcome = solve_exact(config)
        assert outcome.p_good == pytest.approx(oracle[0], abs=1e-12)
        assert outcome.p_bad == pytest.approx(oracle[1], abs=1e-12)
        assert outcome.p_dark == pytest.approx(oracle[2], abs=1e-12)

    def test_matches_power_iteration_on_random_models(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            model = random_branching_model(rng)
            config = PumpCycleConfig(model=model)
            oracle = pump_cycle_power_iteration(model, config.initial, config.drive)
            outcome = solve_exact(config)
            assert outcome.p_good == pytest.approx(oracle[0], abs=1e-11)
            assert outcome.p_bad == pytest.approx(oracle[1], abs=1e-11)
            assert outcome.p_dark == pytest.approx(oracle[2], abs=1e-11)

    def test_no_shelving_means_certain_good_photon(self):
        model = default_barium_model()
        cg = {k: v for k, v in model.cg.items()}
        no_shelf = BranchingModel(br_493=1.0, br_650=0.0, cg=cg)
        outcome = solve_exact(PumpCycleConfig(model=no_shelf))
        assert outcome == ChainOutcome(1.0, 0.0, 0.0)

    def test_undrivable_initial_state_goes_dark(self):
        outcome = solve_exact(PumpCycleConfig(initial=D(-1.5)))
        assert outcome == ChainOutcome(0.0, 0.0, 1.0)

    def test_mirrored_drive_gives_same_numbers(self):
        minus = solve_exact(PumpCycleConfig())
        plus = solve_exact(
            PumpCycleConfig(initial=D(-1.5), drive=Polarization.SIGMA_PLUS)
        )
        assert plus.p_good == pytest.approx(minus.p_good, rel=1e-12)
        assert plus.p_bad == pytest.approx(minus.p_bad, rel=1e-12)

    def test_correctly_rounded_on_random_models(self, monkeypatch):
        """Each probability is the exact solution of the chain's system, solved
        over Fractions here, rounded once: ``float(Fraction)`` rounds correctly,
        so equality means correctly rounded.  The spy keeps each system that
        ``solve_exact`` builds, with its solution."""
        solves, solve_2x2 = [], pump_cycle._solve_2x2

        def spy(a, b):
            solves.append((a, b, solve_2x2(a, b)))
            return solves[-1][2]

        monkeypatch.setattr(pump_cycle, "_solve_2x2", spy)
        rng = np.random.default_rng(13)
        for _ in range(2_000):
            model = random_branching_model(rng)
            for drive in (Polarization.SIGMA_MINUS, Polarization.SIGMA_PLUS):
                for mj in (1.5, 0.5, -0.5, -1.5):
                    outcome = solve_exact(PumpCycleConfig(initial=D(mj), drive=drive, model=model))
                    start = drive_target(D(mj), drive)
                    if start is None:  # no solve: the drive cannot address the shelf sublevel
                        assert outcome == ChainOutcome(0.0, 0.0, 1.0)
                        continue
                    a, r, solved = solves.pop()
                    expected = [[float(x) for x in row] for row in solve_fractions(a, r)]
                    assert solved == expected, (a, r)
                    # solve_exact returns the initial state's row of that solve
                    row = expected[[P_PLUS, P_MINUS].index(start)]
                    assert [outcome.p_good, outcome.p_bad, outcome.p_dark] == row

    def test_solution_past_the_float_range_is_refused(self):
        """Under a pi drive the P1/2 sublevels feed each other, so ``I - Q`` can be
        nearly singular without being triangular: here its determinant is minus
        the product of two 5e-324 couplings, and the exact p_dark is -2e634."""
        cg = {k: v for k, v in default_barium_model().cg.items() if k[1].level is Level.S12}
        cg.update({(P_PLUS, D(+0.5)): 1.0, (P_PLUS, D(-0.5)): 2.3e-162,
                   (P_PLUS, D(+1.5)): 0.999e-6, (P_MINUS, D(+0.5)): 2.3e-162,
                   (P_MINUS, D(-0.5)): math.sqrt(0.5), (P_MINUS, D(-1.5)): math.sqrt(0.5)})
        model = BranchingModel(br_493=0.0, br_650=1.0, cg=cg)
        config = PumpCycleConfig(initial=D(+0.5), drive=Polarization.PI, model=model)
        with pytest.raises(NumericError, match="too nearly closed to solve"):
            solve_exact(config)


def with_shelf_amplitudes(model, plus, minus):
    """``model`` with the D3/2 amplitudes of P1/2 +1/2 (to m = +3/2, +1/2, -1/2) set to
    ``plus``, and those of P1/2 -1/2 (to m = +1/2, -1/2, -3/2) to ``minus``."""
    cg = dict(model.cg)
    for upper, ms, amps in ((P_PLUS, (1.5, 0.5, -0.5), plus), (P_MINUS, (0.5, -0.5, -1.5), minus)):
        cg.update({(upper, D(m)): amp for m, amp in zip(ms, amps)})
    return BranchingModel(model.br_493, model.br_650, cg)


class TestGeometricBranches:
    def test_default_model_values(self):
        assert geometric_branch_probabilities(default_barium_model()) == CLOSED_FORM
        assert CLOSED_FORM.p_good == pytest.approx(0.844, abs=1e-3)

    def test_default_amplitude_squares(self):
        model = default_barium_model()
        assert model.amplitude(P_PLUS, D(+1.5)) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert model.amplitude(P_PLUS, D(+0.5)) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert model.amplitude(P_MINUS, D(+0.5)) ** 2 == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_good_branch_matches_series_oracle(self):
        model = default_barium_model()
        series = geometric_p_good(model.br_493, model.br_650, model.amplitude(P_PLUS, D(1.5)) ** 2)
        assert geometric_branch_probabilities(model).p_good == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize(
        "kind", ["random", "reinit_one", "bad_loop_one", "shelf_squares_at_edge",
                 "crossover_at_edge"])
    def test_probabilities_lie_in_the_unit_interval_for_any_accepted_model(self, kind):
        """Random models, and the edges that BranchingModel accepts: reinit 1 gives
        br_493 / (1 - br_650), which rounds to 1 + 2e-16 on some models, and shelf
        squares summing to just under the model's 1 + 1e-12 overshoot further."""
        rng = np.random.default_rng(19)
        edge = 1.0 + 0.999e-12
        for _ in range(600):
            model = random_branching_model(rng)
            share = float(rng.uniform(0.0, 1.0))
            sign = lambda: float(rng.choice([-1.0, 1.0]))  # noqa: E731
            if kind == "reinit_one":
                model = with_shelf_amplitudes(model, (sign(), 0.0, 0.0), (0.0, sign(), 0.0))
            elif kind == "bad_loop_one":
                model = with_shelf_amplitudes(model, (0.0, 0.0, sign()), (sign(), 0.0, 0.0))
            elif kind == "shelf_squares_at_edge":
                model = with_shelf_amplitudes(
                    model, (sign() * math.sqrt(share * edge),
                            sign() * math.sqrt((1.0 - share) * edge), 0.0),
                    (sign() * math.sqrt(edge), 0.0, 0.0))
            elif kind == "crossover_at_edge":  # bad_loop 1 as well
                model = with_shelf_amplitudes(
                    model, (0.0, sign() * math.sqrt(edge), 0.0), (sign(), 0.0, 0.0))
            result = geometric_branch_probabilities(model)
            probabilities = (result.p_good, result.p_bad, result.p_dark)
            assert all(0.0 <= p <= 1.0 for p in probabilities), (model, result)
            assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitudes_collapse_to_single_attempt(self):
        model = with_shelf_amplitudes(default_barium_model(), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        result = geometric_branch_probabilities(model)
        assert result.p_good == model.br_493
        assert result.p_bad == 0.0
        assert result.p_dark == pytest.approx(model.br_650, abs=1e-12)

    def test_good_branch_matches_exact_chain_across_random_models(self):
        """P1/2 +1/2 is fed only from D3/2 +3/2, so the good branch's series is exact."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_branching_model(rng)
            closed = geometric_branch_probabilities(model)
            exact = solve_exact(PumpCycleConfig(model=model))
            assert closed.p_good == pytest.approx(exact.p_good, abs=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, upper, lower", [
        ("reinit", P_PLUS, D(+1.5)), ("crossover", P_PLUS, D(+0.5)),
        ("bad_loop", P_MINUS, D(+0.5))])
    def test_no_model_carries_a_non_finite_cycle_amplitude(self, name, upper, lower, value):
        cg = dict(default_barium_model().cg)
        cg[(upper, lower)] = value
        with pytest.raises(DomainError, match="non-finite amplitude"):
            BranchingModel(0.7304, 0.2696, cg)

    @pytest.mark.parametrize("plus, minus, upper", [
        ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), "+1/2"),  # reinit and crossover squares sum to 2
        ((0.0, 0.0, 1.0), (0.8, -0.7, 0.0), "-1/2"),  # bad_loop shelf overfilled
    ])
    def test_no_model_overfills_a_shelf(self, plus, minus, upper):
        with pytest.raises(DomainError, match=re.escape(f"from P12 {upper} into D32 sum to ")):
            with_shelf_amplitudes(default_barium_model(), plus, minus)

    def test_divergent_series_rejected(self):
        model = default_barium_model()
        reinit_one = with_shelf_amplitudes(model, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        all_to_shelf = BranchingModel(br_493=0.0, br_650=1.0, cg=reinit_one.cg)
        with pytest.raises(DomainError, match="does not converge"):
            geometric_branch_probabilities(all_to_shelf)


class TestSimulate:
    def test_single_trajectory_is_one_hot(self):
        for seed in range(6):
            outcome = simulate(PumpCycleConfig(), n_trials=1, seed=seed)
            assert (outcome.p_good, outcome.p_bad, outcome.p_dark) in {
                (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0),
                (0.0, 0.0, 1.0),
            }

    def test_bit_identical_for_same_seed(self):
        a = simulate(PumpCycleConfig(), n_trials=20_000, seed=42)
        b = simulate(PumpCycleConfig(), n_trials=20_000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate(PumpCycleConfig(), n_trials=20_000, seed=1)
        b = simulate(PumpCycleConfig(), n_trials=20_000, seed=2)
        assert a != b

    def test_worker_count_does_not_change_results(self):
        reference = simulate(PumpCycleConfig(), n_trials=50_001, seed=9, workers=1)
        for workers in (2, 3, 7):
            assert simulate(PumpCycleConfig(), n_trials=50_001, seed=9, workers=workers) == reference

    def test_agrees_with_exact_within_three_sigma(self):
        exact = solve_exact(PumpCycleConfig())
        mc = simulate(PumpCycleConfig(), n_trials=1_000_000, seed=2024)
        for name in ("p_good", "p_bad", "p_dark"):
            se = max(getattr(mc, name.replace("p_", "se_")), 1e-9)
            assert abs(getattr(mc, name) - getattr(exact, name)) < 3.0 * se

    def test_geometric_closed_form_within_mc_errors(self):
        closed = geometric_branch_probabilities(default_barium_model())
        mc = simulate(PumpCycleConfig(), n_trials=1_000_000, seed=77)
        assert abs(closed.p_good - mc.p_good) < 3.0 * mc.se_good

    def test_agrees_with_exact_across_random_models(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        for i in range(20):
            model = random_branching_model(rng)
            config = PumpCycleConfig(model=model)
            exact = solve_exact(config)
            mc = simulate(config, n_trials=n, seed=1000 + i)
            for name in ("p_good", "p_bad", "p_dark"):
                p_true = getattr(exact, name)
                se = max((p_true * (1.0 - p_true) / n) ** 0.5, 1.0 / n)
                assert abs(getattr(mc, name) - p_true) < 3.0 * se

    def test_single_cycle_truncation(self):
        # one cycle only: emission probability is the bare ground-state branching
        mc = simulate(PumpCycleConfig(), n_trials=200_000, seed=11, max_cycles=1)
        assert mc.p_bad == 0.0
        se = max(mc.se_good, 1e-9)
        assert abs(mc.p_good - 0.7304) < 3.0 * se

    def test_emission_grows_with_cycle_budget(self):
        totals = []
        for cycles in (1, 2, 3, 5, 10, 50):
            mc = simulate(PumpCycleConfig(), n_trials=100_000, seed=4, max_cycles=cycles)
            totals.append(mc.p_good + mc.p_bad)
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_standard_errors_follow_binomial_formula(self):
        mc = simulate(PumpCycleConfig(), n_trials=10_000, seed=3)
        assert mc.se_good == pytest.approx(
            (mc.p_good * (1.0 - mc.p_good) / 10_000) ** 0.5, rel=1e-12
        )

    def test_estimates_have_the_bits_numpy_gave(self, monkeypatch):
        """Each count and ``n_trials`` are rounded to floats, then divided, as
        numpy's ``counts / n_trials`` did; past 2**53 a Python ``int / int``,
        rounded once, differs.  The standard errors follow ``np.sqrt``."""
        rng = random.Random(14)
        counts = []
        monkeypatch.setattr(pump_cycle, "_walk_in_threads", lambda walker, groups: counts)
        for bits in range(1, 64):
            for _ in range(10):
                n = rng.randrange(1, 2**bits)
                good = rng.randint(0, n)
                counts[:] = [good, rng.randint(0, n - good)]
                mc = simulate(PumpCycleConfig(), n_trials=n, seed=0)
                p = np.array([*counts, n - sum(counts)], dtype=np.int64) / n
                se = np.sqrt(p * (1.0 - p) / n)
                assert [mc.p_good, mc.p_bad, mc.p_dark, mc.se_good, mc.se_bad, mc.se_dark] == [
                    *p.tolist(), *se.tolist()], (n, counts)

    @pytest.mark.parametrize("br_650", (0.0, 1e-17, 1e-300))
    def test_negligible_shelving_means_good_photon(self, br_650):
        # the S channels fill the unit interval, so the shelf channels' edges
        # sit at (or round to) 1.0, which no deviate reaches
        model = BranchingModel(br_493=1.0 - br_650, br_650=br_650, cg=default_barium_model().cg)
        for workers in (1, 2):
            mc = simulate(PumpCycleConfig(model=model), n_trials=1_000, seed=2**64 - 1,
                          workers=workers)
            assert mc == ChainOutcome(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, n_trials=1_000,
                                      seed=2**64 - 1)

    def test_undrivable_initial_state(self):
        mc = simulate(PumpCycleConfig(initial=D(-1.5)), n_trials=100, seed=0)
        assert (mc.p_good, mc.p_bad, mc.p_dark) == (0.0, 0.0, 1.0)

    def test_max_cycles_defaults_to_1000(self):
        assert inspect.signature(simulate).parameters["max_cycles"].default == 1000

    @pytest.mark.parametrize("n_trials", [2**63, 10**30])
    def test_trial_count_must_fit_int64(self, n_trials, monkeypatch):
        monkeypatch.setattr(pump_cycle, "_Walker", None)  # an accepted count fails, not runs
        with pytest.raises(DomainError, match="n_trials"):
            simulate(PumpCycleConfig(), n_trials=n_trials, seed=0)


def native_stream(seed, cycle):
    return np.random.Philox(key=np.array([seed, cycle], dtype=np.uint64))


def seeked_bits(seed, cycle, lo, n):
    """``n`` outputs of a used generator after ``_seek`` to ``lo``: nothing it had
    buffered may reach the draw."""
    bitgen = np.random.Philox(key=0)
    bitgen.random_raw(5)
    pump_cycle._seek(bitgen, seed, cycle, lo)
    return bitgen.random_raw(n)


class TestKernel:
    @pytest.mark.parametrize("lo", (0, 1, 2, 3, 4_097, 131_074))
    def test_jump_and_discard_matches_slicing(self, lo):
        full = native_stream(2**64 - 1, 999).random_raw(lo + 37)
        bits = seeked_bits(2**64 - 1, 999, lo, 37)
        assert (bits == full[lo:]).all()
        uniforms = np.random.Generator(native_stream(2**64 - 1, 999)).random(lo + 37)
        assert ((bits >> 11) * 2.0**-53 == uniforms[lo:]).all()

    @pytest.mark.parametrize("residue", range(4))  # every lo % 4: the outputs discarded
    @settings(max_examples=25, deadline=None)
    @given(seed=st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1),
           cycle=st.integers(0, 999), block=st.integers(0, 250_000), n=st.integers(1, 9))
    def test_seek_follows_the_philox_specification(self, residue, seed, cycle, block, n):
        lo = 4 * block + residue
        assert seeked_bits(seed, cycle, lo, n).tolist() == philox4x64_10((seed, cycle), lo, n)

    def test_decay_matches_searchsorted_on_random_models(self):
        # raw deviates on and one step either side of every edge, plus random ones;
        # the low 11 bits are the ones Generator.random discards
        rng = np.random.default_rng(5)
        cg = default_barium_model().cg
        models = [random_branching_model(rng) for _ in range(20)] + [
            BranchingModel(br_493=1.0 - br_650, br_650=br_650, cg=cg) for br_650 in (0.0, 1e-17)
        ]
        for model in models:
            config = PumpCycleConfig(model=model)
            chain = pump_cycle._CompiledChain(config)
            walker = pump_cycle._Walker(chain, n_trials=1, seed=0, max_cycles=1)
            steps = np.ceil(np.concatenate(chain.cum) * 2.0**53).astype(np.uint64)
            steps = np.concatenate([steps, steps - 1, steps + 1,
                                    rng.integers(0, 2**53, 2_000, dtype=np.uint64)])
            steps = steps[steps < 2**53]
            bits = (steps << 11) | rng.integers(0, 2**11, steps.size, dtype=np.uint64)
            u = (bits >> 11) * 2.0**-53
            state = rng.integers(0, len(chain.cum), steps.size).astype(np.int8)
            expected = np.empty_like(state)
            for i, (cum, dests) in enumerate(zip(chain.cum, chain.dest)):
                here = state == i
                channel = np.searchsorted(cum, u[here], side="right")
                expected[here] = np.asarray(dests)[np.minimum(channel, len(dests) - 1)]
            assert (walker._decay(state, bits) == expected).all()

    @pytest.mark.parametrize("br_650, max_cycles", [(0.2696, 1000), (0.9, 6)])
    @pytest.mark.parametrize(  # 131_072: the former chunk; two of them plus a lane remainder
        "chunk, n", [(1_000, 30_001), (4_099, 30_001), (7, 2_003), (131_072, 262_147)])
    def test_chunking_does_not_change_results(self, monkeypatch, br_650, max_cycles, chunk, n):
        model = BranchingModel(br_493=1.0 - br_650, br_650=br_650, cg=default_barium_model().cg)
        config = PumpCycleConfig(model=model)
        reference = simulate(config, n_trials=n, seed=2**64 - 1, max_cycles=max_cycles)
        monkeypatch.setattr(pump_cycle, "_CHUNK", chunk)
        for workers in (1, 2):
            assert simulate(config, n_trials=n, seed=2**64 - 1, workers=workers,
                            max_cycles=max_cycles) == reference

    @pytest.mark.parametrize(
        "workers, cpus, n_chunks, n_threads",
        [(8, 64, 3, 3), (8, 2, 3, 2), (2, 64, 3, 2), (7, 64, 1, 1), (8, None, 3, 1)],
    )
    def test_worker_threads_are_capped(self, monkeypatch, workers, cpus, n_chunks, n_threads):
        """The calling thread walks too, so ``n_threads - 1`` threads are started,
        and all have ended when ``simulate`` returns."""
        n = 1_000 * (n_chunks - 1) + 1
        reference = simulate(PumpCycleConfig(), n_trials=n, seed=3)
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(pump_cycle, "_CHUNK", 1_000)
        monkeypatch.setattr(pump_cycle.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        assert simulate(PumpCycleConfig(), n_trials=n, seed=3, workers=workers) == reference
        assert len(started) == n_threads - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_walk_error_is_raised_in_the_caller(self, monkeypatch, failing):
        walk = pump_cycle._Walker.walk

        def walk_or_fail(walker, starts):
            if (starts[0] == 0) == (failing == "caller"):  # group 0 is the caller's
                raise RuntimeError(f"{failing} failed")
            return walk(walker, starts)

        monkeypatch.setattr(pump_cycle, "_CHUNK", 1_000)
        monkeypatch.setattr(pump_cycle.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pump_cycle._Walker, "walk", walk_or_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            simulate(PumpCycleConfig(), n_trials=3_001, seed=3, workers=2)
        assert threading.active_count() == before

    def test_traced_memory_does_not_grow_with_trials(self):
        def peak(n_trials):
            tracemalloc.start()
            try:
                simulate(PumpCycleConfig(), n_trials=n_trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # the first call imports numpy.random lazily; that is not growth
        assert peak(2_000_000) <= 1.5 * peak(200_000)

    def test_traced_working_set_of_two_threads(self):
        """Long-lived trajectories (br_650 0.9) over 8 chunks and two threads: each
        holds a chunk's draw while it gathers the survivors' bits, their ``int32``
        offsets and states, ~0.55 MB; the kernel with a new generator per (chunk,
        cycle), ``int64`` offsets and 2^16 chunks traced 2.6-3.7 MB."""
        model = BranchingModel(br_493=0.1, br_650=0.9, cg=default_barium_model().cg)
        config = PumpCycleConfig(model=model)
        simulate(config, n_trials=1_000, seed=1)  # numpy.random loads lazily; not the working set
        tracemalloc.start()
        try:
            simulate(config, n_trials=262_144, seed=1, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
