import threading
import tracemalloc

import numpy as np
import pytest

from ionlink import pump_cycle
from ionlink.atomic import (
    BranchingModel,
    Level,
    Polarization,
    ZeemanState,
    default_barium_model,
)
from ionlink.errors import DomainError
from ionlink.pump_cycle import ChainOutcome, PumpCycleConfig, simulate, solve_exact
from ionlink.schemes import CycleAmplitudes, geometric_branch_probabilities

from oracles import pump_cycle_power_iteration, random_branching_model

# frozen from the 9-state power-iteration oracle
EXACT_P_GOOD = 0.8441978733240868
EXACT_P_BAD = 0.07943450601988476
EXACT_P_DARK = 0.07636762065602828

D = lambda m: ZeemanState(Level.D32, m)  # noqa: E731


class TestConfig:
    def test_defaults(self):
        config = PumpCycleConfig()
        assert config.initial == D(+1.5)
        assert config.drive is Polarization.SIGMA_MINUS
        assert config.max_cycles == 1000

    def test_initial_must_be_shelf(self):
        with pytest.raises(DomainError):
            PumpCycleConfig(initial=ZeemanState(Level.S12, 0.5))

    def test_max_cycles_positive(self):
        with pytest.raises(DomainError):
            PumpCycleConfig(max_cycles=0)


class TestSolveExact:
    def test_default_barium_values(self):
        outcome = solve_exact(PumpCycleConfig())
        assert outcome.p_good == pytest.approx(EXACT_P_GOOD, rel=1e-12)
        assert outcome.p_bad == pytest.approx(EXACT_P_BAD, rel=1e-12)
        assert outcome.p_dark == pytest.approx(EXACT_P_DARK, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        outcome = solve_exact(PumpCycleConfig())
        assert outcome.p_good + outcome.p_bad + outcome.p_dark == pytest.approx(1.0, abs=1e-9)

    def test_good_branch_closed_form_identity(self):
        # the closed form with the reinit amplitude is exact for this topology
        model = default_barium_model()
        closed = geometric_branch_probabilities(model, CycleAmplitudes.from_model(model))
        assert solve_exact(PumpCycleConfig()).p_good == pytest.approx(closed.p_good, abs=1e-9)

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

    def test_closed_form_identity_on_random_models(self):
        rng = np.random.default_rng(99)
        p_plus = ZeemanState(Level.P12, +0.5)
        for _ in range(20):
            model = random_branching_model(rng)
            reinit_sq = model.amplitude(p_plus, D(+1.5)) ** 2
            expected = model.br_493 / (1.0 - reinit_sq * model.br_650)
            assert solve_exact(PumpCycleConfig(model=model)).p_good == pytest.approx(
                expected, abs=1e-9
            )

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

    def test_bit_identical_to_lapack_on_random_models(self):
        """The plain-Python solve emulates LAPACK dgesv on this BLAS; a BLAS
        that rounds differently fails here instead of drifting silently."""
        rng = np.random.default_rng(13)
        pivots = {False: 0, True: 0}
        for _ in range(2_000):
            model = random_branching_model(rng)
            for drive in (Polarization.SIGMA_MINUS, Polarization.SIGMA_PLUS):
                for mj in (1.5, 0.5, -0.5, -1.5):
                    config = PumpCycleConfig(initial=D(mj), drive=drive, model=model)
                    chain = pump_cycle._CompiledChain(config)
                    a, r = pump_cycle._absorbing_system(chain)
                    expected = np.linalg.solve(np.array(a), np.array(r))
                    solved = np.array(pump_cycle._solve_2x2(a, r))
                    assert (solved.view(np.int64) == expected.view(np.int64)).all(), (a, r)
                    pivots[abs(a[1][0]) > abs(a[0][0])] += 1
            # solve_exact returns the initial state's row of that solve
            row = expected[chain.p_index[chain.start]].tolist()
            assert list(solve_exact(config).as_dict().values())[:3] == row
        assert min(pivots.values()) > 0, pivots  # both pivot branches are exercised


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
        model = default_barium_model()
        closed = geometric_branch_probabilities(model, CycleAmplitudes.from_model(model))
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
        mc = simulate(PumpCycleConfig(max_cycles=1), n_trials=200_000, seed=11)
        assert mc.p_bad == 0.0
        se = max(mc.se_good, 1e-9)
        assert abs(mc.p_good - 0.7304) < 3.0 * se

    def test_emission_grows_with_cycle_budget(self):
        totals = []
        for cycles in (1, 2, 3, 5, 10, 50):
            mc = simulate(PumpCycleConfig(max_cycles=cycles), n_trials=100_000, seed=4)
            totals.append(mc.p_good + mc.p_bad)
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_standard_errors_follow_binomial_formula(self):
        mc = simulate(PumpCycleConfig(), n_trials=10_000, seed=3)
        assert mc.se_good == pytest.approx(
            (mc.p_good * (1.0 - mc.p_good) / 10_000) ** 0.5, rel=1e-12
        )

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

    def test_input_validation(self):
        with pytest.raises(DomainError):
            simulate(PumpCycleConfig(), n_trials=0, seed=0)
        with pytest.raises(DomainError):
            simulate(PumpCycleConfig(), n_trials=10, seed=-1)
        with pytest.raises(DomainError):
            simulate(PumpCycleConfig(), n_trials=10, seed=0, workers=0)

    @pytest.mark.parametrize("n_trials", [2**63, 10**30])
    def test_trial_count_must_fit_int64(self, n_trials, monkeypatch):
        monkeypatch.setattr(pump_cycle, "_Walker", None)  # an accepted count fails, not runs
        with pytest.raises(DomainError, match="n_trials"):
            simulate(PumpCycleConfig(), n_trials=n_trials, seed=0)


def native_stream(seed, cycle):
    return np.random.Philox(key=np.array([seed, cycle], dtype=np.uint64))


class TestKernel:
    @pytest.mark.parametrize("lo", (0, 1, 2, 3, 4_097, 131_074))
    def test_jump_and_discard_matches_slicing(self, lo):
        full = native_stream(2**64 - 1, 999).random_raw(lo + 37)
        bits = pump_cycle._jumped_bits(2**64 - 1, 999, lo, 37)
        assert (bits == full[lo:]).all()
        uniforms = np.random.Generator(native_stream(2**64 - 1, 999)).random(lo + 37)
        assert ((bits >> 11) * 2.0**-53 == uniforms[lo:]).all()

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
            walker = pump_cycle._Walker(chain, config, n_trials=1, seed=0)
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
        config = PumpCycleConfig(model=model, max_cycles=max_cycles)
        reference = simulate(config, n_trials=n, seed=2**64 - 1)
        monkeypatch.setattr(pump_cycle, "_CHUNK", chunk)
        for workers in (1, 2):
            assert simulate(config, n_trials=n, seed=2**64 - 1, workers=workers) == reference

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
