"""Cross-check the pump-cycle numbers three independent ways.

The same physical walk (drive up, decay down, repeat) is solved as a
geometric series, as an absorbing Markov chain, and by brute-force Monte
Carlo.  The script shows the agreement and the reproducibility contract of
the sampler.
"""

from ionlink import (
    CycleAmplitudes,
    PumpCycleConfig,
    default_barium_model,
    geometric_branch_probabilities,
    simulate,
    solve_exact,
)

config = PumpCycleConfig()
model = default_barium_model()

print("== three routes to the same branch probabilities ==")
closed = geometric_branch_probabilities(model, CycleAmplitudes.from_model(model))
exact = solve_exact(config)
mc = simulate(config, n_trials=1_000_000, seed=1)
print(f"{'':<18} {'p_good':>9} {'p_bad':>9} {'p_dark':>9}")
print(f"{'geometric series':<18} {closed.p_good:>9.5f} {closed.p_bad:>9.5f} {closed.p_dark:>9.5f}")
print(f"{'absorbing chain':<18} {exact.p_good:>9.5f} {exact.p_bad:>9.5f} {exact.p_dark:>9.5f}")
print(f"{'monte carlo 1e6':<18} {mc.p_good:>9.5f} {mc.p_bad:>9.5f} {mc.p_dark:>9.5f}")
print(f"(standard errors {mc.se_good:.5f}/{mc.se_bad:.5f}/{mc.se_dark:.5f})\n")

print("== reproducibility: same seed, any worker count ==")
for workers in (1, 2, 4):
    again = simulate(config, n_trials=200_000, seed=42, workers=workers)
    print(f"workers={workers}: p_good={again.p_good!r}")
print("bit-identical by construction: trajectory i at cycle k always consumes")
print("element i of the (seed, k) counter-based stream.\n")

print("== truncating the cycle budget ==")
print(f"{'max_cycles':>10} {'p_good+p_bad':>13}")
for cycles in (1, 2, 3, 5, 10, 100):
    out = simulate(PumpCycleConfig(max_cycles=cycles), n_trials=200_000, seed=7)
    print(f"{cycles:>10} {out.p_good + out.p_bad:>13.5f}")
print("\nTakeaway: one cycle already emits with the bare 0.7304 branching;")
print("a handful of re-excitations push the success to ~0.92.")
