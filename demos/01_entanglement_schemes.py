"""Compare the three ways of pulling an entangled photon out of the ion.

The shelving-based scheme trades fidelity for success probability: repeated
excitation out of the D3/2 shelf emits a photon on almost every attempt,
but sometimes with the wrong Bell pairing.  This script walks through the
branch bookkeeping and then prints the side-by-side comparison at a
realistic collection aperture.
"""

from ionlink import (
    default_barium_model,
    fidelity_at_na,
    geometric_branch_probabilities,
    mixture_fidelity,
    scheme_comparison,
    solve_exact,
    PumpCycleConfig,
)

model = default_barium_model()

print("== pump-cycle branch probabilities ==")
closed = geometric_branch_probabilities(model)
exact = solve_exact(PumpCycleConfig(model=model))
print(f"geometric closed form : p_good={closed.p_good:.4f}  p_bad={closed.p_bad:.4f}")
print(f"exact absorbing chain : p_good={exact.p_good:.4f}  p_bad={exact.p_bad:.4f}")
print("the good branch matches exactly; the closed-form bad branch undercounts the")
print("multi-visit walk, so the chain solver is the number to trust there.\n")

print("== produced state vs the intended Bell pairing ==")
f_zero_na = mixture_fidelity(exact.p_good, exact.p_bad)
print(f"zero-aperture fidelity of the shelving scheme: {f_zero_na:.4f}")
print(f"with the often-quoted branch weights 0.844/0.103 instead: "
      f"{mixture_fidelity(0.844, 0.103):.4f}\n")

print("== scheme comparison at NA = 0.6 ==")
print(f"{'scheme':<12} {'Pe*Ps':>7} {'P(0.6)':>8} {'F(0.6)':>8}")
for row in scheme_comparison(0.6):
    print(f"{row.scheme:<12} {row.pe_ps:>7.3f} {row.probability:>8.4f} {row.fidelity:>8.4f}")
print()

print("== how the aperture moves the numbers ==")
for na in (0.0, 0.3, 0.6, 1.0):
    f = fidelity_at_na(0.891, na)
    print(f"NA={na:.1f}: shelving fidelity {f:.4f}")
print("\nTakeaway: shelving gives ~6x the entanglement probability of the weak")
print("scheme at NA=0.6 while still delivering ~0.87 fidelity.")
