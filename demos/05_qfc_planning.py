"""Plan the frequency-conversion stages that make the ion network-compatible.

One 1343 nm pump drives both single-stage conversions: the 493 nm line to
the near-IR (compatible with rubidium-based memories) and the 650 nm line
straight into the telecom O band.  A second stage can push onward to the
C band.  The script designs all poling periods and audits noise ordering.
"""

from ionlink.qfc import (
    MixKind,
    chain_efficiency,
    load_dispersion,
    noise_audit,
    plan_stage,
    standard_conversion_table,
)

print("== the bundled single-pump designs ==")
print(f"{'conversion':<22} {'in_THz':>7} {'out_THz':>8} {'pump_THz':>9} "
      f"{'period_um':>10} {'device':>7}")
for row in standard_conversion_table():
    print(f"{row.conversion:<22} {row.input_thz:>7.1f} {row.output_thz:>8.1f} "
          f"{row.pump_thz:>9.1f} {row.stage.poling_period_um:>10.3f} {row.device:>7}")
print()

print("== noise audit of each stage ==")
for row in standard_conversion_table():
    print(f"{row.conversion}:")
    for finding in noise_audit(row.stage):
        print(f"  [{finding.code}] {finding.message}")
print()

print("== two-stage route to the telecom C band ==")
ppktp, ppln = load_dispersion("ppktp"), load_dispersion("ppln")
first, _ = plan_stage(493.0, 1343.0, MixKind.DFG, ppktp, efficiency=0.05)
second, _ = plan_stage(first.output.wavelength_nm, 1569.0, MixKind.DFG, ppln, efficiency=0.18)
print(f"stage 1: 493.0 -> {first.output.wavelength_nm:.1f} nm at 5% efficiency")
print(f"stage 2: {second.input.wavelength_nm:.1f} -> {second.output.wavelength_nm:.1f} nm "
      f"at 18% efficiency")
print(f"chain efficiency: {chain_efficiency([first, second]):.4f}")

print("\n== higher poling orders ==")
stage3, _ = plan_stage(650.0, 1343.0, MixKind.DFG, ppln, poling_order=3)
stage1, _ = plan_stage(650.0, 1343.0, MixKind.DFG, ppln, poling_order=1)
print(f"order 1 period {stage1.poling_period_um:.3f} um, order 3 period "
      f"{stage3.poling_period_um:.3f} um (exactly triple, easier to pole,")
print("but higher orders convert less efficiently).")
print("\nTakeaway: every design keeps the pump as the lowest frequency, so")
print("downconverted pump noise cannot land on the converted photon.")
