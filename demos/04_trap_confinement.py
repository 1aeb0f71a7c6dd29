"""Size up the RF confinement of a linear blade trap.

Secular frequency sets how tightly the ion sits, which in turn sets how
repeatably laser beams can address it.  The script evaluates the standard
formulas for a barium-scale trap and shows the parameter scalings.
"""

import math

from ionlink.trap import TrapConfig, pseudopotential, secular_frequency

BOLTZMANN = 1.380649e-23  # J/K, exact in the SI since 2019

base = TrapConfig.from_lab_units(v0=200.0, f_rf_mhz=20.0, r_um=260.0, eta=0.9, mass_amu=138.0)

print("== reference blade-trap operating point ==")
omega = secular_frequency(base)
print(f"V0=200 V, 20 MHz drive, r=260 um, eta=0.9, m=138 amu")
print(f"radial secular frequency: {omega/2/math.pi/1e6:.3f} MHz\n")

print("== pseudopotential profile along x ==")
print(f"{'x_um':>6} {'psi_J':>12} {'psi/kB_mK':>10}")
for x_um in (1.0, 5.0, 10.0, 25.0):
    psi = pseudopotential(base, x_um * 1e-6, 0.0)
    print(f"{x_um:>6.1f} {psi:>12.3e} {psi/BOLTZMANN*1e3:>10.2f}")
print("a ~1 mK ion therefore stays within about a micrometer of the node.\n")

print("== scalings ==")
double_v = TrapConfig(base.v0 * 2, base.omega_rf, base.r, base.eta, base.mass, base.charge)
double_f = TrapConfig(base.v0, base.omega_rf * 2, base.r, base.eta, base.mass, base.charge)
wider = TrapConfig(base.v0, base.omega_rf, base.r * 2, base.eta, base.mass, base.charge)
print(f"doubled RF voltage : omega_s x {secular_frequency(double_v)/omega:.3f}")
print(f"doubled RF drive   : omega_s x {secular_frequency(double_f)/omega:.3f}")
print(f"doubled electrode distance: omega_s x {secular_frequency(wider)/omega:.3f}")
print("\nTakeaway: voltage buys confinement linearly, distance costs it")
print("quadratically, and the drive frequency divides it right back out.")
