"""Linear RF (Paul) trap: radial pseudopotential and secular frequency.

For drive amplitude V0 at angular frequency Omega, ion-electrode distance r
and geometric factor eta, the time-averaged potential seen by an ion of
mass m and charge e is

    psi(x, y) = e^2 V0^2 eta^2 (x^2 + y^2) / (4 m r^4 Omega^2)

and the radial secular frequency is

    omega_s = e V0 eta / (sqrt(2) m r^2 Omega),

so psi(x, y) = (1/2) m omega_s^2 (x^2 + y^2) identically.
"""

from __future__ import annotations

import math

from .errors import DomainError, Record, check

__all__ = ["TrapConfig", "pseudopotential", "secular_frequency"]

_ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact in the SI since 2019
_AMU = 1.66053906892e-27  # kg, CODATA 2022 atomic mass constant


class TrapConfig(Record):
    """Trap drive and geometry, all SI units."""

    v0: float          # RF amplitude, V
    omega_rf: float    # RF drive angular frequency, rad/s
    r: float           # ion-electrode distance, m
    eta: float         # geometric factor, 1 for hyperbolic electrodes
    mass: float        # ion mass, kg
    charge: float      # ion charge, C

    def __post_init__(self) -> None:
        for name in ("v0", "omega_rf", "r", "mass", "charge"):
            check(name, getattr(self, name), open_lo=True)
        check("eta", self.eta, 0.0, 1.0, open_lo=True)  # 1: perfect hyperbolic geometry

    @classmethod
    def from_lab_units(
        cls,
        v0: float,
        f_rf_mhz: float,
        r_um: float,
        eta: float,
        mass_amu: float,
        charge_e: float = 1.0,
    ) -> "TrapConfig":
        """Build from the units quoted on a lab bench (MHz, micrometers, amu).

        Each argument is checked under its own name, in its field's range, and
        refused also where its SI value under- or overflows to 0 or infinity."""
        lab = {"v0": v0, "f_rf_mhz": f_rf_mhz, "r_um": r_um, "eta": eta,
               "mass_amu": mass_amu, "charge_e": charge_e}
        si = (v0, 2.0 * math.pi * f_rf_mhz * 1e6, r_um * 1e-6, eta, mass_amu * _AMU,
              charge_e * _ELEMENTARY_CHARGE)
        for (name, value), converted in zip(lab.items(), si):
            check(name, value, 0.0, 1.0 if name == "eta" else math.inf, open_lo=True)
            if not 0.0 < converted < math.inf:
                raise DomainError(f"{name} out of range: {value} "
                                  f"(its SI value {converted} is not finite and positive)")
        return cls(*si)


def _positive(quantity: str, config: TrapConfig, evaluate) -> float:
    """``evaluate()``, rejected where it over- or underflows for this config."""
    try:
        value = evaluate()
    except (OverflowError, ZeroDivisionError):
        value = math.nan  # no float result
    return check(f"{quantity} of {config}", value, open_lo=True)


def pseudopotential(config: TrapConfig, x: float, y: float) -> float:
    """Ponderomotive pseudopotential energy at radial offset (x, y), in joules;
    an offset whose energy overflows is refused."""
    scale = _positive("pseudopotential scale", config, lambda: (
        (config.charge * config.v0 * config.eta) ** 2
        / (4.0 * config.mass * config.r**4 * config.omega_rf**2)
    ))
    x, y = check("x", x, -math.inf), check("y", y, -math.inf)
    return check(f"pseudopotential of {config}", scale * (x * x + y * y))


def secular_frequency(config: TrapConfig) -> float:
    """Radial secular angular frequency, rad/s."""
    return _positive("secular frequency", config, lambda: (
        (config.charge * config.v0 * config.eta)
        / (math.sqrt(2.0) * config.mass * config.r**2 * config.omega_rf)
    ))
