"""Fiber transmission and end-to-end link budgets.

Attenuation is the usual engineering constant in dB/km, so a length L of
fiber transmits the fraction 10^(-alpha L / 10).  Converting a photon to a
lower-loss band pays a one-off efficiency factor; past the crossover
distance the converted channel wins.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import DomainError, NoCrossingError, Record, check, steps

__all__ = [
    "FiberChannel",
    "LinkBudget",
    "STANDARD_ATTENUATION_DB_PER_KM",
    "standard_channel",
    "transmission",
    "conversion_crossing",
    "link_rate",
    "end_to_end_rate",
]

#: Representative attenuation of wavelength-specific single-mode fiber.
STANDARD_ATTENUATION_DB_PER_KM = {
    493: 50.0,
    650: 15.0,
    780: 3.5,
    1259: 0.3,
    1550: 0.18,
}


class FiberChannel(Record):
    """A wavelength and the loss (positive dB/km) of its dedicated fiber."""

    wavelength_nm: float
    attenuation_db_per_km: float

    def __post_init__(self) -> None:
        check("wavelength_nm", self.wavelength_nm, open_lo=True)
        check("attenuation_db_per_km", self.attenuation_db_per_km)  # loss is positive


def standard_channel(wavelength_nm: float) -> FiberChannel:
    """Bundled channel of a wavelength rounded to the nearest whole nm (half to
    even, as ``round`` does), which must be one of the five reference
    wavelengths: 780.4 gives the 780 nm channel.  A non-finite wavelength does
    not round; it is refused by name, as any wavelength without a channel is."""
    nm = round(wavelength_nm) if math.isfinite(wavelength_nm) else wavelength_nm
    try:
        return FiberChannel(float(nm), STANDARD_ATTENUATION_DB_PER_KM[nm])
    except KeyError:
        known = ", ".join(str(k) for k in sorted(STANDARD_ATTENUATION_DB_PER_KM))
        raise DomainError(f"no bundled attenuation for {nm:g} nm (known: {known})") from None


def transmission(fiber: FiberChannel, length_km: float) -> float:
    """Power transmission fraction 10^(-alpha L / 10)."""
    return 10.0 ** (-fiber.attenuation_db_per_km * check("length_km", length_km) / 10.0)


def conversion_crossing(
    raw: FiberChannel, converted: FiberChannel, efficiency: float
) -> float:
    """Distance beyond which converting beats staying raw, in km.

    Solves efficiency * 10^(-a_c L / 10) = 10^(-a_r L / 10):
    L = 10 log10(1/efficiency) / (a_r - a_c).  Unit efficiency crosses at 0.
    """
    check("efficiency", efficiency, 0.0, 1.0, open_lo=True)
    delta = raw.attenuation_db_per_km - converted.attenuation_db_per_km
    if delta <= 0.0:
        raise NoCrossingError(
            f"converted channel ({converted.attenuation_db_per_km} dB/km) does not "
            f"improve on the raw one ({raw.attenuation_db_per_km} dB/km): no crossover"
        )
    if efficiency == 1.0:
        return 0.0
    crossing_km = 10.0 * math.log10(1.0 / efficiency) / delta
    return check(f"crossing_km at efficiency {efficiency}", crossing_km)


class LinkBudget(Record):
    """Everything multiplying into the delivered entanglement rate."""

    source_rate: float                      # entangled-photon probability per attempt
    repetition_rate_hz: float               # attempts per second
    fiber: FiberChannel
    length_km: float
    detector_efficiency: float
    conversion_efficiency: float = 1.0      # of all stages, e.g. qfc.chain_efficiency(stages)

    def __post_init__(self) -> None:
        for name in ("source_rate", "detector_efficiency", "conversion_efficiency"):
            check(name, getattr(self, name), 0.0, 1.0)
        for name in ("repetition_rate_hz", "length_km"):
            check(name, getattr(self, name))


def link_rate(
    source_rate: float,
    repetition_rate_hz: float,
    conversion_efficiency: float,
    fiber: FiberChannel,
    length_km: float,
    detector_efficiency: float,
) -> float:
    """Delivered rate in Hz for a scalar conversion efficiency: the
    :func:`end_to_end_rate` of the :class:`LinkBudget` these inputs make,
    which checks them."""
    return end_to_end_rate(LinkBudget(source_rate, repetition_rate_hz, fiber, length_km,
                                      detector_efficiency, conversion_efficiency))


def end_to_end_rate(budget: LinkBudget) -> float:
    """Delivered entanglement rate of a full budget, in Hz: the product of its
    rates, efficiencies and fiber transmission, from inputs the budget checked."""
    return (
        budget.repetition_rate_hz
        * budget.source_rate
        * budget.conversion_efficiency
        * transmission(budget.fiber, budget.length_km)
        * budget.detector_efficiency
    )


def transmission_curves(
    max_km: float,
    step_km: float,
    eta_780: float = 0.05,
    eta_1259: float = 0.05,
    eta_1550: float = 0.18,
) -> Iterator[list[float]]:
    """Reference transmission traces, converted ones pre-scaled by their efficiency.

    Yields rows of the length and the 493, 780, 650, 1259 and 1550 nm
    traces, the converted 780/1259/1550 nm ones multiplied by the quoted
    conversion efficiency so curves are directly comparable.  Each cell is
    the efficiency times :func:`transmission`'s own expression.  The inputs
    are checked before the first row, and each row is computed as it is
    pulled, so memory does not grow with the grid.
    """
    n_steps = steps("step_km", step_km, check("max_km", max_km))
    for name, eta in (("eta_780", eta_780), ("eta_1259", eta_1259), ("eta_1550", eta_1550)):
        check(name, eta, 0.0, 1.0)
    # -a * km is (-a) * km, so negating once here keeps transmission's bits
    a_493, a_780, a_650, a_1259, a_1550 = (
        -standard_channel(nm).attenuation_db_per_km for nm in (493, 780, 650, 1259, 1550))
    for i in range(n_steps + 1):
        km = i * step_km
        yield [km, 10.0 ** (a_493 * km / 10.0), eta_780 * 10.0 ** (a_780 * km / 10.0),
               10.0 ** (a_650 * km / 10.0), eta_1259 * 10.0 ** (a_1259 * km / 10.0),
               eta_1550 * 10.0 ** (a_1550 * km / 10.0)]
