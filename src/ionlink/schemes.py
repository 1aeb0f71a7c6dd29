"""Ion-photon entanglement schemes and their figures of merit.

Three ways of driving the ion produce a polarization-entangled photon:

* ``d-shelving``: continuous excitation out of the D3/2 shelf.  Nearly
  deterministic (a photon is emitted in 94.7% of attempts) but repeated
  excitation admixes the wrong Bell pairing, capping the fidelity near 0.89.
* ``weak``: single weak excitation, 20% excitation probability, fidelity
  near unity.
* ``strong``: saturating pulsed excitation, unit excitation probability,
  fidelity near unity.

The intended photon/ion state pairs H with ion state 0 and V with 1,
(|H0> + |V1>)/sqrt(2); re-excitation through the shelf can instead produce
the swapped pairing (|H1> + |V0>)/sqrt(2), and the emitted state is a
classical mixture of the two weighted by their production probabilities.
The pairings are orthogonal, so that mixture's fidelity with the intended
one is the good branch's weight p_good / (p_good + p_bad)
(:func:`mixture_fidelity`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .emission import CollectionModel, collection_fraction
from .errors import Record, check, steps

__all__ = [
    "POLARIZATION_MIXING_COEFF",
    "SchemeSpec",
    "SchemeRow",
    "D_SHELVING",
    "WEAK",
    "STRONG",
    "SCHEMES",
    "mixture_fidelity",
    "fidelity_at_na",
    "entanglement_probability",
    "scheme_comparison",
    "fidelity_curve",
    "probability_curve",
]

#: Fidelity penalty per unit of collected solid-angle fraction, from the
#: standard analysis of sigma/pi mixing over a finite aperture.
POLARIZATION_MIXING_COEFF = 0.24


def mixture_fidelity(p_good: float, p_bad: float) -> float:
    """Fidelity of the two-pairing mixture with the intended Bell pairing:
    the good branch's weight p_good / (p_good + p_bad)."""
    total = check("p_good", p_good) + check("p_bad", p_bad)
    return p_good / check("p_good + p_bad", total, open_lo=True)


class SchemeSpec(Record):
    """Operating point of one excitation scheme."""

    name: str
    excite_prob: float     # probability of reaching the P level per attempt
    s_decay_prob: float    # probability the decay lands in the ground manifold
    max_fidelity: float    # fidelity at vanishing aperture

    def __post_init__(self) -> None:
        for field in ("excite_prob", "s_decay_prob", "max_fidelity"):
            check(field, getattr(self, field), 0.0, 1.0)


# Canonical operating points.  The d-shelving row is the paper's: 0.947 =
# 0.844 + 0.103, where 0.103 is the chance of ever reaching the wrong P1/2
# sublevel (not of emitting from it), and 0.891 = 0.844 / 0.947.  The chain
# (pump_cycle.solve_exact) gives 0.92363 and good weight 0.91400; tests pin
# the gap.  weak/strong emit straight off the P level: bare 0.7304 branching.
D_SHELVING = SchemeSpec("d-shelving", 1.0, 0.947, 0.891)
WEAK = SchemeSpec("weak", 0.2, 0.7304, 1.0)
STRONG = SchemeSpec("strong", 1.0, 0.7304, 1.0)

SCHEMES = {s.name: s for s in (D_SHELVING, WEAK, STRONG)}


def fidelity_at_na(
    max_fidelity: float,
    na: float,
    collection: CollectionModel | str = CollectionModel.QUADRATIC,
) -> float:
    """Fidelity after polarization mixing over the collection aperture.

    F = F_max - 0.24 * (captured solid-angle fraction); with the default
    quadratic model the fraction is NA^2/4.
    """
    check("max_fidelity", max_fidelity, 0.0, 1.0)
    return max_fidelity - POLARIZATION_MIXING_COEFF * collection_fraction(na, collection)


def entanglement_probability(
    spec: SchemeSpec,
    na: float,
    collection: CollectionModel | str = CollectionModel.QUADRATIC,
) -> float:
    """Per-attempt probability of a collected, entangled photon.

    P = P_excite * P_s * NA^2/4 for the quadratic collection model.
    """
    return spec.excite_prob * spec.s_decay_prob * collection_fraction(na, collection)


SchemeRow = namedtuple("SchemeRow", "scheme pe_ps probability fidelity")


def scheme_comparison(
    na: float, collection: CollectionModel | str = CollectionModel.QUADRATIC
) -> list[SchemeRow]:
    """Side-by-side success probability and fidelity of all schemes at one NA."""
    return [SchemeRow(spec.name, spec.excite_prob * spec.s_decay_prob,
                      entanglement_probability(spec, na, collection),
                      fidelity_at_na(spec.max_fidelity, na, collection))
            for spec in SCHEMES.values()]


def _na_fractions(na_step: float, collection: CollectionModel) -> Iterator[tuple[float, float]]:
    """(na, collected fraction) over 0, na_step, ... up to NA 1, the step and the model checked
    when called; every NA lies in [0, 1], so the fraction is collection_fraction's formula
    unchecked."""
    n = steps("na_step", na_step, 1.0, hi=1.0)
    quadratic = CollectionModel(collection) is CollectionModel.QUADRATIC
    stop = n * na_step
    # np.linspace(0, stop, n + 1)'s points; the tolerance may keep the last a
    # rounding error above 1: it is NA 1
    nas = (min(i * (stop / n) if i < n else stop, 1.0) for i in range(n + 1))
    if quadratic:
        return ((na, na * na / 4.0) for na in nas)
    return ((na, (1.0 - math.sqrt(1.0 - na * na)) / 2.0) for na in nas)


def fidelity_curve(
    max_fidelity: float,
    na_step: float = 0.01,
    collection: CollectionModel | str = CollectionModel.QUADRATIC,
) -> Iterator[tuple[float, float]]:
    """(na, fidelity_at_na(max_fidelity, na, collection)) over NA in [0, 1]."""
    fractions = _na_fractions(na_step, collection)
    check("max_fidelity", max_fidelity, 0.0, 1.0)
    for na, fraction in fractions:
        yield na, max_fidelity - POLARIZATION_MIXING_COEFF * fraction


def probability_curve(
    spec: SchemeSpec,
    na_step: float = 0.01,
    collection: CollectionModel | str = CollectionModel.QUADRATIC,
) -> Iterator[tuple[float, float]]:
    """(na, entanglement_probability(spec, na, collection)) over NA in [0, 1]."""
    pe_ps = spec.excite_prob * spec.s_decay_prob
    for na, fraction in _na_fractions(na_step, collection):
        yield na, pe_ps * fraction
