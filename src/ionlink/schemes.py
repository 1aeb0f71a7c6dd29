"""Ion-photon entanglement schemes and their figures of merit.

Three ways of driving the ion produce a polarization-entangled photon:

* ``d-shelving``: continuous excitation out of the D3/2 shelf.  Nearly
  deterministic (a photon is emitted in 94.7% of attempts) but repeated
  excitation admixes the wrong Bell pairing, capping the fidelity near 0.89.
* ``weak``: single weak excitation, 20% excitation probability, fidelity
  near unity.
* ``strong``: saturating pulsed excitation, unit excitation probability,
  fidelity near unity.

Photon/ion states live on the 4-dimensional space with basis ordered
|H0>, |H1>, |V0>, |V1> (photon polarization x ion qubit).  The intended
state pairs V with 1 and H with 0; re-excitation through the shelf can
instead produce the swapped pairing, and the emitted state is a classical
mixture of the two weighted by their production probabilities.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .atomic import BranchingModel, Level, ZeemanState
from .emission import CollectionModel, collection_fraction
from .errors import DomainError, Record, check, steps

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BASIS_LABELS",
    "POLARIZATION_MIXING_COEFF",
    "TwoQubitState",
    "CycleAmplitudes",
    "BranchProbabilities",
    "SchemeSpec",
    "D_SHELVING",
    "WEAK",
    "STRONG",
    "SCHEMES",
    "good_state",
    "bad_state",
    "fidelity",
    "geometric_branch_probabilities",
    "reexcitation_mixture",
    "fidelity_at_na",
    "entanglement_probability",
    "double_excitation_probability",
    "scheme_comparison",
    "fidelity_curve",
    "probability_curve",
]

BASIS_LABELS = ("H0", "H1", "V0", "V1")

#: Fidelity penalty per unit of collected solid-angle fraction, from the
#: standard analysis of sigma/pi mixing over a finite aperture.
POLARIZATION_MIXING_COEFF = 0.24

_TRACE_TOL = 1e-10
_HERMITICITY_TOL = 1e-10
_EIGENVALUE_TOL = -1e-10
_PURITY_TOL = 1e-8


class TwoQubitState(Record):
    """Density operator on the photon (H/V) x ion (0/1) space.

    The matrix must be Hermitian, unit trace and positive semidefinite
    within tight tolerances; it is copied and frozen on construction.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise DomainError(f"density matrix must be 4x4, got shape {rho.shape}")
        if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
            raise DomainError(f"trace must be 1, got {np.trace(rho)!r}")
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
            raise DomainError("density matrix must be Hermitian")
        if np.linalg.eigvalsh(rho).min() < _EIGENVALUE_TOL:
            raise DomainError("density matrix must be positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def purity(self) -> float:
        return float((self.rho @ self.rho).trace().real)

    @classmethod
    def from_vector(cls, amplitudes) -> "TwoQubitState":
        """Rank-1 state from a (not necessarily normalized) ket."""
        import numpy as np

        psi = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise DomainError("zero vector cannot define a state")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


def good_state() -> TwoQubitState:
    """Intended Bell pairing (|H0> + |V1>)/sqrt(2) as a density operator."""
    return TwoQubitState.from_vector([1.0, 0.0, 0.0, 1.0])


def bad_state() -> TwoQubitState:
    """Swapped Bell pairing (|H1> + |V0>)/sqrt(2), orthogonal to the good state."""
    return TwoQubitState.from_vector([0.0, 1.0, 1.0, 0.0])


def fidelity(target: TwoQubitState, actual: TwoQubitState) -> float:
    """Overlap <psi| rho |psi> of a pure target with the produced state."""
    if abs(target.purity - 1.0) > _PURITY_TOL:
        raise DomainError(f"target state must be pure, purity={target.purity!r}")
    value = float((target.rho @ actual.rho).trace().real)
    return min(max(value, 0.0), 1.0)


class CycleAmplitudes(Record):
    """Signed amplitudes steering the repeated-excitation walk.

    reinit:    decay back to the initialized shelf sublevel (keeps cycling
               on the good branch).
    crossover: pi decay into the shelf sublevel whose re-excitation feeds
               the wrong upper sublevel.
    bad_loop:  decay that returns the wrong branch to itself.
    """

    reinit: float
    crossover: float
    bad_loop: float

    def __post_init__(self) -> None:
        for name in ("reinit", "crossover", "bad_loop"):
            if check(name, getattr(self, name), -math.inf) ** 2 > 1.0 + 1e-12:
                raise DomainError(f"{name} amplitude squared exceeds 1")
        # both decay P1/2 +1/2 into the shelf, whose squares sum to 1
        if (total := self.reinit**2 + self.crossover**2) > 1.0 + 1e-12:
            raise DomainError(f"reinit and crossover amplitudes squared sum to {total!r}, above 1")

    @classmethod
    def from_model(cls, model: BranchingModel) -> "CycleAmplitudes":
        """Default amplitudes for a sigma-minus drive initialized at D3/2 m=+3/2."""
        p_plus = ZeemanState(Level.P12, +0.5)
        p_minus = ZeemanState(Level.P12, -0.5)
        d = lambda m: ZeemanState(Level.D32, m)  # noqa: E731
        return cls(
            reinit=model.amplitude(p_plus, d(+1.5)),
            crossover=model.amplitude(p_plus, d(+0.5)),
            bad_loop=model.amplitude(p_minus, d(+0.5)),
        )


class BranchProbabilities(NamedTuple):
    p_good: float
    p_bad: float
    p_dark: float


def geometric_branch_probabilities(
    model: BranchingModel, amps: CycleAmplitudes
) -> BranchProbabilities:
    """Closed-form geometric series for the pump-cycle branch probabilities.

        p_good = br_493 / (1 - reinit^2 br_650)
        p_bad  = br_493 br_650 crossover^2 / (1 - bad_loop^2 br_650)

    With the default barium amplitudes (squares 1/2, 1/3, 1/6) this gives
    p_good = 0.8442 and p_bad = 0.0687.  Note the p_bad form undercounts
    relative to an exact absorbing-chain treatment of the same walk, which
    yields 0.0794 (see ``pump_cycle.solve_exact``); the commonly quoted
    0.103 for this branch corresponds to the probability of ever reaching
    the wrong upper sublevel rather than of emitting from it.  The closed
    form is kept as stated; pass explicit amplitudes to explore variants.

    Rounding and the amplitudes' 1e-12 tolerance can carry the sums a hair
    past 1 (``reinit`` 1 gives br_493 / (1 - br_650), which may round to
    1 + 2e-16), so ``p_good`` is capped at 1 and ``p_bad`` at 1 - p_good:
    all three probabilities lie in [0, 1].
    """
    den_good = 1.0 - amps.reinit**2 * model.br_650
    den_bad = 1.0 - amps.bad_loop**2 * model.br_650
    if den_good <= 0.0 or den_bad <= 0.0:
        raise DomainError("geometric series does not converge: denominator <= 0")
    p_good = min(model.br_493 / den_good, 1.0)
    p_bad = min(model.br_493 * model.br_650 * amps.crossover**2 / den_bad, 1.0 - p_good)
    return BranchProbabilities(p_good, p_bad, 1.0 - p_good - p_bad)


def reexcitation_mixture(p_good: float, p_bad: float) -> TwoQubitState:
    """Classical mixture of the two Bell pairings with normalized weights."""
    total = check("p_good", p_good) + check("p_bad", p_bad)
    if total <= 0.0:
        raise DomainError("at least one branch probability must be positive")
    w_good = p_good / total
    w_bad = p_bad / total
    return TwoQubitState(w_good * good_state().rho + w_bad * bad_state().rho)


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


def double_excitation_probability(pulse_duration_s: float, lifetime_s: float) -> float:
    """Probability 1 - exp(-dt/tau) of a second excitation during a pulse."""
    check("pulse_duration_s", pulse_duration_s)
    return -math.expm1(-pulse_duration_s / check("lifetime_s", lifetime_s, open_lo=True))


class SchemeRow(NamedTuple):
    scheme: str
    pe_ps: float
    probability: float
    fidelity: float


def scheme_comparison(
    na: float, collection: CollectionModel | str = CollectionModel.QUADRATIC
) -> list[SchemeRow]:
    """Side-by-side success probability and fidelity of all schemes at one NA."""
    rows = []
    for spec in (D_SHELVING, WEAK, STRONG):
        rows.append(
            SchemeRow(
                spec.name,
                spec.excite_prob * spec.s_decay_prob,
                entanglement_probability(spec, na, collection),
                fidelity_at_na(spec.max_fidelity, na, collection),
            )
        )
    return rows


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
