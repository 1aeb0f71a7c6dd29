"""Dipole emission patterns and collection-optic geometry.

Directions are spherical angles about the quantization (dipole) axis.
The unnormalized transverse polarization states of the emitted photon are

    pi      : (-sin(theta), 0)
    sigma+- : exp(+-i phi)/sqrt(2) * (cos(theta), +-i)

written in (theta-hat, phi-hat) components.  At theta = pi/2 the two are
orthogonal and the pi intensity is twice the sigma intensity; away from
that plane they mix, which is what degrades entanglement fidelity for
large collection apertures.
"""

from __future__ import annotations

import cmath
import enum
import math
from array import array

from .errors import DomainError, Record, check, steps

__all__ = [
    "EmissionDirection",
    "PolarizationVector",
    "CollectionModel",
    "pi_emission",
    "sigma_emission",
    "polarization_overlap",
    "collection_fraction",
    "cone_mixing_weight",
    "pattern_rows",
]

_SQRT2 = math.sqrt(2.0)


class EmissionDirection(Record):
    """Spherical direction: polar angle from the dipole axis, azimuth."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        check("theta", self.theta, 0.0, math.pi)
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2*pi), got {self.phi}")


class PolarizationVector(Record):
    """Transverse field amplitudes along theta-hat and phi-hat (unnormalized)."""

    e_theta: complex
    e_phi: complex

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, self._values()):
            if not cmath.isfinite(value):
                raise DomainError(f"{name} out of range: {value} (must be finite)")

    @property
    def intensity(self) -> float:
        return abs(self.e_theta) ** 2 + abs(self.e_phi) ** 2


def pi_emission(direction: EmissionDirection) -> PolarizationVector:
    """Polarization of a pi photon: (-sin(theta), 0)."""
    return PolarizationVector(-math.sin(direction.theta), 0.0)


def sigma_emission(direction: EmissionDirection, sign: int) -> PolarizationVector:
    """Polarization of a sigma(+-) photon: exp(+-i phi)/sqrt(2) (cos(theta), +-i)."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    phase = cmath.exp(1j * sign * direction.phi) / _SQRT2
    return PolarizationVector(phase * math.cos(direction.theta), phase * sign * 1j)


def polarization_overlap(direction: EmissionDirection, sign: int) -> complex:
    """Inner product <pi | sigma(sign)>, conjugate-linear in the first slot.

    Evaluates to -sin(theta) cos(theta) exp(+-i phi)/sqrt(2): zero in the
    theta = pi/2 observation plane and along the axis, nonzero elsewhere.
    """
    p = pi_emission(direction)
    s = sigma_emission(direction, sign)
    return p.e_theta.conjugate() * s.e_theta + p.e_phi.conjugate() * s.e_phi


class CollectionModel(enum.Enum):
    """Solid-angle fraction model for a lens of numerical aperture NA."""

    QUADRATIC = "quadratic"            # NA^2 / 4, small-angle form
    EXACT_SOLID_ANGLE = "exact"        # (1 - cos(arcsin NA)) / 2

    @classmethod
    def _missing_(cls, value):
        """``CollectionModel(value)`` of an unknown value raises this DomainError."""
        raise DomainError(f"unknown collection model {value!r} (must be one of: "
                          f"{', '.join(model.value for model in cls)})")


def _cap_height(na: float) -> float:
    """``1 - sqrt(1 - na^2)`` for ``na`` in [0, 1], the height of the unit sphere's
    cap inside a cone of sine ``na``, as ``na^2 / (1 + sqrt((1 - na)(1 + na)))``:
    neither the height nor ``1 - na^2`` cancels, so it is within 2 ulp at any ``na``."""
    return na * na / (1.0 + math.sqrt((1.0 - na) * (1.0 + na)))


def collection_fraction(
    na: float, model: CollectionModel | str = CollectionModel.QUADRATIC
) -> float:
    """Fraction of the full sphere captured by a lens of numerical aperture ``na``
    in [0, 1]; ``model`` may be a :class:`CollectionModel` or its value, and
    anything else is refused.  The exact solid angle is half the cap height
    ``1 - sqrt(1 - na^2)``, taken in a form that does not cancel: at NA 1e-9
    it is 2.5e-19, not 0."""
    na = check("NA", na, 0.0, 1.0)
    if CollectionModel(model) is CollectionModel.QUADRATIC:
        return na * na / 4.0
    return _cap_height(na) / 2.0


def cone_mixing_weight(na: float) -> float:
    """Average |<pi|sigma+>|^2 over the collection cone, observation axis in the
    theta = pi/2 plane.

    The solid-angle average of sin^2(theta) cos^2(theta) / 2 over a cone of
    half-angle arcsin(NA) about an axis perpendicular to the dipole, in closed
    form: with c = sqrt(1 - NA^2), (1 - c)(16 + 17c + 18c^2 + 9c^3) / 240,
    1/15 at NA 1.  It is a qualitative check, growing monotonically with NA
    as a larger aperture admits more polarization mixing, and not the
    coefficient of any fidelity formula.
    """
    height = _cap_height(check("NA", na, 0.0, 1.0, open_lo=True))
    c = 1.0 - height
    return height * (16.0 + c * (17.0 + c * (18.0 + 9.0 * c))) / 240.0


def pattern_rows(theta_step_deg: float, phi_step_deg: float):
    """Emission-pattern samples on the export grid.

    Theta runs over [0, 180] degrees and phi over [0, 360) degrees in the
    given steps; both are yielded in radians.  Theta ends at the pole only
    when the step divides 180 degrees (to :func:`~ionlink.errors.steps`'
    tolerance): a 7 degree step ends at 175.  The steps are checked, and the
    row cap applied to theta x phi rows, when the first row is pulled.

    Yields ``(theta, phi, i_pi, i_sigma_plus, i_sigma_minus, overlap_abs)``
    per grid point, theta outermost, intensities from the unnormalized
    states above.  The numbers are bit-identical to evaluating
    :func:`pi_emission`, :func:`sigma_emission` and
    :func:`polarization_overlap` point by point (``tests/oracles.py`` keeps
    that loop), from per-axis factors: ``-sin(theta)``, its square and
    ``cos(theta)`` once per theta line, the sigma phase and ``|e_phi|^2``
    once per phi.  One sigma pass serves both sigma columns: sigma-'s phase
    is sigma+'s conjugate, and the intensities take only magnitudes.  The
    overlap drops the point-by-point sum's zero terms, which change at most
    the sign of a zero, and ``abs`` ignores it.  Every grid direction lies
    in range, so none is checked again.  Only the phi factors are held, in
    two float arrays and one list of phases; each theta line is computed as
    its rows are pulled, so memory does not grow with the number of theta
    lines.
    """
    n_theta = steps("theta_step_deg", theta_step_deg, 180.0) + 1
    steps("phi_step_deg", phi_step_deg, 360.0 * n_theta)  # the cap is on theta x phi rows
    # 8 B per phi and factor in the arrays, ~40 B per complex: no tuple per phi
    phis, phases, e_phi_sqs = array("d"), [], array("d")
    for p in range(math.ceil(360.0 / phi_step_deg)):
        if p * phi_step_deg < 360.0:
            # sigma_emission(EmissionDirection(0.0, phi), +1), operation for operation
            phi = math.radians(p * phi_step_deg)
            phase = cmath.exp(1j * 1 * phi) / _SQRT2
            phis.append(phi)
            phases.append(phase * math.cos(0.0))
            e_phi_sqs.append(abs(phase * 1 * 1j) ** 2)
    for t in range(n_theta):
        theta = math.radians(min(t * theta_step_deg, 180.0))
        # pi_emission's e_theta and intensity: adding |e_phi|^2 = 0.0 is exact
        minus_sin, cos = -math.sin(theta), math.cos(theta)
        i_pi = abs(minus_sin) ** 2
        for phi, phase, e_phi_sq in zip(phis, phases, e_phi_sqs):
            e = phase * cos
            i_sigma = abs(e) ** 2 + e_phi_sq
            yield theta, phi, i_pi, i_sigma, i_sigma, abs(minus_sin * e)
