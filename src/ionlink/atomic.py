"""Level structure and decay amplitudes for a Ba+ ion.

The model covers the three levels that matter for photon extraction: the
S1/2 ground state, the P1/2 excited state and the metastable D3/2 shelf.
Each level splits into Zeeman sublevels labelled by m_j, and electric-dipole
transitions between sublevels are labelled by the angular momentum the
photon carries along the quantization axis:

    q = m(upper) - m(lower),  with  sigma+ <-> q = +1,
                                    sigma- <-> q = -1,
                                    pi     <-> q =  0.

The same label applies in absorption (the atom gains q) and in emission
(the photon carries q away).  Branching out of P1/2 factorizes into a
coarse branching ratio per lower level (``br_493`` to S1/2, ``br_650`` to
D3/2) times the square of a Clebsch-Gordan amplitude within the manifold.

Sign convention: amplitudes are Condon-Shortley coefficients coupling
(lower state) x (photon, k=1) to the upper state, i.e.
``<j_low m_low; 1 q | j_up m_up>``.  Under m_j -> -m_j every amplitude picks
up the phase (-1)^(j_low + 1 - j_up): the P1/2 <-> D3/2 block is mirror
symmetric, the P1/2 <-> S1/2 block mirror antisymmetric.  Only squared
amplitudes enter any probability computed here.
"""

from __future__ import annotations

import enum
import math
import os
import re
from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from .errors import DomainError, Record, check

__all__ = [
    "Level",
    "Polarization",
    "ZeemanState",
    "BranchingModel",
    "DecayChannel",
    "default_barium_model",
    "allowed_decays",
    "drive_target",
    "polarization_for",
    "save_model",
    "load_model",
    "model_to_text",
    "model_from_text",
    "mj_from_text",
]

#: Tolerance for the probability sum rules built into every model.
NORMALIZATION_TOL = 1e-12


class Level(enum.Enum):
    """Electronic level, named by term symbol."""

    S12 = "S12"
    P12 = "P12"
    D32 = "D32"

    @property
    def j(self) -> float:
        return _TOTAL_J[self]


_TOTAL_J = {Level.S12: 0.5, Level.P12: 0.5, Level.D32: 1.5}


class Polarization(enum.Enum):
    """Photon (or drive) polarization along the quantization axis."""

    SIGMA_PLUS = "sigma+"
    SIGMA_MINUS = "sigma-"
    PI = "pi"

    @property
    def q(self) -> int:
        """Angular momentum carried by the photon, in units of hbar."""
        return _Q[self]


_Q = {Polarization.SIGMA_PLUS: +1, Polarization.SIGMA_MINUS: -1, Polarization.PI: 0}
_POL_BY_Q = {v: k for k, v in _Q.items()}


class ZeemanState(Record):
    """One Zeeman sublevel: a level plus its magnetic quantum number."""

    level: Level
    mj: float

    def __post_init__(self) -> None:
        twice = 2.0 * check("mj", self.mj, -math.inf)
        if twice != round(twice) or round(twice) % 2 == 0:
            raise DomainError(f"mj must be a half-odd-integer, got {self.mj}")
        if abs(self.mj) > self.level.j + 1e-12:
            raise DomainError(f"|mj|={abs(self.mj)} exceeds J={self.level.j} of {self.level.value}")

    def __str__(self) -> str:
        return f"{self.level.value} {_mj_to_text(self.mj)}"


def polarization_for(upper: ZeemanState, lower: ZeemanState) -> Polarization:
    """Polarization label of the upper -> lower transition, from q = m_up - m_low."""
    q = round(upper.mj - lower.mj)
    if q not in _POL_BY_Q or abs(upper.mj - lower.mj - q) > 1e-12:
        raise DomainError(f"no dipole channel between {upper} and {lower}")
    return _POL_BY_Q[q]


DecayChannel = namedtuple("DecayChannel", "lower polarization probability")


class BranchingModel(Record):
    """Decay amplitudes out of P1/2.

    Parameters
    ----------
    br_493 : float
        Probability that P1/2 decays to the S1/2 ground manifold
        (the 493 nm line for Ba+).
    br_650 : float
        Probability of decay to the D3/2 manifold (650 nm line).
        Must satisfy ``br_493 + br_650 == 1``.
    cg : mapping
        ``(upper, lower) -> signed amplitude`` for every allowed dipole
        channel.  For each P1/2 sublevel the squared amplitudes sum to one
        separately within each lower manifold.
    """

    br_493: float
    br_650: float
    cg: Mapping[tuple[ZeemanState, ZeemanState], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cg", MappingProxyType(dict(self.cg)))
        _validate_model(self)

    def amplitude(self, upper: ZeemanState, lower: ZeemanState) -> float:
        """Signed amplitude of the upper -> lower channel (0 if absent)."""
        return self.cg.get((upper, lower), 0.0)


def _sublevels(level: Level) -> list[ZeemanState]:
    j = level.j
    n = int(round(2 * j + 1))
    return [ZeemanState(level, -j + k) for k in range(n)]


def _validate_model(model: BranchingModel) -> None:
    check("br_493", model.br_493, 0.0, 1.0)
    check("br_650", model.br_650, 0.0, 1.0)
    if abs(model.br_493 + model.br_650 - 1.0) > NORMALIZATION_TOL:
        raise DomainError(
            f"branching fractions must sum to 1, got {model.br_493 + model.br_650!r}"
        )
    for (upper, lower), amp in model.cg.items():
        if upper.level is not Level.P12:
            raise DomainError(f"amplitude table may only contain P1/2 upper states, got {upper}")
        if lower.level is Level.P12:
            raise DomainError(f"amplitude table lower state may not be P1/2, got {lower}")
        polarization_for(upper, lower)  # raises unless |Delta m| <= 1
        if not math.isfinite(amp):
            raise DomainError(f"non-finite amplitude for {upper} -> {lower}")
    for upper in _sublevels(Level.P12):
        for lower_level in (Level.S12, Level.D32):
            total = sum(
                model.amplitude(upper, lower) ** 2 for lower in _sublevels(lower_level)
            )
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise DomainError(
                    f"squared amplitudes from {upper} into {lower_level.value} "
                    f"sum to {total!r}, expected 1"
                )


def default_barium_model() -> BranchingModel:
    """The bundled 138Ba+ model, ``data/ba138_branching.txt``, with br_493 = 0.7304.

    The file is the one source of these numbers.  Its P1/2 -> D3/2
    amplitudes are sqrt(1/2), -sqrt(1/3) and sqrt(1/6) (stretched sigma,
    pi, remaining sigma channel); the P1/2 -> S1/2 squares are 2/3 (sigma)
    and 1/3 (pi).  Signs follow the module-level Condon-Shortley convention.
    """
    return load_model(os.path.join(os.path.dirname(__file__), "data", "ba138_branching.txt"))


def allowed_decays(upper: ZeemanState, model: BranchingModel) -> list[DecayChannel]:
    """All decay channels out of one P1/2 sublevel.

    Channel probabilities are (manifold branching fraction) x (amplitude
    squared) and sum to one over the returned list.  Channels are ordered
    S1/2 before D3/2, descending in the lower m_j, so output is stable.
    """
    if upper.level is not Level.P12:
        raise DomainError(f"only P1/2 decays are modeled, got {upper}")
    channels = []
    for lower_level, fraction in ((Level.S12, model.br_493), (Level.D32, model.br_650)):
        for lower in sorted(_sublevels(lower_level), key=lambda z: -z.mj):
            amp = model.amplitude(upper, lower)
            if amp == 0.0:
                continue
            channels.append(
                DecayChannel(lower, polarization_for(upper, lower), fraction * amp**2)
            )
    return channels


def drive_target(lower: ZeemanState, drive: Polarization) -> ZeemanState | None:
    """P1/2 sublevel reached by absorbing one drive photon, or None if dark.

    Absorption adds the photon's q to m_j.  A sublevel whose target m_j
    falls outside the P1/2 manifold cannot be excited by this drive.
    """
    if lower.level is Level.P12:
        raise DomainError("drive must start from a lower level, not P1/2")
    target_mj = lower.mj + drive.q
    if abs(target_mj) > Level.P12.j + 1e-12:
        return None
    return ZeemanState(Level.P12, target_mj)


# ---------------------------------------------------------------------------
# plain-text serialization, so other species or isotopes can be loaded
# ---------------------------------------------------------------------------

_FORMAT_TAG = "branching-model/1"


def _mj_to_text(mj: float) -> str:
    num = int(round(2 * mj))
    return f"{'+' if num > 0 else '-'}{abs(num)}/2"


def mj_from_text(text: str) -> float:
    """Parse a sublevel written as a signed half-integer, e.g. ``+3/2`` -> 1.5."""
    m = re.fullmatch(r"([+-])(\d+)/2", text.strip())
    if not m:
        raise DomainError(f"cannot parse mj value {text!r} (expected e.g. +1/2)")
    sign = 1.0 if m.group(1) == "+" else -1.0
    return sign * int(m.group(2)) / 2.0


def model_to_text(model: BranchingModel) -> str:
    """Render a model in the key/value + table format documented in the README."""
    lines = [
        f"format = {_FORMAT_TAG}",
        f"br_493 = {model.br_493!r}",
        f"br_650 = {model.br_650!r}",
        "",
        "[cg]",
    ]
    def order(item):
        (upper, lower), _ = item
        return (-upper.mj, lower.level.value, -lower.mj)

    for (upper, lower), amp in sorted(model.cg.items(), key=order):
        lines.append(
            f"{upper.level.value} {_mj_to_text(upper.mj)} -> "
            f"{lower.level.value} {_mj_to_text(lower.mj)} : {amp!r}"
        )
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> BranchingModel:
    """Parse the serialization produced by :func:`model_to_text`; a header line
    other than ``key = value`` with a known key, and a header key or channel
    given twice, are refused, naming the line."""
    header: dict[str, str] = {}
    cg: dict[tuple[ZeemanState, ZeemanState], float] = {}
    in_table = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[cg]":
            in_table = True
            continue
        if not in_table:
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in ("format", "br_493", "br_650"):
                raise DomainError(f"cannot parse header line {line!r} "
                                  "(expected 'key = value', key one of: format, br_493, br_650)")
            if key in header:
                raise DomainError(f"repeated key in line {line!r}")
            header[key] = value.strip()
            continue
        m = re.fullmatch(
            r"(\w+)\s+([+-]\d+/2)\s*->\s*(\w+)\s+([+-]\d+/2)\s*:\s*(\S+)", line
        )
        if not m:
            raise DomainError(f"cannot parse amplitude line {line!r}")
        upper = ZeemanState(Level(m.group(1)), mj_from_text(m.group(2)))
        lower = ZeemanState(Level(m.group(3)), mj_from_text(m.group(4)))
        if (upper, lower) in cg:
            raise DomainError(f"repeated channel in line {line!r}")
        cg[(upper, lower)] = float(m.group(5))
    if header.get("format") != _FORMAT_TAG:
        raise DomainError(f"unknown model file format {header.get('format')!r}")
    try:
        br_493 = float(header["br_493"])
        br_650 = float(header["br_650"])
    except KeyError as exc:
        raise DomainError(f"model file missing key {exc}") from exc
    return BranchingModel(br_493=br_493, br_650=br_650, cg=cg)


def save_model(model: BranchingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def load_model(path) -> BranchingModel:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return model_from_text(fh.read())
        except ValueError as exc:  # not UTF-8, a bad number or level, or a DomainError
            raise DomainError(f"model file {path}: {exc}") from exc
