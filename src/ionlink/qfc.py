"""Quantum frequency conversion planning for three-wave mixing stages.

A stage mixes an input photon with a strong pump in a periodically poled
crystal.  Difference frequency generation (DFG) emits at nu_in - nu_pump,
sum frequency generation (SFG) at nu_in + nu_pump; energy conservation is
enforced exactly on construction.  Poling design phase-matches DFG only:
an SFG stage is held to the same condition, which normal dispersion leaves
unsolvable.  Momentum conservation is arranged by choosing the poling
period Lambda so that

    k_in - k_pump - k_out - 2 pi m / Lambda = 0

for an odd poling order m, with k = 2 pi n(lambda) / lambda evaluated on a
material dispersion model.  The bundled models (see ``data/``) are
published Sellmeier fits for MgO-doped congruent lithium niobate and for
the z axis of flux-grown KTP, each carrying its own provenance notes,
validity range and version tag; conversion efficiency is never predicted
here and always enters as a user-supplied number.

Frequency ordering matters for noise: a pump that is not the lowest
frequency in the process can downconvert into the signal band (SPDC), and
an output too close to the pump sits on the Raman pedestal (SRS).
:func:`noise_audit` flags both.
"""

from __future__ import annotations

import enum
import json
import math
import os
from collections import namedtuple
from collections.abc import Mapping, Sequence

from .errors import DomainError, Record, check, whole

__all__ = [
    "C_NM_THZ",
    "LightField",
    "MixKind",
    "DispersionModel",
    "ConversionStage",
    "NoiseFinding",
    "ConversionRow",
    "load_dispersion",
    "dispersion_data_version",
    "dfg_output",
    "sfg_output",
    "qpm_residual",
    "solve_poling_period",
    "noise_audit",
    "chain_efficiency",
    "plan_stage",
    "standard_conversion_table",
]

#: Vacuum speed of light in nm * THz (exact).
C_NM_THZ = 299792.458

_DUALITY_RTOL = 1e-6
_ENERGY_RTOL = 1e-9
_CHAIN_MATCH_NM = 0.1


class LightField(Record):
    """One optical field, stored redundantly as wavelength and frequency."""

    wavelength_nm: float
    frequency_thz: float

    def __post_init__(self) -> None:
        check("wavelength_nm", self.wavelength_nm, open_lo=True)
        check("frequency_thz", self.frequency_thz, open_lo=True)
        if abs(self.wavelength_nm * self.frequency_thz - C_NM_THZ) > _DUALITY_RTOL * C_NM_THZ:
            raise DomainError(
                f"wavelength {self.wavelength_nm} nm and frequency "
                f"{self.frequency_thz} THz disagree with c"
            )

    @classmethod
    def from_wavelength_nm(cls, nm: float) -> "LightField":
        return cls(nm, C_NM_THZ / check("wavelength_nm", nm, open_lo=True))

    @classmethod
    def from_frequency_thz(cls, thz: float) -> "LightField":
        return cls(C_NM_THZ / check("frequency_thz", thz, open_lo=True), thz)


class MixKind(enum.Enum):
    SFG = "sfg"
    DFG = "dfg"


def dfg_output(input_field: LightField, pump: LightField) -> LightField:
    """Difference-frequency output, nu_out = nu_in - nu_pump."""
    if input_field.frequency_thz <= pump.frequency_thz:
        raise DomainError(
            "DFG requires the input above the pump frequency: "
            f"{input_field.frequency_thz} THz <= {pump.frequency_thz} THz"
        )
    return LightField.from_frequency_thz(input_field.frequency_thz - pump.frequency_thz)


def sfg_output(input_field: LightField, pump: LightField) -> LightField:
    """Sum-frequency output, nu_out = nu_in + nu_pump."""
    return LightField.from_frequency_thz(input_field.frequency_thz + pump.frequency_thz)


# ---------------------------------------------------------------------------
# dispersion data
# ---------------------------------------------------------------------------

_PACKAGED_MODELS = {
    "ppln": "ppln_mgo_cln.json",
    "pplne": "ppln_mgo_cln.json",   # accepted alias: e axis is the default
    "ppktp": "ktp_z.json",
}


class DispersionModel(Record):
    """Refractive-index model over a stated validity window at fixed temperature."""

    material: str
    form: str
    coefficients: Mapping[str, object]
    valid_range_nm: tuple[float, float]
    temperature_k: float
    version: str
    notes: str = ""

    def index(self, wavelength_nm: float, label: str = "wavelength") -> float:
        lo, hi = self.valid_range_nm
        if not lo <= wavelength_nm <= hi:
            raise DomainError(
                f"{label} {wavelength_nm} nm outside the {self.material} dispersion "
                f"validity range [{lo}, {hi}] nm"
            )
        lam_um = wavelength_nm / 1000.0
        t_c = self.temperature_k - 273.15
        try:
            n = _INDEX_FORMS[self.form](self.coefficients, lam_um, t_c)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            raise DomainError(f"dispersion model {self.material} cannot be evaluated: {exc!r}") from exc
        if not math.isfinite(n) or not 1.0 < n < 4.0:
            raise DomainError(
                f"dispersion model {self.material} returned non-physical index {n} "
                f"at {wavelength_nm} nm"
            )
        return n


def _n_mgo_cln_e(c: Mapping, lam_um: float, t_c: float) -> float:
    f = (t_c - 24.5) * (t_c + 570.82)
    lam2 = lam_um * lam_um
    n2 = (
        c["a1"] + c["b1"] * f
        + (c["a2"] + c["b2"] * f) / (lam2 - (c["a3"] + c["b3"] * f) ** 2)
        + (c["a4"] + c["b4"] * f) / (lam2 - c["a5"] ** 2)
        - c["a6"] * lam2
    )
    return math.sqrt(n2)


def _n_ktp_z(c: Mapping, lam_um: float, t_c: float) -> float:
    lam2 = lam_um * lam_um
    n25 = math.sqrt(
        c["A"] + c["B"] / (1.0 - c["C"] / lam2) + c["D"] / (1.0 - c["E"] / lam2)
        - c["F"] * lam2
    )
    a = c["ta0"] + c["ta1"] * lam_um + c["ta2"] * lam2 + c["ta3"] * lam_um**3
    b = c["tb0"] + c["tb1"] * lam_um + c["tb2"] * lam2 + c["tb3"] * lam_um**3
    return n25 + 1e-6 * (a * (t_c - 25.0) + b * (t_c - 25.0) ** 2)


def _n_sellmeier_poles(c: Mapping, lam_um: float, t_c: float) -> float:
    lam2 = lam_um * lam_um
    n2 = c.get("A", 1.0) - c.get("D", 0.0) * lam2
    for b_i, c_i in c["poles"]:
        n2 += b_i * lam2 / (lam2 - c_i)
    return math.sqrt(n2)


_INDEX_FORMS = {
    "mgo_cln_e": _n_mgo_cln_e,
    "ktp_z": _n_ktp_z,
    "sellmeier_poles": _n_sellmeier_poles,
}


def load_dispersion(name_or_path: str) -> DispersionModel:
    """Load a bundled model by name (``ppln``, ``ppktp``) or a JSON file by path."""
    bundled = _PACKAGED_MODELS.get(name_or_path.lower())
    path = os.path.join(os.path.dirname(__file__), "data", bundled) if bundled else name_or_path
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(
            f"unknown dispersion model {name_or_path!r}: not a bundled name "
            f"({', '.join(sorted(set(_PACKAGED_MODELS)))}) and no such file"
        ) from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise DomainError(f"cannot parse dispersion file {name_or_path}: {exc}") from exc
    form = payload.get("form") if isinstance(payload, dict) else None
    if form not in _INDEX_FORMS:
        raise DomainError(f"unsupported dispersion form {form!r} in {name_or_path}")
    try:
        lo, hi = payload["valid_range_nm"]
        for key in ("material", "version"):
            if not isinstance(payload[key], str):
                raise TypeError(f"{key} must be a string, got {payload[key]!r}")
        return DispersionModel(
            material=payload["material"],
            form=form,
            coefficients=payload["coefficients"],
            valid_range_nm=(check("valid_range_nm", lo), check("valid_range_nm", hi)),
            temperature_k=check("reference_temperature_k", payload["reference_temperature_k"]),
            version=payload["version"],
            notes=payload.get("notes", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:  # a key missing, or not a number or string
        raise DomainError(f"malformed dispersion file {name_or_path}: {exc!r}") from exc


def dispersion_data_version() -> str:
    """Version tag shared by the bundled dispersion data files."""
    versions = {load_dispersion(name).version for name in ("ppln", "ppktp")}
    return "/".join(sorted(versions))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


class ConversionStage(Record):
    """One three-wave-mixing step with its poling design and measured efficiency."""

    input: LightField
    pump: LightField
    output: LightField
    kind: MixKind
    poling_period_um: float
    poling_order: int = 1
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        sign = -1.0 if self.kind is MixKind.DFG else 1.0
        expected = self.input.frequency_thz + sign * self.pump.frequency_thz
        if abs(self.output.frequency_thz - expected) > _ENERGY_RTOL * self.input.frequency_thz:
            raise DomainError(
                f"energy conservation violated: output {self.output.frequency_thz} THz, "
                f"expected {expected} THz for {self.kind.value.upper()}"
            )
        check("poling_period_um", self.poling_period_um, open_lo=True)
        whole("poling order", self.poling_order, 1, odd=True)
        check("efficiency", self.efficiency, 0.0, 1.0)


def _bulk_mismatch_per_um(
    input_field: LightField, pump: LightField, output: LightField,
    dispersion: DispersionModel,
) -> float:
    """k_in - k_pump - k_out in 1/um, with k = 2 pi n / lambda (vacuum lambda)."""
    k = lambda f, label: (  # noqa: E731
        2.0 * math.pi * dispersion.index(f.wavelength_nm, label) / (f.wavelength_nm / 1000.0)
    )
    return k(input_field, "input") - k(pump, "pump") - k(output, "output")


def qpm_residual(stage: ConversionStage, dispersion: DispersionModel) -> float:
    """Phase mismatch k_in - k_pump - k_out - 2 pi m / Lambda, in 1/m."""
    bulk = _bulk_mismatch_per_um(stage.input, stage.pump, stage.output, dispersion)
    grating = 2.0 * math.pi * stage.poling_order / stage.poling_period_um
    return (bulk - grating) * 1e6


def solve_poling_period(
    input_field: LightField,
    pump: LightField,
    output: LightField,
    dispersion: DispersionModel,
    poling_order: int = 1,
) -> float:
    """Poling period (micrometers) closing the phase-matching condition.

    Lambda = 2 pi m / (k_in - k_pump - k_out); the first-order period is
    computed once and scaled by the order, so the order-m period is exactly
    m times the order-1 period.  An order whose period is not a finite
    float is refused.
    """
    whole("poling order", poling_order, 1, odd=True)
    bulk = _bulk_mismatch_per_um(input_field, pump, output, dispersion)
    if bulk <= 0.0:
        raise DomainError(
            "this frequency ordering cannot be quasi-phase-matched at positive "
            f"poling period with the k_in - k_pump - k_out convention (mismatch "
            f"{bulk * 1e6} 1/m <= 0)"
        )
    try:
        period = poling_order * (2.0 * math.pi / bulk)
    except OverflowError:  # an order beyond the float range
        period = math.inf
    if period == math.inf:
        raise DomainError("poling order too large: its poling period exceeds the float range")
    return period


# ---------------------------------------------------------------------------
# noise ordering rules
# ---------------------------------------------------------------------------


NoiseFinding = namedtuple("NoiseFinding", "code message")


def noise_audit(stage: ConversionStage, srs_threshold_thz: float = 5.0) -> list[NoiseFinding]:
    """Frequency-ordering checks against pump-induced noise.

    SPDC_RISK when the pump is not the lowest frequency in the process;
    SRS_RISK when the output sits within ``srs_threshold_thz`` of the pump;
    a single PASS finding otherwise.
    """
    check("srs_threshold_thz", srs_threshold_thz)
    nu_in = stage.input.frequency_thz
    nu_p = stage.pump.frequency_thz
    nu_out = stage.output.frequency_thz
    findings = []
    if nu_p > nu_out or nu_p > nu_in:
        findings.append(
            NoiseFinding(
                "SPDC_RISK",
                f"pump at {nu_p:.1f} THz is not the lowest frequency in the process "
                f"(input {nu_in:.1f} THz, output {nu_out:.1f} THz); pump downconversion "
                "can seed photons at the converted band",
            )
        )
    detuning = nu_out - nu_p
    if detuning < srs_threshold_thz:
        findings.append(
            NoiseFinding(
                "SRS_RISK",
                f"output-pump detuning {detuning:.3f} THz is below the "
                f"{srs_threshold_thz:g} THz threshold; Raman scattering of the pump "
                "can reach the output band",
            )
        )
    if not findings:
        findings.append(
            NoiseFinding(
                "PASS",
                f"pump is the lowest frequency and the output-pump detuning "
                f"{detuning:.3f} THz clears the {srs_threshold_thz:g} THz threshold",
            )
        )
    return findings


def chain_efficiency(stages: Sequence[ConversionStage]) -> float:
    """End-to-end efficiency of a conversion chain (product of stage efficiencies).

    Adjacent stages must connect: each output wavelength has to match the
    next input wavelength within 0.1 nm.
    """
    for first, second in zip(stages, stages[1:]):
        gap = abs(first.output.wavelength_nm - second.input.wavelength_nm)
        if gap > _CHAIN_MATCH_NM:
            raise DomainError(
                f"stage output {first.output.wavelength_nm} nm does not feed the next "
                f"input {second.input.wavelength_nm} nm (gap {gap} nm)"
            )
    return math.prod((stage.efficiency for stage in stages), start=1.0)


# ---------------------------------------------------------------------------
# planning helpers
# ---------------------------------------------------------------------------


def plan_stage(
    input_nm: float,
    pump_nm: float,
    kind: MixKind,
    dispersion: DispersionModel,
    poling_order: int = 1,
    efficiency: float = 1.0,
    srs_threshold_thz: float = 5.0,
) -> tuple[ConversionStage, list[NoiseFinding]]:
    """Design one stage from wavelengths: output, poling period, noise findings."""
    input_field = LightField.from_wavelength_nm(input_nm)
    pump = LightField.from_wavelength_nm(pump_nm)
    output = (dfg_output if kind is MixKind.DFG else sfg_output)(input_field, pump)
    period = solve_poling_period(input_field, pump, output, dispersion, poling_order)
    stage = ConversionStage(
        input=input_field,
        pump=pump,
        output=output,
        kind=kind,
        poling_period_um=period,
        poling_order=poling_order,
        efficiency=efficiency,
    )
    return stage, noise_audit(stage, srs_threshold_thz)


ConversionRow = namedtuple("ConversionRow", "conversion input_thz output_thz pump_thz device stage")


_STANDARD_CONVERSIONS = (
    (493.0, 1343.0, "ppktp"),   # visible line to the Rb-compatible near-IR
    (650.0, 1343.0, "ppln"),    # red line straight into the telecom O band
    (780.0, 1569.0, "ppln"),    # near-IR onward to the telecom C band
)


def standard_conversion_table() -> list[ConversionRow]:
    """The three bundled single-pump DFG designs with solved poling periods."""
    rows = []
    for input_nm, pump_nm, material in _STANDARD_CONVERSIONS:
        stage, _ = plan_stage(input_nm, pump_nm, MixKind.DFG, load_dispersion(material))
        rows.append(
            ConversionRow(
                conversion=(
                    f"{input_nm:g} nm -> {stage.output.wavelength_nm:.0f} nm"
                ),
                input_thz=stage.input.frequency_thz,
                output_thz=stage.output.frequency_thz,
                pump_thz=stage.pump.frequency_thz,
                device=material.upper(),
                stage=stage,
            )
        )
    return rows
