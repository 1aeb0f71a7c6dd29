"""Independent reference implementations backing the expected test values.

Each oracle avoids the code path it checks: geometric series are summed
term by term, the pump cycle is iterated as an explicit 9-state matrix
power (drive and decay as separate steps), phase matching is solved by
bracketed bisection, and sphere integrals are done by quadrature.  The
export kernels and renderers are checked against the loops they replaced:
one scalar evaluation per grid point or table cell.
"""

import csv
import io
import json
import math

import numpy as np

from ionlink.atomic import (
    BranchingModel,
    Level,
    ZeemanState,
    allowed_decays,
    drive_target,
)
from ionlink.emission import (
    EmissionDirection,
    pi_emission,
    polarization_overlap,
    sigma_emission,
)
from ionlink.fiber import standard_channel, transmission


def geometric_p_good(br_493: float, br_650: float, reinit_sq: float, terms: int = 400) -> float:
    """Term-by-term sum of br_493 * (reinit_sq * br_650)^k."""
    return sum(br_493 * (reinit_sq * br_650) ** k for k in range(terms))


def pump_cycle_power_iteration(model, initial, drive, steps: int = 4000):
    """Absorption probabilities by explicit matrix powers over all 9 states.

    States: four D3/2 sublevels (drive pending), two P1/2 sublevels (decay
    pending), then good/bad/dark absorbers.  One matrix application does
    either a drive collapse or a decay, unlike the production solver which
    contracts the D states away.
    """
    d_states = [ZeemanState(Level.D32, m) for m in (1.5, 0.5, -0.5, -1.5)]
    p_states = [ZeemanState(Level.P12, m) for m in (0.5, -0.5)]
    index = {s: i for i, s in enumerate(d_states + p_states)}
    good_p = drive_target(initial, drive)
    n = len(index) + 3
    i_good, i_bad, i_dark = n - 3, n - 2, n - 1
    t = np.zeros((n, n))
    for d in d_states:
        target = drive_target(d, drive)
        t[index[d], i_dark if target is None else index[target]] = 1.0
    for p in p_states:
        for lower, _pol, prob in allowed_decays(p, model):
            if lower.level is Level.S12:
                t[index[p], i_good if p == good_p else i_bad] += prob
            else:
                t[index[p], index[lower]] += prob
    for i in (i_good, i_bad, i_dark):
        t[i, i] = 1.0
    v = np.zeros(n)
    v[index[initial]] = 1.0
    for _ in range(steps):
        v = v @ t
    return float(v[i_good]), float(v[i_bad]), float(v[i_dark])


def bisect_poling_period(dispersion, lam1_nm, lamp_nm, lam2_nm, order=1,
                         lo=1e-3, hi=1e6, iterations=200):
    """Root of k1 - kp - k2 - 2 pi m / L in L (micrometers) by bisection."""
    k = lambda nm: 2.0 * math.pi * dispersion.index(nm) / (nm / 1000.0)  # noqa: E731
    bulk = k(lam1_nm) - k(lamp_nm) - k(lam2_nm)
    g = lambda period: bulk - 2.0 * math.pi * order / period  # noqa: E731
    assert g(lo) < 0.0 < g(hi), "bisection bracket does not straddle the root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_average(intensity_of_theta, n: int = 200_001) -> float:
    """Solid-angle average of an azimuth-independent intensity."""
    theta = np.linspace(0.0, math.pi, n)
    values = np.array([intensity_of_theta(t) for t in theta])
    return float(np.trapezoid(values * np.sin(theta), theta) / 2.0)


def cap_fraction_quadrature(na: float, n: int = 200_001) -> float:
    """Solid-angle fraction of a cone of half-angle arcsin(NA), by quadrature."""
    beta = math.asin(na)
    alpha = np.linspace(0.0, beta, n)
    return float(np.trapezoid(np.sin(alpha), alpha) / 2.0)


def cone_mixing_weight_meshgrid(na: float) -> float:
    """The cone's midpoint-rule average of sin^2 cos^2 / 2 as whole-grid numpy arrays,
    200 polar x 100 azimuthal cells."""
    beta = math.asin(na)
    alpha = (np.arange(200) + 0.5) * (beta / 200)
    psi = (np.arange(100) + 0.5) * (2.0 * math.pi / 100)
    a, p = np.meshgrid(alpha, psi, indexing="ij")
    cos_theta = np.sin(a) * np.sin(p)
    weight = np.sin(a)
    return float(((1.0 - cos_theta**2) * cos_theta**2 / 2.0 * weight).sum() / weight.sum())


def bell_mixture_fidelity(p_good: float, p_bad: float) -> float:
    """tr(|good><good| rho) for rho = w_g |good><good| + w_b |bad><bad|, the weights
    normalized: 4x4 complex density matrices on the (H0, H1, V0, V1) basis, where
    |good> = (|H0> + |V1>)/sqrt(2) and |bad> = (|H1> + |V0>)/sqrt(2)."""

    def pure(ket):
        psi = np.array(ket, dtype=complex) / np.linalg.norm(ket)
        return np.outer(psi, psi.conj())

    good, bad = pure([1.0, 0.0, 0.0, 1.0]), pure([0.0, 1.0, 1.0, 0.0])
    total = p_good + p_bad
    rho = p_good / total * good + p_bad / total * bad
    return float((good @ rho).trace().real)


def random_branching_model(rng: np.random.Generator) -> BranchingModel:
    """A valid random model: random branching ratio, random signed amplitudes."""
    br_493 = float(rng.uniform(0.2, 0.95))
    cg = {}
    for pm in (0.5, -0.5):
        upper = ZeemanState(Level.P12, pm)
        for level in (Level.S12, Level.D32):
            allowed = [
                m for m in np.arange(-level.j, level.j + 1.0)
                if abs(pm - m) <= 1.0 + 1e-9
            ]
            weights = rng.dirichlet(np.ones(len(allowed)))
            signs = rng.choice([-1.0, 1.0], size=len(allowed))
            for m, w, s in zip(allowed, weights, signs):
                cg[(upper, ZeemanState(level, float(m)))] = float(s * math.sqrt(w))
    return BranchingModel(br_493=br_493, br_650=1.0 - br_493, cg=cg)


def pattern_rows_per_point(thetas, phis):
    """Emission-pattern rows from the scalar state functions, one point at a time."""
    for theta in thetas:
        for phi in phis:
            d = EmissionDirection(float(theta), float(phi))
            yield (
                d.theta,
                d.phi,
                pi_emission(d).intensity,
                sigma_emission(d, +1).intensity,
                sigma_emission(d, -1).intensity,
                abs(polarization_overlap(d, +1)),
            )


def transmission_curve_rows_per_row(max_km, step_km, eta_780=0.05, eta_1259=0.05, eta_1550=0.18):
    """Rows of ``fiber.transmission_curves``, one ``transmission`` call per cell."""
    channels = [standard_channel(nm) for nm in (493, 780, 650, 1259, 1550)]
    scales = [1.0, eta_780, 1.0, eta_1259, eta_1550]
    n_steps = int(math.floor(max_km / step_km + 1e-9))
    return [
        [i * step_km] + [s * transmission(ch, i * step_km) for ch, s in zip(channels, scales)]
        for i in range(n_steps + 1)
    ]


def format_cell_per_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def render_csv_per_cell(columns, rows, footnotes=()) -> str:
    """CSV through ``csv.writer``, every cell formatted on its own."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell_per_cell(v) for v in row])
    for note in footnotes:
        buf.write(f"# {note}\n")
    return buf.getvalue()


def render_json_dumps(payload) -> str:
    """JSON through ``json.dumps(indent=2)``, refusing NaN and infinities."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
