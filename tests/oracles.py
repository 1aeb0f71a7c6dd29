"""Independent reference implementations backing the expected test values.

Each oracle avoids the code path it checks: geometric series are summed
term by term, the pump cycle is iterated as an explicit 9-state matrix
power (drive and decay as separate steps), the Monte Carlo's random stream
is Philox4x64-10 from its specification, phase matching is solved by
bracketed bisection, sphere and cone integrals are done by quadrature, and
linear solves and Clebsch-Gordan coefficients are exact over fractions.  The
export kernels and renderers are checked against the loops they replaced:
one scalar evaluation per grid point or table cell.
"""

import csv
import io
import json
import math
from fractions import Fraction

import mpmath
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


PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox4x64_10(key: tuple[int, int], lo: int, n: int) -> list[int]:
    """Outputs ``lo .. lo+n-1`` of the Philox4x64-10 stream under ``key``, in Python ints.

    Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): the
    counter steps before each block of four outputs, each of the ten rounds
    multiplies counter words 0 and 2 into high and low halves, and the key is
    bumped by the Weyl constants between rounds.
    """
    out = []
    for block in range(lo // 4 + 1, (lo + n - 1) // 4 + 2):
        x, (k0, k1) = [block, 0, 0, 0], key
        for _ in range(10):
            hi0, lo0 = divmod(PHILOX_M[0] * x[0], 2**64)
            hi1, lo1 = divmod(PHILOX_M[1] * x[2], 2**64)
            x = [hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0]
            k0, k1 = (k0 + PHILOX_W[0]) % 2**64, (k1 + PHILOX_W[1]) % 2**64
        out += x
    return out[lo % 4:lo % 4 + n]


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


def cone_mixing_weight_quadrature(na: float) -> mpmath.mpf:
    """The cone's average of sin^2(theta) cos^2(theta) / 2 by 40-digit Gauss-Legendre
    quadrature: cos(theta) = sin(alpha) sin(psi) at angle alpha from the cone's axis
    (perpendicular to the dipole) and azimuth psi about it; the integrand depends on
    sin(psi)^2 alone, so psi runs over one quarter turn, counted four times."""
    with mpmath.workdps(40):
        beta = mpmath.asin(mpmath.mpf(na))

        def weighted(alpha, psi):
            x2 = (mpmath.sin(alpha) * mpmath.sin(psi)) ** 2
            return (1 - x2) * x2 / 2 * mpmath.sin(alpha)

        cone = mpmath.quad(weighted, [0, beta], [0, mpmath.pi / 2], method="gauss-legendre")
        return +(4 * cone / (2 * mpmath.pi * (1 - mpmath.cos(beta))))


def solve_fractions(a, b) -> list[list[Fraction]]:
    """X with ``a X = b``, exactly: Gauss-Jordan elimination over the floats' Fractions."""
    rows = [[Fraction(x) for x in (*a_row, *b_row)] for a_row, b_row in zip(a, b)]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def clebsch_gordan_square(j1, m1, j2, m2, j, m) -> Fraction:
    """<j1 m1; j2 m2 | j m>^2 with the coefficient's sign, by Racah's formula over
    Fractions (Condon-Shortley phases); the quantum numbers are Fractions or ints."""
    if m1 + m2 != m:
        return Fraction(0)

    def fact(x) -> int:
        assert Fraction(x).denominator == 1, x
        return math.factorial(int(x))

    prefactor = Fraction(
        (2 * j + 1) * fact(j + j1 - j2) * fact(j - j1 + j2) * fact(j1 + j2 - j)
        * fact(j + m) * fact(j - m) * fact(j1 - m1) * fact(j1 + m1) * fact(j2 - m2) * fact(j2 + m2),
        fact(j1 + j2 + j + 1))
    total = Fraction(0)
    for k in range(int(j1 + j2 - j) + 1):
        args = (k, j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args) >= 0:
            term = Fraction(1)
            for x in args:
                term /= fact(x)
            total += (-1) ** k * term
    return prefactor * total * abs(total)


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
