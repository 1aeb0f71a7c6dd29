"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS report per criterion alongside the pytest status.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from ionlink.atomic import Level, ZeemanState, default_barium_model
from ionlink.cli import main
from ionlink.emission import EmissionDirection, pi_emission, polarization_overlap, sigma_emission
from ionlink.fiber import conversion_crossing, standard_channel, transmission
from ionlink.pump_cycle import (
    PumpCycleConfig,
    geometric_branch_probabilities,
    simulate,
    solve_exact,
)
from ionlink.qfc import MixKind, load_dispersion, plan_stage, qpm_residual, standard_conversion_table
from ionlink.schemes import (
    D_SHELVING,
    SCHEMES,
    entanglement_probability,
    fidelity_at_na,
    mixture_fidelity,
    scheme_comparison,
)
from ionlink.trap import TrapConfig, pseudopotential, secular_frequency


def report(number, text):
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_geometric_good_branch():
    model = default_barium_model()
    reinit = model.amplitude(ZeemanState(Level.P12, +0.5), ZeemanState(Level.D32, +1.5))
    assert reinit**2 == pytest.approx(0.5, abs=1e-12)
    p_good = geometric_branch_probabilities(model).p_good
    assert p_good == pytest.approx(0.844, abs=1e-3)
    report(1, f"geometric series good branch {p_good:.6f} within 0.844 +- 0.001")


def test_criterion_2_mixed_state_fidelity():
    f_max = mixture_fidelity(0.844, 0.103)
    assert f_max == pytest.approx(0.891, abs=2e-3)
    f_at_06 = fidelity_at_na(f_max, 0.6)
    assert f_at_06 == pytest.approx(0.868, abs=3e-3)
    report(2, f"mixture fidelity {f_max:.6f} (0.891 +- 0.002), at NA=0.6 {f_at_06:.6f} (0.868 +- 0.003)")


def test_criterion_3_scheme_table_reproduction(capsys):
    assert main(["schemes", "--na", "0.6"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if not line.startswith("#")]
    footnotes = [line for line in out.splitlines() if line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))[1:]
    table = {row[0]: tuple(float(v) for v in row[1:]) for row in rows}
    reference = {
        "d-shelving": (0.947, 0.085, 0.87),
        "weak": (0.146, 0.014, 0.98),
        "strong": (0.730, 0.068, 0.98),
    }
    for scheme, expected in reference.items():
        for got, want in zip(table[scheme], expected):
            assert got == pytest.approx(want, abs=5e-3)
    assert any("0.014" in note and "0.068" in note for note in footnotes)
    report(3, "all nine scheme-table cells within +-0.005 with discrepancy footnote present")


def test_criterion_4_aperture_curves():
    for spec in SCHEMES.values():
        assert fidelity_at_na(spec.max_fidelity, 0.0) == spec.max_fidelity
        assert fidelity_at_na(spec.max_fidelity, 1.0) == spec.max_fidelity - 0.06
    by_name = {row.scheme: row for row in scheme_comparison(0.6)}
    assert by_name["d-shelving"].probability == pytest.approx(0.085, abs=5e-3)
    assert by_name["weak"].probability == pytest.approx(0.014, abs=5e-3)
    assert by_name["strong"].probability == pytest.approx(0.068, abs=5e-3)
    grid = np.linspace(0.0, 1.0, 201)
    fid = [fidelity_at_na(0.891, float(na)) for na in grid]
    prob = [entanglement_probability(D_SHELVING, float(na)) for na in grid]
    assert all(b < a for a, b in zip(fid, fid[1:]))
    assert all(b > a for a, b in zip(prob, prob[1:]))
    for na in (0.1, 0.2, 0.25, 0.4, 0.5):
        assert entanglement_probability(D_SHELVING, 2.0 * na) == 4.0 * entanglement_probability(
            D_SHELVING, na
        )
    report(4, "endpoint identities exact, curves monotone, quadratic NA scaling exact")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    config = PumpCycleConfig()
    exact = solve_exact(config)
    mc = simulate(config, n_trials=1_000_000, seed=20260808)
    elapsed = time.perf_counter() - start
    for name in ("p_good", "p_bad", "p_dark"):
        se = max(getattr(mc, name.replace("p_", "se_")), 1e-9)
        assert abs(getattr(mc, name) - getattr(exact, name)) < 3.0 * se
    closed = geometric_branch_probabilities(config.model)
    assert abs(exact.p_good - closed.p_good) < 1e-9
    assert elapsed < 10.0
    report(5, f"10^6 trajectories agree with the exact chain within 3 sigma in {elapsed:.2f} s; "
              "closed form matches to 1e-9")


def test_criterion_6_conversion_table(capsys):
    rows = standard_conversion_table()
    outputs = [row.output_thz for row in rows]
    for got, want in zip(outputs, (384.8, 238.0, 193.3)):
        assert got == pytest.approx(want, abs=0.5)
    printed = [round(v) for v in outputs]
    assert printed == [385, 238, 193]  # first row prints one above the nominal 384
    assert main(["qfc", "table2"]) == 0
    out = capsys.readouterr().out
    assert "461,238,223" in out and "384,193,191" in out and "608,385,223" in out
    assert any("384" in line for line in out.splitlines() if line.startswith("#"))
    report(6, "reference conversion outputs 384.87/237.99/193.28 THz within 0.5 of "
              "384.8/238.0/193.3; integer rounding documented in footnote")


def test_criterion_7_qpm_round_trip():
    rng = np.random.default_rng(77)
    for material in ("ppln", "ppktp"):
        dispersion = load_dispersion(material)
        for _ in range(20):
            input_nm = float(rng.uniform(510.0, 700.0))
            pump_nm = float(rng.uniform(1050.0, 1400.0))
            stage, _ = plan_stage(input_nm, pump_nm, MixKind.DFG, dispersion)
            grating = 2.0 * math.pi / (stage.poling_period_um * 1e-6)
            assert abs(qpm_residual(stage, dispersion)) < 1e-9 * grating
            third, _ = plan_stage(input_nm, pump_nm, MixKind.DFG, dispersion, poling_order=3)
            assert third.poling_period_um == 3.0 * stage.poling_period_um
    table = standard_conversion_table()
    golden = (7.397805188193949, 12.537762022437104, 19.66848842824558)
    for row, want in zip(table, golden):
        assert row.stage.poling_period_um == pytest.approx(want, rel=1e-12)
    report(7, "40 random stages round-trip to machine-zero residual; order-3 period exactly "
              "triple; bisection goldens pinned")


def test_criterion_8_fiber_crossing():
    raw, converted = standard_channel(493), standard_channel(780)
    crossing = conversion_crossing(raw, converted, 0.05)
    assert crossing == pytest.approx(0.2797, abs=1e-4)
    assert crossing <= 0.5
    assert 0.05 * transmission(converted, crossing) == pytest.approx(
        transmission(raw, crossing), rel=1e-9
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        l1, l2 = rng.uniform(0.0, 20.0, size=2)
        assert transmission(raw, l1 + l2) == pytest.approx(
            transmission(raw, l1) * transmission(raw, l2), rel=1e-12
        )
    report(8, f"conversion crossing {crossing:.5f} km = 0.2797 +- 1e-4 and <= 0.5 km; "
              "transmission multiplicative to float precision")


def test_criterion_9_trap_identity():
    rng = np.random.default_rng(2718)
    amu = 1.66053906892e-27
    for _ in range(100):
        config = TrapConfig(
            v0=float(rng.uniform(10.0, 1000.0)),
            omega_rf=2.0 * math.pi * float(rng.uniform(1.0, 100.0)) * 1e6,
            r=float(rng.uniform(50.0, 1000.0)) * 1e-6,
            eta=float(rng.uniform(0.3, 1.0)),
            mass=float(rng.uniform(10.0, 200.0)) * amu,
            charge=float(rng.integers(1, 4)) * 1.602176634e-19,
        )
        x = float(rng.uniform(-50.0, 50.0)) * 1e-6
        y = float(rng.uniform(-50.0, 50.0)) * 1e-6
        harmonic = 0.5 * config.mass * secular_frequency(config) ** 2 * (x * x + y * y)
        assert pseudopotential(config, x, y) == pytest.approx(harmonic, rel=1e-12)
    report(9, "pseudopotential equals (1/2) m omega_s^2 r^2 to 1e-12 relative on 100 random configs")


def test_criterion_10_emission_geometry():
    plane = EmissionDirection(math.pi / 2.0, 0.3)
    for sign in (+1, -1):
        assert abs(polarization_overlap(plane, sign)) <= 1e-16
    ratio = pi_emission(plane).intensity / sigma_emission(plane, +1).intensity
    assert math.isclose(ratio, 2.0, rel_tol=1e-15)
    report(10, "sigma/pi orthogonal in the observation plane (machine zero) with the "
               "factor-2 intensity ratio exact to double precision")
