import math
import re

import numpy as np
import pytest
from ionlink import trap
from ionlink.errors import DomainError
from ionlink.trap import TrapConfig, pseudopotential, secular_frequency

ELEMENTARY_CHARGE = 1.602176634e-19
ATOMIC_MASS = 1.66053906892e-27


def random_config(rng):
    return TrapConfig(
        v0=float(rng.uniform(10.0, 1000.0)),
        omega_rf=2.0 * math.pi * float(rng.uniform(1.0, 100.0)) * 1e6,
        r=float(rng.uniform(50.0, 1000.0)) * 1e-6,
        eta=float(rng.uniform(0.3, 1.0)),
        mass=float(rng.uniform(10.0, 200.0)) * ATOMIC_MASS,
        charge=float(rng.integers(1, 4)) * ELEMENTARY_CHARGE,
    )


BLADE_TRAP = TrapConfig.from_lab_units(v0=200.0, f_rf_mhz=20.0, r_um=260.0, eta=0.9, mass_amu=138.0)


class TestPseudopotential:
    def test_node_on_axis(self):
        assert pseudopotential(BLADE_TRAP, 0.0, 0.0) == 0.0

    def test_rotational_and_parity_symmetry(self):
        x, y = 7e-6, 3e-6
        assert pseudopotential(BLADE_TRAP, x, y) == pseudopotential(BLADE_TRAP, y, x)
        assert pseudopotential(BLADE_TRAP, -x, y) == pseudopotential(BLADE_TRAP, x, y)

    def test_harmonic_identity_on_random_configs(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            config = random_config(rng)
            x = float(rng.uniform(-50.0, 50.0)) * 1e-6
            y = float(rng.uniform(-50.0, 50.0)) * 1e-6
            psi = pseudopotential(config, x, y)
            harmonic = 0.5 * config.mass * secular_frequency(config) ** 2 * (x * x + y * y)
            assert psi == pytest.approx(harmonic, rel=1e-12)

    def test_positive_off_axis(self):
        assert pseudopotential(BLADE_TRAP, 10e-6, 0.0) > 0.0


class TestSecularFrequency:
    def test_linear_in_voltage(self):
        doubled = TrapConfig(
            v0=2 * BLADE_TRAP.v0, omega_rf=BLADE_TRAP.omega_rf, r=BLADE_TRAP.r,
            eta=BLADE_TRAP.eta, mass=BLADE_TRAP.mass, charge=BLADE_TRAP.charge,
        )
        assert secular_frequency(doubled) == pytest.approx(
            2.0 * secular_frequency(BLADE_TRAP), rel=1e-15
        )

    def test_inverse_in_drive_frequency(self):
        doubled = TrapConfig(
            v0=BLADE_TRAP.v0, omega_rf=2 * BLADE_TRAP.omega_rf, r=BLADE_TRAP.r,
            eta=BLADE_TRAP.eta, mass=BLADE_TRAP.mass, charge=BLADE_TRAP.charge,
        )
        assert secular_frequency(doubled) == pytest.approx(
            secular_frequency(BLADE_TRAP) / 2.0, rel=1e-15
        )

    def test_inverse_square_in_distance(self):
        k = 1.7
        scaled = TrapConfig(
            v0=BLADE_TRAP.v0, omega_rf=BLADE_TRAP.omega_rf, r=k * BLADE_TRAP.r,
            eta=BLADE_TRAP.eta, mass=BLADE_TRAP.mass, charge=BLADE_TRAP.charge,
        )
        assert secular_frequency(scaled) == pytest.approx(
            secular_frequency(BLADE_TRAP) / k**2, rel=1e-12
        )

    def test_curvature_oracle(self):
        # omega_s recovered from the potential itself: sqrt(2 psi(x,0) / (m x^2))
        rng = np.random.default_rng(31)
        for _ in range(20):
            config = random_config(rng)
            x = 5e-6
            recovered = math.sqrt(2.0 * pseudopotential(config, x, 0.0) / (config.mass * x * x))
            assert recovered == pytest.approx(secular_frequency(config), rel=1e-9)

    def test_blade_trap_scale_is_reasonable(self):
        f_s_mhz = secular_frequency(BLADE_TRAP) / (2.0 * math.pi * 1e6)
        assert 0.1 < f_s_mhz < 10.0


class TestValidation:
    @pytest.mark.parametrize("lab_units, name", [
        ({"f_rf_mhz": 1e-320}, "omega_rf"),   # the denominator underflows to 0
        ({"r_um": 1e-300}, "r=1e-306"),       # r**2 underflows to 0
        ({"r_um": 1e300}, "r=1e+294"),        # r**2 overflows
    ])
    def test_over_or_underflow_is_domain_error(self, lab_units, name):
        config = TrapConfig.from_lab_units(
            **{**dict(v0=200.0, f_rf_mhz=20.0, r_um=260.0, eta=0.9, mass_amu=138.0), **lab_units})
        with pytest.raises(DomainError, match=re.escape(name)):
            secular_frequency(config)
        with pytest.raises(DomainError, match=re.escape(name)):
            pseudopotential(config, 1e-6, 0.0)

    def test_lab_unit_constructor(self):
        assert BLADE_TRAP.omega_rf == pytest.approx(2.0 * math.pi * 20e6, rel=1e-15)
        assert BLADE_TRAP.r == pytest.approx(260e-6, rel=1e-15)
        assert BLADE_TRAP.charge == pytest.approx(ELEMENTARY_CHARGE, rel=1e-15)
        assert BLADE_TRAP.mass == pytest.approx(138.0 * ATOMIC_MASS, rel=1e-15)

    def test_pinned_constants_match_scipy(self):
        const = pytest.importorskip("scipy.constants")
        assert trap._ELEMENTARY_CHARGE == const.e
        assert trap._AMU == const.physical_constants["atomic mass constant"][0]
