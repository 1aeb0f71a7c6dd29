import math
from pathlib import Path

import numpy as np
import pytest

from ionlink import atomic
from ionlink.atomic import (
    BranchingModel,
    Level,
    Polarization,
    ZeemanState,
    allowed_decays,
    default_barium_model,
    drive_target,
    load_model,
    model_from_text,
    model_to_text,
    polarization_for,
    save_model,
)
from ionlink.errors import DomainError

from oracles import random_branching_model

BUNDLED = Path(atomic.__file__).parent / "data" / "ba138_branching.txt"

S = lambda m: ZeemanState(Level.S12, m)  # noqa: E731
P = lambda m: ZeemanState(Level.P12, m)  # noqa: E731
D = lambda m: ZeemanState(Level.D32, m)  # noqa: E731


class TestZeemanState:
    def test_valid_sublevels(self):
        for level, count in ((Level.S12, 2), (Level.P12, 2), (Level.D32, 4)):
            states = [ZeemanState(level, -level.j + k) for k in range(count)]
            assert len(set(states)) == count

    def test_mj_beyond_j_rejected(self):
        with pytest.raises(DomainError):
            ZeemanState(Level.S12, 1.5)

    def test_integer_mj_rejected(self):
        with pytest.raises(DomainError):
            ZeemanState(Level.D32, 1.0)


class TestPolarizationLabels:
    def test_q_values(self):
        assert Polarization.SIGMA_PLUS.q == +1
        assert Polarization.SIGMA_MINUS.q == -1
        assert Polarization.PI.q == 0

    def test_emission_labels_from_p_plus(self):
        assert polarization_for(P(+0.5), D(+1.5)) is Polarization.SIGMA_MINUS
        assert polarization_for(P(+0.5), D(+0.5)) is Polarization.PI
        assert polarization_for(P(+0.5), D(-0.5)) is Polarization.SIGMA_PLUS

    def test_no_channel_beyond_dipole(self):
        with pytest.raises(DomainError):
            polarization_for(P(+0.5), D(-1.5))


class TestDefaultModel:
    def test_branching_fractions(self):
        m = default_barium_model()
        assert m.br_493 == 0.7304
        assert m.br_650 == pytest.approx(0.2696, abs=1e-12)
        assert abs(m.br_493 + m.br_650 - 1.0) < 1e-12

    def test_quoted_signed_amplitudes(self):
        m = default_barium_model()
        assert m.amplitude(P(+0.5), D(+0.5)) == pytest.approx(-math.sqrt(1 / 3), abs=1e-15)
        assert m.amplitude(P(+0.5), D(-0.5)) == pytest.approx(math.sqrt(1 / 6), abs=1e-15)
        assert m.amplitude(P(+0.5), D(+1.5)) == pytest.approx(math.sqrt(1 / 2), abs=1e-15)

    def test_s_manifold_squares(self):
        m = default_barium_model()
        assert m.amplitude(P(+0.5), S(-0.5)) ** 2 == pytest.approx(2 / 3, abs=1e-15)
        assert m.amplitude(P(+0.5), S(+0.5)) ** 2 == pytest.approx(1 / 3, abs=1e-15)

    def test_d_row_normalization(self):
        m = default_barium_model()
        total = sum(m.amplitude(P(+0.5), D(mm)) ** 2 for mm in (1.5, 0.5, -0.5, -1.5))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_squares_mirror_symmetric(self):
        m = default_barium_model()
        for (upper, lower), amp in m.cg.items():
            mirror = m.amplitude(
                ZeemanState(upper.level, -upper.mj), ZeemanState(lower.level, -lower.mj)
            )
            assert mirror**2 == pytest.approx(amp**2, abs=1e-15)

    def test_mirror_sign_phase_by_manifold(self):
        # D rows keep their sign under m -> -m, S rows flip it.
        m = default_barium_model()
        for (upper, lower), amp in m.cg.items():
            mirror = m.amplitude(
                ZeemanState(upper.level, -upper.mj), ZeemanState(lower.level, -lower.mj)
            )
            phase = 1.0 if lower.level is Level.D32 else -1.0
            assert mirror == pytest.approx(phase * amp, abs=1e-15)

    def test_every_entry_obeys_selection_rule(self):
        m = default_barium_model()
        for upper, lower in m.cg:
            polarization_for(upper, lower)  # raises on a bad channel


class TestModelValidation:
    def test_branching_must_sum_to_one(self):
        m = default_barium_model()
        with pytest.raises(DomainError):
            BranchingModel(br_493=0.7, br_650=0.2, cg=dict(m.cg))

    def test_unnormalized_row_rejected(self):
        m = default_barium_model()
        cg = dict(m.cg)
        cg[(P(+0.5), D(+1.5))] = 0.9
        with pytest.raises(DomainError):
            BranchingModel(br_493=m.br_493, br_650=m.br_650, cg=cg)

    def test_selection_rule_violation_rejected(self):
        m = default_barium_model()
        cg = dict(m.cg)
        del cg[(P(+0.5), D(+1.5))]
        cg[(P(+0.5), D(-1.5))] = math.sqrt(1 / 2)  # delta m = -2
        with pytest.raises(DomainError):
            BranchingModel(br_493=m.br_493, br_650=m.br_650, cg=cg)

    def test_random_models_validate(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            random_branching_model(rng)  # construction runs the validator


class TestAllowedDecays:
    def test_total_probability_is_one(self):
        m = default_barium_model()
        for mj in (0.5, -0.5):
            total = sum(c.probability for c in allowed_decays(P(mj), m))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_shelf_sigma_channel_value(self):
        channels = {
            (c.lower, c.polarization): c.probability
            for c in allowed_decays(P(+0.5), default_barium_model())
        }
        key = (D(-0.5), Polarization.SIGMA_PLUS)
        assert channels[key] == pytest.approx(0.2696 / 6.0, rel=1e-12)
        assert channels[key] == pytest.approx(0.04493, abs=5e-6)

    def test_ground_manifold_share(self):
        channels = allowed_decays(P(+0.5), default_barium_model())
        s_total = sum(c.probability for c in channels if c.lower.level is Level.S12)
        assert s_total == pytest.approx(0.7304, abs=1e-12)

    def test_non_p_upper_rejected(self):
        with pytest.raises(DomainError):
            allowed_decays(D(+1.5), default_barium_model())

    def test_random_models_sum_to_one_with_selection_rules(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_branching_model(rng)
            for mj in (0.5, -0.5):
                channels = allowed_decays(P(mj), m)
                assert sum(c.probability for c in channels) == pytest.approx(1.0, abs=1e-12)
                for c in channels:
                    assert abs(P(mj).mj - c.lower.mj) <= 1.0 + 1e-12


class TestDriveTarget:
    def test_sigma_minus_ladder(self):
        assert drive_target(D(+1.5), Polarization.SIGMA_MINUS) == P(+0.5)
        assert drive_target(D(+0.5), Polarization.SIGMA_MINUS) == P(-0.5)
        assert drive_target(D(-0.5), Polarization.SIGMA_MINUS) is None
        assert drive_target(D(-1.5), Polarization.SIGMA_MINUS) is None

    def test_sigma_plus_mirror(self):
        assert drive_target(D(-1.5), Polarization.SIGMA_PLUS) == P(-0.5)
        assert drive_target(D(+0.5), Polarization.SIGMA_PLUS) is None

    def test_from_p_rejected(self):
        with pytest.raises(DomainError):
            drive_target(P(+0.5), Polarization.SIGMA_MINUS)


class TestSerialization:
    def test_text_round_trip(self):
        m = default_barium_model()
        again = model_from_text(model_to_text(m))
        assert again.br_493 == m.br_493
        assert again.br_650 == m.br_650
        assert dict(again.cg) == dict(m.cg)

    def test_file_round_trip(self, tmp_path):
        m = default_barium_model()
        path = tmp_path / "model.txt"
        save_model(m, path)
        assert dict(load_model(path).cg) == dict(m.cg)

    def test_bundled_file_matches_default(self):
        # the file is the default model's one source; TestDefaultModel checks its values
        assert default_barium_model() == load_model(BUNDLED)

    def test_bad_format_tag_rejected(self):
        with pytest.raises(DomainError):
            model_from_text("format = something-else/9\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n")

    def test_bad_amplitude_line_rejected(self):
        text = model_to_text(default_barium_model()) + "P12 nonsense\n"
        with pytest.raises(DomainError):
            model_from_text(text)

    @pytest.mark.parametrize("content, fragment", [
        (b"\xff\xfe", "codec can't decode"),
        (b"format = branching-model/1\nbr_493 = abc\nbr_650 = 0.3\n[cg]\n", "could not convert"),
        (b"format = branching-model/1\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n"
         b"Q12 +1/2 -> S12 +1/2 : 0.5\n", "'Q12' is not a valid Level"),
        (b"format = branching-model/1\nbr_493 = nan\nbr_650 = 0.3\n[cg]\n", "br_493 out of range"),
        # the bundled model below a stray header line: it used to load as the default
        pytest.param(b"hello world\nbr_650_typo = 5\n" + BUNDLED.read_bytes(),
                     "^model file .*: cannot parse header line 'hello world' \\(expected "
                     "'key = value', key one of: format, br_493, br_650\\)$", id="no-equals"),
        pytest.param(b"br_650_typo = 5\n" + BUNDLED.read_bytes(),
                     "cannot parse header line 'br_650_typo = 5'", id="unknown-key"),
    ])
    def test_malformed_file_names_the_path(self, tmp_path, content, fragment):
        path = tmp_path / "model.txt"
        path.write_bytes(content)
        with pytest.raises(DomainError, match=fragment) as info:
            load_model(path)
        assert str(info.value).startswith(f"model file {path}: ")

    @pytest.mark.parametrize("before, extra, repeated", [
        ("P12 +1/2 -> S12 +1/2", "P12 +1/2 -> S12 +1/2 : 0.123",
         "repeated channel in line 'P12 +1/2 -> S12 +1/2 : 0.5773502691896257'"),
        ("br_493", "br_493 = 0.5", "repeated key in line 'br_493 = 0.7304'"),
        ("[cg]", "format = branching-model/1",
         "repeated key in line 'format = branching-model/1'"),
    ], ids=["channel", "key", "format"])
    def test_repeated_key_or_channel_rejected(self, tmp_path, before, extra, repeated):
        """The bundled model with one line given twice, the earlier copy inserted
        before the original: the last value used to win, silently."""
        text = model_to_text(default_barium_model())
        path = tmp_path / "model.txt"
        path.write_text(text.replace(before, f"{extra}\n{before}", 1))
        with pytest.raises(DomainError) as info:
            load_model(path)
        assert str(info.value) == f"model file {path}: {repeated}"

    def test_random_model_round_trip(self):
        rng = np.random.default_rng(3)
        m = random_branching_model(rng)
        again = model_from_text(model_to_text(m))
        assert dict(again.cg) == dict(m.cg)
