import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remcr.scenario import (
    ConfigError,
    ScenarioConfig,
    derive_stream,
    interference_threshold,
    parse_scenario,
)


class TestInterferenceThreshold:
    def test_two_db_unit_noise(self):
        got = interference_threshold(2.0, 1.0)
        assert math.isclose(got, 10.0**0.2 - 1.0, rel_tol=1e-14)
        # the budget expressed in dB relative to the noise floor
        assert abs(10.0 * math.log10(got) - (-2.33)) < 0.005

    def test_three_db_doubles_noise_plus_interference(self):
        assert math.isclose(interference_threshold(3.0103, 1.0), 1.0, rel_tol=1e-4)

    def test_scales_linearly_with_noise(self):
        assert math.isclose(
            interference_threshold(2.0, 4.0), 4.0 * (10.0**0.2 - 1.0), rel_tol=1e-14
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            interference_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            interference_threshold(2.0, 0.0)


class TestDeriveStream:
    def test_same_triple_same_sequence(self):
        a = derive_stream(42, 0, "shadow").standard_normal(100)
        b = derive_stream(42, 0, "shadow").standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_trials_uncorrelated(self):
        a = derive_stream(42, 0, "shadow").standard_normal(10_000)
        b = derive_stream(42, 1, "shadow").standard_normal(10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05
        assert not np.array_equal(a, b)

    def test_tag_separation(self):
        a = derive_stream(42, 0, "shadow").standard_normal(50)
        b = derive_stream(42, 0, "fading").standard_normal(50)
        assert not np.array_equal(a, b)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(42, -1, "shadow")

    @pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70 + 3))
    @pytest.mark.parametrize("trial", (0, 5, 2**32, 2**45 + 1))
    def test_stream_is_seed_sequence_of_the_triple(self, seed, trial):
        # the documented entropy: [seed mod 2**64, trial, first 8 bytes of
        # SHA-256(purpose) as a little-endian integer]
        for purpose in ("place", "shadow", ""):
            tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "little")
            seq = np.random.SeedSequence(entropy=[seed & 0xFFFFFFFFFFFFFFFF, trial, tag])
            want = np.random.default_rng(seq).integers(0, 2**63, size=8)
            got = derive_stream(seed, trial, purpose).integers(0, 2**63, size=8)
            assert np.array_equal(got, want)


class TestScenarioValidation:
    def test_defaults_construct(self):
        cfg = ScenarioConfig()
        assert cfg.R == 1000.0 and cfg.R0 == 10.0 and cfg.Rc == 100.0
        assert cfg.delta_grid == 0.0
        assert cfg.buffer_dB == 2.0

    def test_radii_ordering_enforced(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(R0=200.0, Rc=100.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(Rc=2000.0)

    def test_activity_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(activity_p=1.5)

    def test_negative_grid_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(delta_grid=-1.0)

    @pytest.mark.parametrize("name", ("R", "sigma_dB", "cr_density", "D_d", "buffer_dB", "K_dB"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name", ("buffer_dB", "K_dB"))
    def test_linear_overflow_rejected(self, name):
        with pytest.raises(ConfigError, match=f"{name} = 5000.0 overflows"):
            ScenarioConfig(**{name: 5000.0})
        # (1 + K)**3 of the Rician moments overflows above about 1027.5 dB
        largest = {"buffer_dB": 3000.0, "K_dB": 1027.0}[name]
        assert getattr(ScenarioConfig(**{name: largest}), name) == largest

    @pytest.mark.parametrize("name", ("R", "f_D"))
    def test_square_overflow_rejected(self, name):
        with pytest.raises(ConfigError, match=rf"{name} = 1e\+155 overflows when squared"):
            ScenarioConfig(**{name: 1e155, "Rc": 500.0})
        # f_D's square fits at 1e154, but its Rice slope does not (next test)
        largest = {"R": 1e154, "f_D": 1e153}[name]
        assert getattr(ScenarioConfig(**{name: largest, "Rc": 500.0}), name) == largest

    def test_rice_slope_overflow_rejected(self):
        # 4*pi*f_D**2 is inf although f_D**2 = 1e308 is finite
        with pytest.raises(ConfigError, match=r"f_D = 1e\+154 overflows the Rice slope"):
            ScenarioConfig(f_D=1e154)
        assert ScenarioConfig(f_D=1e150).f_D == 1e150

    @pytest.mark.parametrize(
        "k_db, problem", [(-3300.0, "underflows"), (1100.0, "overflows"), (3000.0, "overflows")]
    )
    def test_unusable_k_factor_rejected(self, k_db, problem):
        with pytest.raises(ConfigError, match=f"K_dB = {k_db} {problem}"):
            ScenarioConfig(K_dB=k_db)

    def test_non_finite_rejected_when_parsed(self):
        with pytest.raises(ConfigError, match=r"mem: sigma_dB must be finite"):
            parse_scenario("sigma_dB = nan\n", source="mem")

    def test_pathloss_warning_outside_usual_range(self):
        with pytest.warns(UserWarning):
            ScenarioConfig(gamma_pl=4.5)


class TestParseScenario:
    def test_roundtrip(self):
        text = "# comment\nR = 500\ndelta_grid = 25\nmaster_seed = 7\n\nK_dB = 10\n"
        cfg = parse_scenario(text, source="mem")
        assert cfg.R == 500.0
        assert cfg.delta_grid == 25.0
        assert cfg.master_seed == 7
        assert cfg.K_dB == 10.0

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"mem:2"):
            parse_scenario("R = 500\nnot a pair\n", source="mem")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario("blah = 3\n", source="mem")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario("R = 500\nR = 600\n", source="mem")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match=r"mem:1"):
            parse_scenario("R = abc\n", source="mem")


_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
_VALUES = ["nan", "inf", "-inf", "-0", "0", "1e400", "-1e400", "1e3", "", "none",
           "1", "2.5", "10", "100", "1000", "-5", "1e-320", "abc"]
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS + ["bogus", "r"]), st.sampled_from(_VALUES)),
    st.sampled_from(["", "# comment", "no pair here", "= 3"]),
)


class TestParseScenarioProperty:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(_LINES, max_size=8))
    def test_config_with_finite_fields_or_config_error(self, lines):
        # known and unknown keys, duplicates, non-finite, overflowing and
        # empty values: either a usable config or a ConfigError, nothing else
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = parse_scenario("\n".join(lines), source="mem")
        except ConfigError:
            return
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            assert value is None or math.isfinite(value), f.name
