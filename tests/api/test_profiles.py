"""Experiment scaling profiles: defaults, scaling and immutability."""

import pytest

from repro.api.profiles import FAST_PROFILE, FULL_PROFILE


class TestProfiles:
    def test_fast_profile_defaults(self):
        assert FAST_PROFILE.n_train > 0
        assert FULL_PROFILE.n_train > FAST_PROFILE.n_train

    def test_scaled_returns_copy(self):
        scaled = FAST_PROFILE.scaled(epochs=99)
        assert scaled.epochs == 99
        assert FAST_PROFILE.epochs != 99

    def test_profile_frozen(self):
        with pytest.raises(Exception):
            FAST_PROFILE.epochs = 5
