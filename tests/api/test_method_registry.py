"""Method registry: declarative metadata and the plugin surface."""

import pytest

from repro.api import (
    METHODS,
    get_method,
    method_names,
    register_method,
    unregister_method,
)
from repro.core import DAR, RNP


class TestBuiltinRegistrations:
    def test_all_ten_methods_registered(self):
        expected = {"RNP", "DAR", "DMR", "A2R", "CAR", "Inter_RAT", "3PLAYER", "VIB", "SPECTRA", "CR"}
        assert set(method_names()) == expected

    def test_classes_resolve(self):
        assert get_method("RNP").cls is RNP
        assert get_method("DAR").cls is DAR

    def test_dar_selection_protocol_is_metadata(self):
        assert get_method("DAR").selection == "dev_acc"
        for name in method_names():
            if name != "DAR":
                assert get_method(name).selection == "test_f1", name

    def test_reports_accuracy_metadata(self):
        # Label-aware selectors report no Acc column (paper's Table III note).
        assert get_method("CAR").reports_accuracy is False
        assert get_method("DMR").reports_accuracy is False
        assert get_method("RNP").reports_accuracy is True
        assert get_method("DAR").reports_accuracy is True

    def test_hyper_metadata_matches_serve_schema(self):
        assert get_method("DAR").hyper == ("discriminator_weight", "freeze_discriminator")
        assert get_method("VIB").hyper == ("beta",)
        assert get_method("SPECTRA").hyper == ()

    def test_unknown_method_lists_known(self):
        with pytest.raises(KeyError, match="RNP"):
            get_method("BOGUS")


class TestPluginSurface:
    def test_register_and_unregister_third_party(self):
        @register_method("TestOnly", selection="dev_acc", default_overrides={"lambda_sparsity": 2.0})
        class TestOnly(RNP):
            """Throwaway plugin method."""

        try:
            info = get_method("TestOnly")
            assert info.cls is TestOnly
            assert info.selection == "dev_acc"
            assert info.default_overrides == {"lambda_sparsity": 2.0}
            # The method roster and serve families see it with no edits.
            from repro.serve import model_families

            assert "TestOnly" in method_names()
            assert model_families()["TestOnly"] is TestOnly
        finally:
            unregister_method("TestOnly")
        assert "TestOnly" not in METHODS

    def test_name_and_reports_accuracy_default_from_class(self):
        @register_method()
        class _Probe(RNP):
            """Throwaway: name/reports_accuracy come off the class."""

            name = "ProbeMethod"
            reports_accuracy = False

        try:
            assert get_method("ProbeMethod").reports_accuracy is False
        finally:
            unregister_method("ProbeMethod")

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError, match="selection"):
            register_method("X", selection="bogus")
