"""Strict parsing of the fast-path environment switches.

``REPRO_NO_FASTPATH`` is the escape hatch differential tests rely on; a
spelling that silently parses as "fast path enabled" (the pre-fix
behavior of ``=on`` and values with surrounding whitespace) would run
the wrong interpreter while claiming a differential check.  Every
recognized spelling is enumerated here, and anything else must raise.
"""

import pytest

from repro.errors import ReproError
from repro.fastpath import env_flag, fastpath_enabled, lanes_enabled

DISABLING = ["1", "true", "yes", "on", "y", "t", "enabled",
             "TRUE", "Yes", "ON", "EnAbLeD", " 1 ", "\ttrue\n", "1 "]
ENABLING = ["", "0", "false", "no", "off", "n", "f", "disabled",
            "FALSE", "No", "OFF", " 0 ", "  "]
GARBAGE = ["2", "maybe", "ja", "enable", "o", "none", "null", "-1"]


class TestNoFastpathParsing:
    @pytest.mark.parametrize("value", DISABLING)
    def test_truthy_spellings_disable(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        assert not fastpath_enabled()

    @pytest.mark.parametrize("value", ENABLING)
    def test_falsy_spellings_enable(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        assert fastpath_enabled()

    def test_unset_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        assert fastpath_enabled()

    @pytest.mark.parametrize("value", GARBAGE)
    def test_garbage_raises(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        with pytest.raises(ReproError, match="REPRO_NO_FASTPATH"):
            fastpath_enabled()

    def test_error_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "bogus")
        with pytest.raises(ReproError, match="bogus"):
            env_flag("REPRO_NO_FASTPATH")


class TestLanesFlag:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_LANES", raising=False)
        assert lanes_enabled()

    @pytest.mark.parametrize("value", ["1", "on", " true "])
    def test_disable_spellings(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_LANES", value)
        assert not lanes_enabled()

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_LANES", "nope...")
        with pytest.raises(ReproError):
            lanes_enabled()
