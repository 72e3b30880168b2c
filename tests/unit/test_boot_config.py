"""BootConfig: one value for System.boot, with kwargs as overrides."""

import dataclasses

import pytest

from repro.system import BootConfig, System


class TestBootConfig:
    def test_defaults_match_legacy_boot(self):
        config = BootConfig()
        assert config.pass_volumes == ("pass",)
        assert config.plain_volumes == ("scratch",)
        assert config.provenance is True
        assert config.observability is True
        assert config.tracing is False
        assert config.faults is None

    def test_with_overrides_replaces_only_given_fields(self):
        quiet = BootConfig(observability=False)
        system = System.boot(config=quiet, tracing=True, provenance=False)
        assert system.obs.tracer.enabled
        assert not system.obs.metrics.enabled
        assert not system.provenance
        assert quiet.tracing is False           # original untouched
        assert quiet.provenance is True

    def test_boot_from_config(self):
        system = System.boot(config=BootConfig(
            pass_volumes=("vol",), plain_volumes=(), hostname="boxy"))
        assert system.tier.volumes() == ["vol"]
        assert system.kernel.hostname == "boxy"

    def test_kwargs_override_config(self):
        quiet = BootConfig(observability=False)
        system = System.boot(config=quiet, tracing=True)
        # tracing flipped on, observability kept from the config
        assert system.obs.tracer.enabled
        assert not system.obs.metrics.enabled

    def test_explicit_none_overrides_config(self):
        class Marker:
            def bind_obs(self, obs):
                pass
        config = BootConfig(faults=Marker())
        system = System.boot(config=config, faults=None, provenance=False)
        assert system.kernel.faults is None

    def test_legacy_kwarg_style_still_boots(self):
        system = System.boot(provenance=False, plain_volumes=("p",))
        assert not system.provenance

    def test_field_set_is_exact(self):
        """A new knob is a deliberate edit here too; a deleted one (one
        ingest path, one pipeline per volume, no option) is a
        TypeError."""
        assert {field.name for field in dataclasses.fields(BootConfig)} == {
            "params", "pass_volumes", "plain_volumes", "provenance",
            "hostname", "clock", "observability", "tracing", "journal",
            "faults"}
        for gone in ({"batching": False}, {"shards": 4},
                     {"shard_key": "volume"}, {"compaction": None}):
            with pytest.raises(TypeError):
                System.boot(**gone)
