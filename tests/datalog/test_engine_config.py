"""The EngineConfig API: one two-valued choice, validated everywhere.

One frozen dataclass selects the backend for replay(), Execution,
Engine, Session, CLI and the service protocol.  These tests pin its
contract: the two surviving points (compiled/annotated fast path,
reference/eager oracle), every accepted input shape, the rejection of
the removed ``indexed``/``lazy`` values and of mismatched pairs, and
the typed protocol error for malformed ``engine`` option blocks.
"""

import dataclasses
import json

import pytest

from repro.datalog import BACKENDS, PROVENANCE_MODES, EngineConfig
from repro.service.protocol import ProtocolError, parse_request


class TestValidation:
    def test_default_is_compiled_annotated(self):
        config = EngineConfig()
        assert config.backend == "compiled"
        assert config.provenance == "annotated"
        assert config.describe() == "compiled/annotated"

    def test_the_option_surface_is_two_points(self):
        assert BACKENDS == ("compiled", "reference")
        assert PROVENANCE_MODES == ("annotated", "eager")

    @pytest.mark.parametrize(
        "provenance,backend",
        [("annotated", "compiled"), ("eager", "reference")],
    )
    def test_every_combination_constructs(self, backend, provenance):
        config = EngineConfig(backend=backend)
        assert config.provenance == provenance
        assert config.to_dict() == {
            "backend": backend, "provenance": provenance
        }
        assert EngineConfig.coerce(config.to_dict()) == config

    def test_provenance_is_derived_not_chosen(self):
        with pytest.raises(TypeError):
            EngineConfig(backend="compiled", provenance="eager")
        with pytest.raises(AttributeError):
            EngineConfig().provenance = "eager"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            EngineConfig(backend="vectorized")

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance mode 'graphless'"):
            EngineConfig.coerce({"provenance": "graphless"})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().backend = "reference"


class TestCoerce:
    def test_none_is_the_default(self):
        assert EngineConfig.coerce(None) == EngineConfig()

    def test_instance_passes_through(self):
        config = EngineConfig(backend="reference")
        assert EngineConfig.coerce(config) is config

    @pytest.mark.parametrize(
        "name,provenance",
        [("compiled", "annotated"), ("reference", "eager")],
    )
    def test_backend_name_picks_natural_provenance(self, name, provenance):
        config = EngineConfig.coerce(name)
        assert config.backend == name
        assert config.provenance == provenance

    def test_mapping_is_validated_field_by_field(self):
        config = EngineConfig.coerce(
            {"backend": "reference", "provenance": "eager"}
        )
        assert config == EngineConfig(backend="reference")
        assert EngineConfig.coerce({"backend": "reference"}) == config
        assert EngineConfig.coerce({"provenance": "annotated"}) == EngineConfig()

    @pytest.mark.parametrize(
        "value",
        [
            "indexed",
            "lazy",
            {"backend": "indexed"},
            {"backend": "compiled", "provenance": "lazy"},
            {"backend": "compiled", "provenance": "eager"},
            {"backend": "reference", "provenance": "annotated"},
            {"provenance": "eager"},
        ],
        ids=str,
    )
    def test_removed_values_and_mismatched_pairs_rejected(self, value):
        with pytest.raises(ValueError):
            EngineConfig.coerce(value)

    def test_mapping_with_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown engine option field"):
            EngineConfig.coerce({"backend": "compiled", "workers": 4})

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            EngineConfig.coerce("hash-join")

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            EngineConfig.coerce(42)


class TestLegacySurfaceIsGone:
    """The boolean shims were deleted, not deprecated further."""

    def test_no_legacy_bridge_on_the_config(self):
        for name in ("from_legacy", "resolve", "use_indexes", "lazy"):
            assert not hasattr(EngineConfig, name), name

    def test_boolean_keywords_are_plain_type_errors(self):
        from repro.datalog.engine import Engine
        from repro.datalog.rules import Program
        from repro.provenance.recorder import ProvenanceRecorder
        from repro.replay import EventLog, Execution, replay

        with pytest.raises(TypeError):
            Engine(Program(), use_indexes=False)
        with pytest.raises(TypeError):
            Execution(Program(), "legacy", lazy_provenance=False)
        with pytest.raises(TypeError):
            replay(Program(), EventLog(), use_indexes=False)
        with pytest.raises(TypeError):
            ProvenanceRecorder(lazy=True)
        with pytest.raises(ValueError, match="unknown provenance mode"):
            ProvenanceRecorder(provenance="lazy")
        execution = Execution(Program(), "plain")
        assert not hasattr(execution, "use_indexes")
        assert not hasattr(execution, "lazy_provenance")
        assert not hasattr(execution.engine, "use_indexes")


class TestProtocolOption:
    def _request(self, engine):
        return json.dumps(
            {
                "id": "req-1",
                "kind": "diagnose",
                "scenario": "SDN1",
                "options": {"engine": engine},
            }
        )

    def test_valid_engine_block_is_normalized(self):
        request = parse_request(self._request("reference"))
        assert request.options["engine"] == {
            "backend": "reference", "provenance": "eager"
        }

    def test_mapping_block_accepted(self):
        request = parse_request(
            self._request({"backend": "compiled", "provenance": "annotated"})
        )
        assert request.options["engine"] == {
            "backend": "compiled", "provenance": "annotated"
        }
        request = parse_request(self._request({"backend": "reference"}))
        assert request.options["engine"] == {
            "backend": "reference", "provenance": "eager"
        }

    def test_unknown_backend_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(self._request("warp-drive"))
        assert "unknown engine backend" in str(excinfo.value)

    @pytest.mark.parametrize(
        "engine",
        ["indexed", {"backend": "compiled", "provenance": "lazy"}],
        ids=["indexed", "lazy"],
    )
    def test_removed_backend_is_a_typed_protocol_error(self, engine):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(self._request(engine))
        # Names what is still accepted, like any other unknown value.
        assert "compiled" in str(excinfo.value)

    def test_non_string_non_mapping_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_request(self._request(17))
