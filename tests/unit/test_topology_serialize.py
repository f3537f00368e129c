"""Machine (de)serialisation."""

import json
import math

import pytest

from repro.errors import TopologyError
from repro.interconnect.planes import PLANE_DMA, PLANE_PIO
from repro.topology.serialize import machine_from_dict, machine_to_dict


class TestRoundTrip:
    def test_reference_host_roundtrips(self, bare_host):
        rebuilt = machine_from_dict(machine_to_dict(bare_host))
        assert rebuilt.name == bare_host.name
        assert rebuilt.node_ids == bare_host.node_ids
        assert rebuilt.links.keys() == bare_host.links.keys()
        assert rebuilt.params == bare_host.params

    def test_capacity_models_survive(self, bare_host):
        rebuilt = machine_from_dict(machine_to_dict(bare_host))
        for src in bare_host.node_ids:
            for dst in bare_host.node_ids:
                assert rebuilt.dma_path_gbps(src, dst) == pytest.approx(
                    bare_host.dma_path_gbps(src, dst)
                )
                assert rebuilt.pio_stream_gbps(src, dst) == pytest.approx(
                    bare_host.pio_stream_gbps(src, dst)
                )

    def test_routing_survives(self, bare_host):
        rebuilt = machine_from_dict(machine_to_dict(bare_host))
        for plane in (PLANE_PIO, PLANE_DMA):
            for src in bare_host.node_ids:
                for dst in bare_host.node_ids:
                    assert (rebuilt.routing.route(plane, src, dst)
                            == bare_host.routing.route(plane, src, dst))

    def test_json_compatible(self, bare_host):
        text = json.dumps(machine_to_dict(bare_host))
        rebuilt = machine_from_dict(json.loads(text))
        assert rebuilt.n_nodes == bare_host.n_nodes

    def test_devices_not_serialised(self, host):
        rebuilt = machine_from_dict(machine_to_dict(host))
        assert rebuilt.devices == {}


class TestValidation:
    def test_version_checked(self, bare_host):
        data = machine_to_dict(bare_host)
        data["format_version"] = 99
        with pytest.raises(TopologyError):
            machine_from_dict(data)

    def test_missing_fields_rejected(self, bare_host):
        data = machine_to_dict(bare_host)
        del data["nodes"][0]["dram_gbps"]
        with pytest.raises(TopologyError):
            machine_from_dict(data)

    def test_malformed_links_rejected(self, bare_host):
        data = machine_to_dict(bare_host)
        data["links"][0].pop("width_bits")
        with pytest.raises(TopologyError):
            machine_from_dict(data)


def _corrupt(data, section, index, field, value):
    data[section][index][field] = value
    return data


class TestErrorsNameTheField:
    """Every malformed load names its offending field — never a bare
    KeyError/TypeError/ValueError escaping to the caller."""

    def check(self, data, *needles):
        with pytest.raises(TopologyError) as exc:
            machine_from_dict(data)
        message = str(exc.value)
        for needle in needles:
            assert needle in message, (needle, message)
        return message

    def test_non_mapping_description(self):
        self.check([1, 2, 3], "JSON object")

    def test_missing_section_named(self, bare_host):
        data = machine_to_dict(bare_host)
        del data["links"]
        self.check(data, "'links'", "missing")

    def test_section_wrong_shape_named(self, bare_host):
        data = machine_to_dict(bare_host)
        data["nodes"] = {"oops": 1}
        self.check(data, "nodes", "list")

    def test_non_object_entry_named_with_index(self, bare_host):
        data = machine_to_dict(bare_host)
        data["packages"][1] = "p1"
        self.check(data, "packages[1]", "object")

    def test_missing_node_field_named(self, bare_host):
        data = machine_to_dict(bare_host)
        del data["nodes"][2]["core_ids"]
        self.check(data, "nodes[2].core_ids", "missing")

    def test_wrong_typed_node_field_named(self, bare_host):
        data = machine_to_dict(bare_host)
        self.check(
            _corrupt(data, "nodes", 0, "node_id", "zero"),
            "nodes[0].node_id", "int", "str",
        )

    def test_bool_is_not_an_int(self, bare_host):
        data = machine_to_dict(bare_host)
        self.check(
            _corrupt(data, "nodes", 3, "memory_bytes", True),
            "nodes[3].memory_bytes",
        )

    def test_core_ids_items_checked(self, bare_host):
        data = machine_to_dict(bare_host)
        data["nodes"][1]["core_ids"] = [0, "one"]
        self.check(data, "nodes[1].core_ids", "'one'")

    def test_unknown_link_kind_lists_choices(self, bare_host):
        data = machine_to_dict(bare_host)
        message = self.check(
            _corrupt(data, "links", 3, "kind", "carrier-pigeon"),
            "links[3].kind", "'carrier-pigeon'",
        )
        assert "one of" in message

    def test_link_field_type_named(self, bare_host):
        data = machine_to_dict(bare_host)
        self.check(
            _corrupt(data, "links", 0, "gts", None), "links[0].gts",
        )

    def test_params_unknown_key_named(self, bare_host):
        data = machine_to_dict(bare_host)
        data["params"]["warp_factor"] = 9
        self.check(data, "params.warp_factor")

    def test_params_missing_key_named(self, bare_host):
        data = machine_to_dict(bare_host)
        del data["params"]["llc_bytes"]
        self.check(data, "params.llc_bytes", "missing")

    def test_params_wrong_shape(self, bare_host):
        data = machine_to_dict(bare_host)
        data["params"] = [1]
        self.check(data, "params", "object")

    def test_name_must_be_string(self, bare_host):
        data = machine_to_dict(bare_host)
        data["name"] = 7
        self.check(data, "machine.name")

    def test_value_level_rejection_is_wrapped(self, bare_host):
        data = machine_to_dict(bare_host)
        message = self.check(
            _corrupt(data, "links", 0, "dma_credit", 7.5), "links[0]",
        )
        assert "Traceback" not in message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, index, field", [
        ("nodes", 3, "dram_gbps"),
        ("nodes", 3, "pio_ctrl_gbps"),
        ("links", 2, "gts"),
        ("links", 2, "pio_latency_s"),
        ("links", 2, "pio_cap_gbps"),
        ("params", None, "local_latency_s"),
        ("params", None, "pio_core_gbps_ns"),
        ("params", None, "dma_per_thread_gbps"),
        ("params", None, "router_latency_s"),
        ("params", None, "pio_request_frac"),
        ("params", None, "pio_response_frac"),
    ])
    def test_non_finite_values_named(self, bare_host, section, index, field, value):
        data = machine_to_dict(bare_host)
        entry = data[section] if index is None else data[section][index]
        entry[field] = value
        where = section if index is None else f"{section}[{index}]"
        self.check(data, f"{where} rejected", field, repr(value))

    def test_fuzzed_loads_never_leak_bare_errors(self, bare_host):
        pristine = machine_to_dict(bare_host)
        poisons = (None, True, "x", -1, [], {}, 1.5)
        for section in ("nodes", "packages", "links"):
            for field in pristine[section][0]:
                for poison in poisons:
                    data = machine_to_dict(bare_host)
                    data[section][0][field] = poison
                    try:
                        machine_from_dict(data)
                    except TopologyError:
                        pass  # the only acceptable failure mode
