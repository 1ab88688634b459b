"""Architecture IR: validation, shapes, serialization, DOT export."""

import dataclasses
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hwnas import arch
from hwnas.arch import (
    MAX_RESOLUTION,
    MAX_WIDTH,
    BlockSpec,
    InvalidArchitectureError,
    LayerSpec,
    NetworkSpec,
    ParseError,
    build_block,
    default_layout,
    derive_shapes,
    deserialize,
    export_dot,
    feature_taps,
    functional_signature,
    fused,
    ibn,
    iter_layers,
    kind_violations,
    load_file,
    round8,
    save_file,
    serialize,
    toy2_layout,
    tucker,
    validate,
    width_violations,
)
from hwnas.cost import BUILTIN_DEVICES, simulate_latency
from hwnas.space import ADAPTATIONS, VARIANTS, build_space, decode, random_sample
import reference_codec as ref
from bruteforce import brute_network, brute_taps
from strategies import make_layout, nets


def assert_round_trips(net):
    """``serialize`` writes one line that reads back as ``net``, as does any indented copy."""
    text = serialize(net)
    assert text.endswith("\n") and text.count("\n") == 1
    assert deserialize(text) == net
    assert deserialize(json.dumps(json.loads(text), indent=2)) == net


def replace_layer(net, bi, li, **changes):
    block = net.blocks[bi]
    layers = list(block.layers)
    layers[li] = dataclasses.replace(layers[li], **changes)
    blocks = list(net.blocks)
    blocks[bi] = dataclasses.replace(block, layers=tuple(layers))
    return dataclasses.replace(net, blocks=tuple(blocks))


@pytest.mark.parametrize(
    "value,expected",
    [(1, 8), (4, 8), (8, 8), (12, 16), (20, 24), (30, 32), (48, 48), (0.5 * 16, 8)],
)
def test_round8(value, expected):
    assert round8(value) == expected


def test_default_layout_is_valid():
    assert validate(default_layout()) == []


def test_toy2_layout_is_valid():
    assert validate(toy2_layout()) == []


def test_rounding_violation():
    net = make_layout(32, 16, [(16, 1, 1)])
    bad = replace_layer(net, 0, 0, c_out=20)
    assert any("c_out 20" in v and "round8" in v for v in validate(bad))


def test_even_kernel_violation():
    net = make_layout(32, 16, [(16, 1, 1)])
    bad = replace_layer(net, 0, 0, kind=ibn(4, 4))
    assert any("kernel must be odd" in v for v in validate(bad))


def test_stride_only_on_first_layer():
    net = make_layout(32, 16, [(16, 2, 1)])
    bad = replace_layer(net, 0, 1, stride=2)
    assert any("only the first layer" in v for v in validate(bad))


def test_channel_continuity_violation():
    net = make_layout(32, 16, [(16, 1, 1), (16, 1, 1)])
    bad = replace_layer(net, 1, 0, c_in=24)
    assert any("channel continuity" in v for v in validate(bad))


def test_a_block_without_layers_is_a_violation():
    net = make_layout(32, 16, [(16, 1, 1), (16, 1, 1)])
    empty = dataclasses.replace(net.blocks[1], layers=())
    assert validate(dataclasses.replace(net, blocks=(net.blocks[0], empty))) == [
        "block 1: a block needs at least one layer"]


def test_derive_shapes_two_halvings():
    net = make_layout(320, 32, [(32, 2, 2)])
    sizes = derive_shapes(net)
    assert sizes[0] == 160
    assert all(s == 80 for s in sizes[1:])


def test_derive_shapes_default_c5_at_10x10():
    net = default_layout()
    sizes = derive_shapes(net)
    assert len(sizes) == 1 + 17  # the stem, then each layer
    # blocks 6..8 sit at output stride 32
    assert all(s == 10 for s in sizes[-5:])


def test_derive_shapes_ceil_division():
    net = make_layout(321, 16, [(16, 1, 1)])
    assert derive_shapes(net)[0] == 161


def test_derive_shapes_rejects_invalid():
    bad = replace_layer(make_layout(32, 16, [(16, 1, 1)]), 0, 0, c_out=20)
    with pytest.raises(InvalidArchitectureError) as err:
        derive_shapes(bad)
    assert err.value.violations


def test_serialize_round_trip_default():
    assert_round_trips(default_layout())


def test_serialize_writes_one_line_in_canonical_key_order():
    net = replace_layer(default_layout(), 0, 0, kind=tucker(3, 0.25, 0.75))
    text = serialize(net)
    doc = json.loads(text)
    assert text == json.dumps(doc) + "\n"
    assert list(doc) == ["input_resolution", "stem_channels", "blocks"]
    assert list(doc["blocks"][0]) == ["base_channels", "multiplier", "layers"]
    tail = ["c_in", "c_out", "stride", "se"]
    assert list(doc["blocks"][0]["layers"][0]) == ["kind", "kernel", "compressions", *tail]
    assert list(doc["blocks"][1]["layers"][0]) == ["kind", "kernel", "expansion", *tail]


def test_deserialize_missing_blocks():
    with pytest.raises(ParseError, match="missing field.*blocks"):
        deserialize('{"input_resolution": 32, "stem_channels": 16}')


def test_deserialize_rejects_unknown_fields():
    doc = serialize(default_layout()).replace('"input_resolution"', '"bogus": 1, "input_resolution"', 1)
    with pytest.raises(ParseError, match="unknown field"):
        deserialize(doc)


def test_deserialize_even_kernel():
    doc = serialize(make_layout(32, 16, [(16, 1, 1)])).replace('"kernel": 3', '"kernel": 4')
    with pytest.raises(InvalidArchitectureError, match="kernel must be odd"):
        deserialize(doc)


def test_deserialize_bad_json_reports_location():
    with pytest.raises(ParseError, match="line 1"):
        deserialize("{nope")


def test_deserialize_ignores_meta():
    doc = json.loads(serialize(toy2_layout()))
    doc["_meta"] = {"tool": "test"}
    assert deserialize(json.dumps(doc)) == toy2_layout()
    assert deserialize(json.dumps(doc, indent=2)) == toy2_layout()


def test_save_file_with_meta_reads_back(tmp_path):
    path = tmp_path / "net.json"
    save_file(default_layout(), path, meta={"tool": "test", "seed": 3})
    text = path.read_text()
    assert text.count("\n") == 1
    assert list(json.loads(text)) == [
        "input_resolution", "stem_channels", "blocks", "_meta",
    ]
    assert json.loads(text)["_meta"] == {"tool": "test", "seed": 3}
    assert load_file(path) == default_layout()


@pytest.mark.parametrize("text, message", [
    ("{nope", "invalid JSON at line 1 column 2"),
    ('{"input_resolution": 32}', "document: missing field(s)"),
    (serialize(toy2_layout()).replace('"kernel": 3', '"kernel": 4', 1), "kernel must be odd"),
], ids=["not_json", "missing_field", "invalid"])
def test_load_file_names_the_file(tmp_path, text, message):
    path = tmp_path / "net.json"
    path.write_text(text)
    with pytest.raises((ParseError, InvalidArchitectureError)) as info:
        load_file(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_export_dot_counts():
    net = make_layout(32, 16, [(16, 1, 1)])
    dot = export_dot(net)
    edges = [line for line in dot.splitlines() if " -> " in line]
    labels = [line for line in dot.splitlines() if "label=" in line and "node [" not in line]
    assert len(edges) == 2
    assert len(labels) == 3  # stem, one layer, head


def test_export_dot_tucker_label():
    net = make_layout(32, 16, [(16, 1, 1)])
    net = replace_layer(net, 0, 0, kind=tucker(3, 0.25, 0.75))
    assert "Tucker 3x3 0.25-0.75" in export_dot(net)


def test_export_dot_endpoint_annotation():
    # three stride-2 blocks reach output stride 16 at block 2
    net = make_layout(64, 16, [(16, 1, 2), (16, 1, 2), (24, 2, 2)])
    assert validate(net) == []
    lines = [line for line in export_dot(net).splitlines() if "C4" in line]
    assert len(lines) == 1 and "b2_l1" in lines[0]


@settings(max_examples=80)
@given(nets(max_blocks=6))
def test_feature_taps_match_the_brute_walk_and_survive_a_round_trip(net):
    taps = feature_taps(net)
    assert taps == brute_taps(net)
    assert feature_taps(deserialize(serialize(net))) == taps


@pytest.mark.parametrize("layout, taps", [(default_layout, (5, 8)), (toy2_layout, (-1, -1))])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("adaptation", ADAPTATIONS)
def test_decoded_nets_tap_the_layout_blocks(layout, taps, variant, adaptation):
    space = build_space(variant, adaptation, layout())
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert feature_taps(decode(space, random_sample(space, rng))) == taps


def test_default_document_without_taps_loads_and_marks_them():
    net = deserialize(serialize(default_layout()))
    assert net == default_layout()
    dot = export_dot(net).splitlines()
    assert [line.split()[0] for line in dot if "C4" in line] == ["b5_l1"]
    assert [line.split()[0] for line in dot if "C5" in line] == ["b8_l0"]


def test_width_rule_holds_up_to_the_limit():
    assert width_violations(ibn(3, 2), MAX_WIDTH // 2, 8, "x") == []
    assert width_violations(ibn(3, 2), MAX_WIDTH // 2 + 1, 8, "x") == [
        f"x: expansion 2 widens {MAX_WIDTH // 2 + 1} channels past {MAX_WIDTH}"]
    assert width_violations(tucker(3, 0.5, 0.5), MAX_WIDTH, MAX_WIDTH, "x") == []
    assert width_violations(tucker(3, 0.5, 0.5), 8, MAX_WIDTH + 1, "x") == [
        f"x: channel counts must be at most {MAX_WIDTH} (8 -> {MAX_WIDTH + 1})"]


def test_resolution_rule_holds_up_to_the_limit():
    """At the limit, a network as wide as the width rule allows still prices finitely."""
    assert validate(dataclasses.replace(toy2_layout(), input_resolution=MAX_RESOLUTION + 1)) == [
        f"input_resolution must be at most {MAX_RESOLUTION}, got {MAX_RESOLUTION + 1}"]
    widest = NetworkSpec(MAX_RESOLUTION, MAX_WIDTH, (
        build_block(MAX_WIDTH, 1.0, 1, MAX_WIDTH, (tucker(3, 0.5, 0.5),)),))
    assert validate(widest) == []
    assert math.isfinite(simulate_latency(BUILTIN_DEVICES["cpu_sim"], widest))


def test_kernel_rule_holds_up_to_the_limit():
    """The widest kernel the rule allows, at the widest and largest maps, prices finitely."""
    assert kind_violations(ibn(arch.MAX_KERNEL + 1, 4), "x") == [
        f"x: kernel must be at most {arch.MAX_KERNEL}, got {arch.MAX_KERNEL + 1}"]
    widest = NetworkSpec(MAX_RESOLUTION, MAX_WIDTH, (build_block(
        MAX_WIDTH, 1.0, 1, MAX_WIDTH, (tucker(arch.MAX_KERNEL - 1, 0.5, 0.5),)),))
    assert validate(widest) == []
    assert math.isfinite(simulate_latency(BUILTIN_DEVICES["cpu_sim"], widest))


def test_functional_signature_ignores_multiplier_bookkeeping():
    base = make_layout(32, 16, [(16, 1, 1)])
    block = base.blocks[0]
    alias = dataclasses.replace(
        base, blocks=(dataclasses.replace(block, base_channels=32, multiplier=0.5),)
    )
    assert validate(alias) == []
    assert base != alias
    assert functional_signature(base) == functional_signature(alias)


def twins(value) -> list:
    """``value``, and values equal to it or to zero that dump differently."""
    if isinstance(value, bool):
        return [value, int(value)]
    if isinstance(value, float):
        return [value, *([int(value)] if value.is_integer() else []), 0.0, -0.0, math.nan]
    return [value]


@st.composite
def retyped(draw, net):
    """``net`` with some of its float and bool fields swapped for :func:`twins`."""
    def pick(obj, *fields):
        return dataclasses.replace(
            obj, **{f: draw(st.sampled_from(twins(getattr(obj, f)))) for f in fields})

    blocks = tuple(
        pick(dataclasses.replace(b, layers=tuple(
            pick(dataclasses.replace(layer, kind=pick(layer.kind, "expansion",
                 "input_compression", "output_compression")), "use_se")
            for layer in b.layers)), "multiplier")
        for b in net.blocks)
    return dataclasses.replace(net, blocks=blocks)


@settings(max_examples=150)
@given(nets(), st.data())
def test_serialize_matches_the_reference(net, data):
    """Byte for byte against the one-dump encoder, with and without ``meta``, from an
    empty block-head cache: equal values that dump differently (4 and 4.0, True and 1,
    0.0 and -0.0) keep their own bytes whichever is encoded first."""
    arch._block_head.cache_clear()
    for n in data.draw(st.permutations([net, data.draw(retyped(net))])):
        for meta in (None, {"seed": 3}):
            assert serialize(n, meta) == ref.serialize(n, meta)


@pytest.mark.parametrize("twin_first", [False, True])
def test_serialize_keeps_equal_fields_of_other_types_apart(twin_first):
    net = decode(build_space("ibn", "cpu", toy2_layout()), (0, 1, 3))
    block, layer = net.blocks[0], net.blocks[0].layers[0]
    layer = dataclasses.replace(layer, kind=dataclasses.replace(layer.kind, expansion=4), use_se=1)
    twin = dataclasses.replace(net, blocks=(dataclasses.replace(
        block, multiplier=1, layers=(layer, *block.layers[1:])),))
    assert twin == net  # 4 == 4.0, 1 == 1.0 and 1 == True
    arch._block_head.cache_clear()
    order = [twin, net] if twin_first else [net, twin]
    assert [serialize(n) for n in order] == [ref.serialize(n) for n in order]
    text = serialize(twin)
    assert '"multiplier": 1,' in text and '"expansion": 4,' in text and '"se": 1}' in text


@settings(max_examples=60)
@given(nets())
def test_round_trip_property(net):
    assert_round_trips(net)


@settings(max_examples=60)
@given(nets())
def test_shapes_monotone_property(net):
    sizes = derive_shapes(net)
    for s0, s1 in zip(sizes, sizes[1:]):
        assert s1 <= s0
        assert s1 >= 1


@settings(max_examples=60)
@given(nets())
def test_valid_nets_analyze_cleanly(net):
    from hwnas.analysis import network_cost

    assert validate(net) == []
    assert len(derive_shapes(net)) == 1 + sum(len(b.layers) for b in net.blocks)
    cost = network_cost(net)
    assert len(cost.layers) == sum(len(b.layers) for b in net.blocks) + 1  # the stem first
    assert cost.total_madds == sum(layer.madds for layer in cost.layers)
    assert cost.total_params == sum(layer.params for layer in cost.layers)
    assert (cost.total_madds, cost.total_params) == brute_network(net)
    export_dot(net)


def test_build_block_chains_layers():
    kinds = (ibn(3, 4), fused(5, 8), tucker(3, 0.25, 0.75))
    block = build_block(16, 1.5, 2, 40, kinds)
    assert (block.base_channels, block.multiplier, len(block.layers), block.layers[0].stride) == (
        16, 1.5, 3, 2)
    assert tuple(layer.kind for layer in block.layers) == kinds
    assert [(layer.c_in, layer.c_out, layer.stride, layer.use_se) for layer in block.layers] == [
        (40, 24, 2, False), (24, 24, 1, False), (24, 24, 1, False)]
    assert validate(NetworkSpec(32, 40, (block,))) == []
