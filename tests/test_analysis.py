"""Exact cost counting against frozen values and the brute-force oracle."""

import dataclasses
import itertools

import numpy as np
import pytest

from hwnas.analysis import layer_cost, net_feature_counts, network_cost, space_buckets
from hwnas.arch import (
    InvalidArchitectureError,
    LayerSpec,
    default_layout,
    fused,
    ibn,
    iter_layers,
    tucker,
)
from hwnas.space import ADAPTATIONS, VARIANTS, build_space, decode, enumerate_space, random_sample
from bruteforce import brute_layer, brute_network
from strategies import make_layout

IBN_LAYER = LayerSpec(ibn(3, 4), 16, 16, 1)
FUSED_LAYER = LayerSpec(fused(3, 4), 16, 16, 1)
TUCKER_LAYER = LayerSpec(tucker(3, 0.25, 0.75), 32, 32, 1)


@pytest.mark.parametrize(
    "layer,expected",
    [(IBN_LAYER, 514_304), (FUSED_LAYER, 2_007_040), (TUCKER_LAYER, 539_392)],
)
def test_layer_madds_frozen_values(layer, expected):
    assert layer_cost(layer, 14).madds == expected
    assert brute_layer(layer, 14, 14)[0] == expected


@pytest.mark.parametrize(
    "layer,expected",
    [(IBN_LAYER, 2_624), (FUSED_LAYER, 10_240), (TUCKER_LAYER, 2_752)],
)
def test_layer_params_frozen_values(layer, expected):
    assert layer_cost(layer, 14).params == expected
    assert brute_layer(layer, 14, 14)[1] == expected


def test_stride_two_applies_after_first_pointwise():
    layer = dataclasses.replace(IBN_LAYER, stride=2)
    # expand at 14x14, depthwise and project at 7x7
    expected = 14 * 14 * 16 * 64 + 7 * 7 * 9 * 64 + 7 * 7 * 64 * 16
    assert layer_cost(layer, 14).madds == expected
    assert brute_layer(layer, 14, 14)[0] == expected
    layer = dataclasses.replace(TUCKER_LAYER, stride=2)
    # squeeze at 14x14, core and restore at 7x7
    expected = 14 * 14 * 32 * 8 + 7 * 7 * 9 * 8 * 24 + 7 * 7 * 24 * 32
    assert layer_cost(layer, 14).madds == expected
    assert brute_layer(layer, 14, 14)[0] == expected


def test_se_block_accounting():
    layer = dataclasses.replace(IBN_LAYER, use_se=True)
    extra = 2 * 16 * 8  # squeeze width round8(0.25 * 16) = 8
    cost = layer_cost(layer, 14)
    assert cost.madds == 514_304 + extra
    assert cost.params == 2_624 + extra
    assert ("se_block", extra) in cost.units
    assert brute_layer(layer, 14, 14) == (514_304 + extra, 2_624 + extra)


def test_tucker_unit_ratios_degenerate_cleanly():
    # ratios of 1.0 violate search-space rules but the formulas stay defined
    layer = LayerSpec(tucker(3, 1.0, 1.0), 32, 32, 1)
    expected = 14 * 14 * 32 * 32 + 14 * 14 * 9 * 32 * 32 + 14 * 14 * 32 * 32
    assert layer_cost(layer, 14).madds == expected


def test_network_cost_rejects_bad_dims():
    net = make_layout(32, 16, [(16, 1, 1)])
    layer = dataclasses.replace(net.blocks[0].layers[0], c_in=0)
    block = dataclasses.replace(net.blocks[0], layers=(layer,))
    with pytest.raises(InvalidArchitectureError):
        network_cost(dataclasses.replace(net, blocks=(block,)))
    with pytest.raises(InvalidArchitectureError):
        network_cost(dataclasses.replace(net, input_resolution=0))


def test_network_cost_single_layer_additivity():
    net = make_layout(32, 16, [(16, 1, 2)])
    stem, layer = network_cost(net).layers
    assert stem.madds == 16 * 16 * 9 * 3 * 16
    assert network_cost(net).total_madds == stem.madds + layer.madds
    assert network_cost(net).total_params == stem.params + layer.params


def test_resolution_doubling_quadruples_stride1_madds():
    small = make_layout(32, 16, [(16, 1, 1)])
    big = make_layout(64, 16, [(16, 1, 1)])
    big, small = network_cost(big).layers[1], network_cost(small).layers[1]
    assert big.madds == 4 * small.madds
    assert big.params == small.params


def test_default_layout_matches_brute_network():
    net = default_layout()
    cost = network_cost(net)
    assert (cost.total_madds, cost.total_params) == brute_network(net)


def test_multiplier_monotonicity():
    layout = make_layout(32, 16, [(24, 2, 2)])
    space = build_space("ibn_fused_tucker", "neutral", layout)
    prev_madds, prev_params = 0, 0
    for mult_idx in range(7):
        net = decode(space, (5, 5, mult_idx))
        cost = network_cost(net)
        assert cost.total_madds >= prev_madds
        assert cost.total_params >= prev_params
        prev_madds, prev_params = cost.total_madds, cost.total_params


def test_feature_counts():
    layout = make_layout(32, 16, [(16, 2, 1)])
    space = build_space("ibn", "neutral", layout)
    net = decode(space, (0, 0, 3))  # two identical ibn_k3_s4 16->16 layers
    feats = net_feature_counts(net)
    assert feats["ibn_k3_s4|16|16"] == 2
    assert feats["stem|3|16"] == 1
    assert sum(feats.values()) == 3


def test_feature_counts_differ_in_two_buckets():
    layout = make_layout(32, 16, [(16, 2, 1)])
    space = build_space("ibn_fused", "neutral", layout)
    a = net_feature_counts(decode(space, (0, 0, 3)))
    b = net_feature_counts(decode(space, (0, 4, 3)))  # second layer fused instead
    diff = set(a.items()) ^ set(b.items())
    assert len({k for k, _ in diff}) == 2


def test_space_buckets_cover_all_samples():
    layout = make_layout(32, 40, [(16, 2, 2), (48, 1, 2)])
    space = build_space("ibn_fused_tucker", "neutral", layout)
    buckets = set(space_buckets(space))
    rng = np.random.default_rng(0)
    for _ in range(300):
        net = decode(space, random_sample(space, rng))
        assert set(net_feature_counts(net)) <= buckets


def test_space_buckets_exact_for_enumerable_space():
    """The buckets the decoded networks touch, over every variant x adaptation.

    Two multipliers keep three-layer spaces enumerable. The second block's
    first layer reads either width of the first block; later layers keep
    their block's width.
    """
    layout = make_layout(32, 40, [(16, 2, 2), (24, 1, 1)])
    for variant, adaptation in itertools.product(VARIANTS, ADAPTATIONS):
        space = build_space(variant, adaptation, layout, multipliers=(0.5, 2.0))
        seen = set()
        for dv in enumerate_space(space):
            seen |= set(net_feature_counts(decode(space, dv)))
        assert seen == set(space_buckets(space)), (variant, adaptation)


def test_total_counts_property():
    layout = make_layout(32, 16, [(16, 2, 2), (24, 1, 1)])
    space = build_space("ibn_fused_tucker", "cpu", layout)
    rng = np.random.default_rng(5)
    for _ in range(30):
        net = decode(space, random_sample(space, rng))
        counts = net_feature_counts(net)
        assert sum(counts.values()) == sum(1 for _ in iter_layers(net)) + 1
        assert all(c > 0 for c in counts.values())
