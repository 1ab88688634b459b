"""Per-space unit tables against the per-network path they replace in searches."""

import dataclasses
import itertools
import re
from functools import cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hwnas.analysis import layer_cost, network_cost, network_units, space_buckets, space_table
from hwnas.arch import default_layout, derive_shapes, toy2_layout
from hwnas.cost import BUILTIN_DEVICES, LatencyModel, fit, generate_benchmarks, simulate_latency
from hwnas.search import CapacityOracle, LinearFeatureOracle, _Evaluator, arch_hash, latency_of
from hwnas.space import ADAPTATIONS, VARIANTS, build_space, decode
from bruteforce import position_vectors
from reference_oracles import capacity_score, linear_score, model_latency, simulator_latency
from strategies import spaces_with_dv

LAYOUTS = {"default320": default_layout(),
           "default224": dataclasses.replace(default_layout(), input_resolution=224),
           "toy2": toy2_layout()}
NOISY_ACCEL = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=0.05)


@cache
def _space(variant, adaptation, layout):
    return build_space(variant, adaptation, LAYOUTS[layout])


@cache
def _scorers(variant, adaptation, layout):
    """Both oracles, noisy, and a latency model with random weights over every
    bucket."""
    space = _space(variant, adaptation, layout)
    oracles = ((CapacityOracle(3e8, noise_sigma=0.05), capacity_score),
               (LinearFeatureOracle.random_for_space(space, 3, noise_sigma=0.05), linear_score))
    buckets = space_buckets(space)
    model = LatencyModel(buckets, np.random.default_rng(5).uniform(size=len(buckets)), 0.5,
                         0.0, 0.0)
    return oracles, model


@pytest.mark.parametrize("variant,adaptation,layout",
                         list(itertools.product(VARIANTS, ADAPTATIONS, LAYOUTS)))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_table_prices_like_the_decoded_network(variant, adaptation, layout, data):
    space = _space(variant, adaptation, layout)
    dv = tuple(data.draw(st.integers(0, len(d.choices) - 1)) for d in space.decisions)
    net = decode(space, dv)
    cost = space_table(space).price(dv)
    assert cost == network_cost(net)  # every layer's units, madds, params, op and key
    assert network_units(net) == tuple(layer.units for layer in cost.layers)

    oracles, model = _scorers(variant, adaptation, layout)
    for oracle, score in oracles:
        assert oracle.evaluate(cost, None) == score(oracle, net)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noisy = oracle.evaluate(cost, np.random.default_rng(seed))
        assert noisy == score(oracle, net, np.random.default_rng(seed))

    assert latency_of(NOISY_ACCEL, cost) == simulate_latency(NOISY_ACCEL, net)
    assert latency_of(NOISY_ACCEL, cost, np.random.default_rng(1)) == simulate_latency(
        NOISY_ACCEL, net, np.random.default_rng(1))
    assert latency_of(model, cost) == model_latency(model, net)


@cache
def _fitted(layout):
    space = _space("ibn_fused_tucker", "neutral", layout)
    records = generate_benchmarks(space, NOISY_ACCEL, 40, np.random.default_rng(0))
    return fit(records, space, ridge_lambda=1e-3)


@pytest.mark.parametrize("layout", ["toy2", "default320"])
@pytest.mark.parametrize("source", ["cpu_sim", "accel_sim", "dsp_sim", "noisy_accel", "model"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_a_search_prices_latency_from_the_table_like_the_decoded_network(layout, source, data):
    """A search's cache miss sums the addends of the table's latency column: exactly
    ``latency_of`` of the decoded network, and the per-network reference, noise included."""
    space = _space("ibn_fused_tucker", "neutral", layout)
    source = _fitted(layout) if source == "model" else {**BUILTIN_DEVICES,
                                                         "noisy_accel": NOISY_ACCEL}[source]
    dv = tuple(data.draw(st.integers(0, len(d.choices) - 1)) for d in space.decisions)
    evaluator = _Evaluator(space, CapacityOracle(3e8), source, seed=7)
    _, latency = evaluator.evaluate(dv)
    net = decode(space, dv)
    # the noiseless oracle draws nothing: the latency noise is the keyed rng's first draw
    assert latency == latency_of(source, network_cost(net), evaluator._keyed_rng(arch_hash(dv)))
    if isinstance(source, LatencyModel):
        assert latency == model_latency(source, net)
    else:
        assert latency == simulator_latency(source, net, evaluator._keyed_rng(arch_hash(dv)))


@given(space_dv=spaces_with_dv())
@settings(max_examples=60, deadline=None)
def test_table_prices_random_layouts(space_dv):
    """Odd resolutions, stride patterns and stems that are not multiples of 8."""
    space, dv = space_dv
    net = decode(space, dv)
    cost = space_table(space).price(dv)
    assert cost == network_cost(net)
    assert network_units(net) == tuple(layer.units for layer in cost.layers)


@pytest.mark.parametrize("variant,adaptation,layout",
                         [(v, a, "toy2") for v, a in itertools.product(VARIANTS, ADAPTATIONS)]
                         + [("ibn_fused_tucker", a, "default320") for a in ADAPTATIONS])
def test_every_table_entry_costs_the_layer_decode_builds(variant, adaptation, layout):
    """Each entry, reached through ``price`` alone, against the layer ``decode`` builds."""
    space = _space(variant, adaptation, layout)
    table = space_table(space)
    sizes = derive_shapes(space.layout)  # layer p reads a sizes[p] input
    atoms, mults = len(space.decisions[0].choices), len(space.decisions[-1].choices)
    where = [(bi, li) for bi, block in enumerate(space.layout.blocks)
             for li in range(len(block.layers))]
    for p, ((bi, li), vectors) in enumerate(zip(where, position_vectors(space), strict=True)):
        reached = set()
        for dv in vectors:
            cost = table.price(dv).layers[p + 1]
            assert cost == layer_cost(decode(space, dv).blocks[bi].layers[li], sizes[p])
            reached.add(id(cost))
        # atoms x input-width choices x multipliers entries, each reached by one vector
        input_widths = mults if li == 0 and bi > 0 else 1
        assert len(table._positions[p][1]) == atoms * input_widths * mults == len(reached)


def test_table_is_built_once_per_space():
    space = _space("ibn", "neutral", "toy2")
    assert space_table(space) is space_table(build_space("ibn", "neutral", toy2_layout()))


@pytest.mark.parametrize("bad", [
    (0, 0),  # too short
    (0, 0, 0, 0),  # too long
    (4, 0, 0),  # kind index past the last atom
    (0, 0, 7),  # multiplier index past the menu
    (-1, 0, 0),  # negative: a list index would wrap to the last atom
    (0, 0, -7),  # negative: would wrap to the first multiplier
])
def test_lookup_rejects_bad_vectors_like_decode(bad):
    space = _space("ibn", "neutral", "toy2")  # 4 atoms x 2 layers, 7 multipliers
    with pytest.raises(IndexError) as decoded:
        decode(space, bad)
    with pytest.raises(IndexError, match=re.escape(str(decoded.value))):
        space_table(space).price(bad)
