"""The synthetic oracles' scores and a latency computed from a decoded network.

The oracles in ``hwnas.search`` and ``hwnas.cost.latency_of`` read a
table-priced architecture; these per-network formulas read ``network_cost``
and the network's layers instead, and are the reference the table path is
tested against. :func:`simulator_latency` is the unit loop the simulators
priced with before a layer's latency addends were kept in the space table.
"""

from __future__ import annotations

import math

from hwnas.analysis import STEM_BUCKET, bucket_id, network_cost
from hwnas.arch import IMAGE_CHANNELS, NetworkSpec, iter_layers
from hwnas.cost import DeviceSimulator, LatencyModel
from hwnas.search import CapacityOracle, LinearFeatureOracle


def _buckets(net: NetworkSpec) -> list[str]:
    """Each layer's bucket, stem first."""
    return [bucket_id(STEM_BUCKET, IMAGE_CHANNELS, net.stem_channels)] + [
        bucket_id(layer.kind.atom_id, layer.c_in, layer.c_out) for _, _, layer in iter_layers(net)]


def _noisy01(score: float, sigma: float, rng) -> float:
    if rng is not None and sigma > 0:
        score += rng.normal(0.0, sigma)
    return min(1.0, max(0.0, score))


def capacity_score(oracle: CapacityOracle, net: NetworkSpec, rng=None) -> float:
    score = 1.0 - math.exp(-network_cost(net).total_madds / oracle.scale_madds)
    return _noisy01(score, oracle.noise_sigma, rng)


def linear_score(oracle: LinearFeatureOracle, net: NetworkSpec, rng=None) -> float:
    score = 0.0
    for b in _buckets(net):  # in layer order, uncompensated on every Python version
        score += oracle.weights.get(b, 0.0)
    score /= sum(len(block.layers) for block in net.blocks) + 1  # every layer and the stem
    return _noisy01(score, oracle.noise_sigma, rng)


def model_latency(model: LatencyModel, net: NetworkSpec) -> float:
    total = model.intercept
    for b in _buckets(net):  # in layer order
        total += model.weights[model.buckets.index(b)]
    return float(total)


def simulator_latency(device: DeviceSimulator, net: NetworkSpec, rng=None) -> float:
    total = device.overhead_ms * (sum(len(block.layers) for block in net.blocks) + 1)
    for layer in network_cost(net).layers:  # in layer order, then unit order
        for op_class, madds in layer.units:
            total += getattr(device, op_class) * madds / 1e6
    if rng is not None and device.noise_sigma > 0:
        factor = 0.0
        while factor <= 0.0:  # a factor that is not positive is redrawn
            factor = 1.0 + rng.normal(0.0, device.noise_sigma)
        total *= factor
    return total
