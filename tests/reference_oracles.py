"""The synthetic oracles' scores computed from a decoded network.

The oracles in ``hwnas.search`` score a table-priced architecture; these
per-network formulas read ``network_cost``, ``net_feature_counts`` and the
network's layers instead, and are the reference the table path is tested
against.
"""

from __future__ import annotations

import math

from hwnas.analysis import net_feature_counts, network_cost
from hwnas.arch import NetworkSpec
from hwnas.search import CapacityOracle, LinearFeatureOracle


def _noisy01(score: float, sigma: float, rng) -> float:
    if rng is not None and sigma > 0:
        score += rng.normal(0.0, sigma)
    return min(1.0, max(0.0, score))


def capacity_score(oracle: CapacityOracle, net: NetworkSpec, rng=None) -> float:
    score = 1.0 - math.exp(-network_cost(net).total_madds / oracle.scale_madds)
    if oracle.early_regular_bonus:
        ops = [layer.kind.op for block in net.blocks for layer in block.layers]
        early = ops[:-(-len(ops) // 2)]  # the first ceil(n/2) layers
        score += oracle.early_regular_bonus * (sum(op != "ibn" for op in early) / len(early))
    return _noisy01(score, oracle.noise_sigma, rng)


def linear_score(oracle: LinearFeatureOracle, net: NetworkSpec, rng=None) -> float:
    counts = net_feature_counts(net)
    score = sum(oracle.weights.get(b, 0.0) * c for b, c in counts.items())
    score /= sum(len(block.layers) for block in net.blocks) + 1  # every layer and the stem
    return _noisy01(score, oracle.noise_sigma, rng)
