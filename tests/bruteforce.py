"""Independent brute-force cost counters and sampler used as test oracles.

Everything here recomputes from first principles: its own width rounding,
its own shape and stride walks and explicit loops over output positions and
kernel cells for each constituent convolution. Nothing is shared with the library's
formula-based counters beyond reading the IR dataclasses. The sampler draws
one decision at a time, the plainest reading of a uniform draw, and
:func:`position_vectors` walks every choice a layer position reads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hwnas.arch import NetworkSpec, LayerSpec
from hwnas.space import SpaceSpec


def _round_to_8(value: float) -> int:
    nearest = int(math.floor(value / 8.0 + 0.5)) * 8
    return nearest if nearest >= 8 else 8


def conv_madds_loops(h_out: int, w_out: int, k: int, c_in: int, c_out: int) -> int:
    """Regular/pointwise conv: loop positions x kernel cells, accumulate c_in."""
    acc = 0
    for _y in range(h_out):
        for _x in range(w_out):
            for _i in range(k):
                for _j in range(k):
                    acc += c_in
    return acc * c_out


def depthwise_madds_loops(h_out: int, w_out: int, k: int, channels: int) -> int:
    acc = 0
    for _y in range(h_out):
        for _x in range(w_out):
            for _i in range(k):
                for _j in range(k):
                    acc += 1
    return acc * channels


def conv_params_loops(k: int, c_in: int, c_out: int) -> int:
    acc = 0
    for _i in range(k):
        for _j in range(k):
            for _c in range(c_in):
                acc += 1
    return acc * c_out


def depthwise_params_loops(k: int, channels: int) -> int:
    acc = 0
    for _i in range(k):
        for _j in range(k):
            acc += 1
    return acc * channels


def _se_counts(c_out: int) -> tuple[int, int]:
    squeezed = _round_to_8(0.25 * c_out)
    madds = conv_madds_loops(1, 1, 1, c_out, squeezed) + conv_madds_loops(1, 1, 1, squeezed, c_out)
    return madds, madds  # two 1x1 FC layers: params equal madds at 1x1 spatial


def brute_layer(layer: LayerSpec, h_in: int, w_in: int) -> tuple[int, int]:
    """(madds, params) of one layer, counted with loops."""
    k = layer.kind.kernel
    h_out = -(-h_in // layer.stride)
    w_out = -(-w_in // layer.stride)
    if layer.kind.op == "ibn":
        mid = _round_to_8(layer.kind.expansion * layer.c_in)
        madds = (
            conv_madds_loops(h_in, w_in, 1, layer.c_in, mid)
            + depthwise_madds_loops(h_out, w_out, k, mid)
            + conv_madds_loops(h_out, w_out, 1, mid, layer.c_out)
        )
        params = (
            conv_params_loops(1, layer.c_in, mid)
            + depthwise_params_loops(k, mid)
            + conv_params_loops(1, mid, layer.c_out)
        )
    elif layer.kind.op == "fused":
        mid = _round_to_8(layer.kind.expansion * layer.c_in)
        madds = (
            conv_madds_loops(h_out, w_out, k, layer.c_in, mid)
            + conv_madds_loops(h_out, w_out, 1, mid, layer.c_out)
        )
        params = conv_params_loops(k, layer.c_in, mid) + conv_params_loops(1, mid, layer.c_out)
    else:
        squeezed = _round_to_8(layer.kind.input_compression * layer.c_in)
        restored = _round_to_8(layer.kind.output_compression * layer.c_out)
        madds = (
            conv_madds_loops(h_in, w_in, 1, layer.c_in, squeezed)
            + conv_madds_loops(h_out, w_out, k, squeezed, restored)
            + conv_madds_loops(h_out, w_out, 1, restored, layer.c_out)
        )
        params = (
            conv_params_loops(1, layer.c_in, squeezed)
            + conv_params_loops(k, squeezed, restored)
            + conv_params_loops(1, restored, layer.c_out)
        )
    if layer.use_se:
        se_madds, se_params = _se_counts(layer.c_out)
        madds += se_madds
        params += se_params
    return madds, params


def brute_network(net: NetworkSpec) -> tuple[int, int]:
    """(total madds, total params) with an independent shape walk, stem included."""
    h = -(-net.input_resolution // 2)
    w = -(-net.input_resolution // 2)
    total_madds = conv_madds_loops(h, w, 3, 3, net.stem_channels)
    total_params = conv_params_loops(3, 3, net.stem_channels)
    for block in net.blocks:
        for layer in block.layers:
            madds, params = brute_layer(layer, h, w)
            total_madds += madds
            total_params += params
            h = -(-h // layer.stride)
            w = -(-w // layer.stride)
    return total_madds, total_params


def brute_taps(net: NetworkSpec) -> tuple[int, int]:
    """(C4, C5): scanning back from the last block, the first whose output stride
    (the stem's 2 times every layer stride up to the block's end) is 16, then
    32; -1 when no block ends there."""
    def out_stride(bi: int) -> int:
        stride = 2
        for block in net.blocks[:bi + 1]:
            for layer in block.layers:
                stride *= layer.stride
        return stride

    def last_at(target: int) -> int:
        for bi in reversed(range(len(net.blocks))):
            if out_stride(bi) == target:
                return bi
        return -1

    return last_at(16), last_at(32)


def scalar_random_sample(space: SpaceSpec, rng: np.random.Generator) -> tuple[int, ...]:
    """One scalar ``rng.integers`` call per decision, in decision order."""
    return tuple(int(rng.integers(len(d.choices))) for d in space.decisions)


def position_vectors(space: SpaceSpec) -> list[list[tuple[int, ...]]]:
    """Per layer position, in execution order, the sorted vectors that vary only the
    decisions shaping it: its kind, its block's multiplier and, for the first layer
    of any block after the first, the multiplier of the block before it (its input
    width). Every other decision is 0."""
    index = {(d.block, d.layer): i for i, d in enumerate(space.decisions)}
    out = []
    for bi, block in enumerate(space.layout.blocks):
        for li in range(len(block.layers)):
            reads = [index[bi, li], index[bi, None]]
            if li == 0 and bi > 0:
                reads.append(index[bi - 1, None])
            vectors = []
            for picks in itertools.product(*(range(len(space.decisions[i].choices))
                                             for i in reads)):
                dv = [0] * len(space.decisions)
                for i, pick in zip(reads, picks):
                    dv[i] = pick
                vectors.append(tuple(dv))
            out.append(sorted(vectors))
    return out
