"""Build-everything implementations of ``decode`` and ``serialize``, kept as test oracles.

These are the two functions as they were before each distinct layer was
built and encoded once: :func:`decode` makes a new ``LayerSpec`` for every
layer of every network, and :func:`serialize` builds the whole document as a
dict and dumps it in one ``json.dumps`` call. ``hwnas.space.decode`` must
return networks with the same ``repr``, and ``hwnas.arch.serialize`` the same
bytes, for every input.
"""

from __future__ import annotations

import json
from typing import Any

from hwnas.arch import META_KEY, BlockSpec, LayerSpec, NetworkSpec, round8
from hwnas.space import SpaceSpec, check_vector


def _block(space: SpaceSpec, bi: int, kinds: tuple, multiplier: float, c_in: int) -> BlockSpec:
    use_se = space.adaptation == "cpu"
    t = space.layout.blocks[bi]
    c_out = round8(multiplier * t.base_channels)
    layers = []
    for li, kind in enumerate(kinds):
        stride = t.layers[0].stride if li == 0 else 1
        layers.append(LayerSpec(kind, c_in, c_out, stride, use_se))
        c_in = c_out
    return BlockSpec(t.base_channels, multiplier, tuple(layers))


def decode(space: SpaceSpec, dv: tuple[int, ...]) -> NetworkSpec:
    check_vector(space, dv)
    chosen = {(d.block, d.layer): d.choices[idx] for d, idx in zip(space.decisions, dv)}
    layout = space.layout
    blocks = []
    c_in = layout.stem_channels
    for bi, tblock in enumerate(layout.blocks):
        kinds = tuple(chosen[(bi, li)] for li in range(len(tblock.layers)))
        block = _block(space, bi, kinds, chosen[(bi, None)], c_in)
        blocks.append(block)
        c_in = block.layers[-1].c_out
    return NetworkSpec(layout.input_resolution, layout.stem_channels, tuple(blocks))


def _layer_to_doc(layer: LayerSpec) -> dict:
    doc: dict[str, Any] = {"kind": layer.kind.op, "kernel": layer.kind.kernel}
    if layer.kind.op == "tucker":
        doc["compressions"] = [layer.kind.input_compression, layer.kind.output_compression]
    else:
        doc["expansion"] = layer.kind.expansion
    doc.update(
        c_in=layer.c_in,
        c_out=layer.c_out,
        stride=layer.stride,
        se=layer.use_se,
    )
    return doc


def serialize(net: NetworkSpec, meta: dict | None = None) -> str:
    doc = {
        "input_resolution": net.input_resolution,
        "stem_channels": net.stem_channels,
        "blocks": [
            {
                "base_channels": b.base_channels,
                "multiplier": b.multiplier,
                "layers": [_layer_to_doc(layer) for layer in b.layers],
            }
            for b in net.blocks
        ],
    }
    if meta:
        doc[META_KEY] = meta
    return json.dumps(doc) + "\n"
