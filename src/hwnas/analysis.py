"""Exact multiply-add and parameter counting, plus cost-model features.

Counting conventions
--------------------
One multiply-accumulate counts as 1. Kernels only: biases, batch-norm
parameters, elementwise adds (residuals) and activations count as zero.

Each layer's cost is written once, in the formula table of
:func:`_layer_table`: one row per constituent conv, holding its op class,
its kernel weights and the spatial positions it runs at. With ``h, w`` the
layer input size, ``h', w'`` the post-stride output size and ``sC1``/``eC2``
the rounded internal widths, the rows are (weights @ positions)::

    ibn:    C1*sC1 @ h*w  +  K^2*sC1     @ h'*w'  +  sC1*C2 @ h'*w'
    fused:                   K^2*C1*sC1  @ h'*w'  +  sC1*C2 @ h'*w'
    tucker: C1*sC1 @ h*w  +  K^2*sC1*eC2 @ h'*w'  +  eC2*C2 @ h'*w'

A squeeze-excite block, when enabled, adds two fully connected layers over
the layer output width C at squeeze ratio 0.25: ``2 * C * round8(0.25*C)``
weights that run once per image. The stem is one ``3x3`` conv from the
image channels: ``9 * 3 * stem`` weights at the stem's output positions.

A row's multiply-adds are its weights times its positions. Parameters are
the weights column of the same table, which equals a layer's multiply-adds
at a 1x1 input.

Per-space unit tables
---------------------
Searches price architectures by decision vector, not by network. Within a
space a layer's units depend only on its atom, its block's multiplier, the
previous block's multiplier (first layer of a block only: it sets ``C1``)
and its input size and stride, which the layout fixes per position. So
:func:`space_table` evaluates :func:`_layer_table` once per layer position
for every (atom, c_in choice, c_out choice), on layers built by the same
:meth:`~hwnas.space.SpaceSpec.block` that ``decode`` uses, at the input
sizes ``derive_shapes`` gives the layout. :meth:`SpaceTable.price` then looks
each position up by its decision indices and returns exactly
``network_units(decode(space, dv))``, with no decode, validation or hashing
of a network. That needs no validation because every decision vector of a
built space decodes to a valid network (see
:func:`~hwnas.space.build_space`). :func:`network_units` and
:func:`network_cost` stay the entry for networks read from files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .arch import (
    IMAGE_CHANNELS,
    STEM_KERNEL,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    derive_shapes,
    iter_layers,
    round8,
)
from .space import DecisionVector, SpaceSpec, check_vector

SE_RATIO = 0.25

# Operation classes the device simulators price separately.
OP_CLASSES = ("regular_conv", "depthwise_conv", "pointwise_conv", "se_block")

STEM_BUCKET = "stem"

# Where a constituent conv runs: over the layer input (before the stride),
# over the layer output (after it), or once per image.
_IN, _OUT, _ONCE = 0, 1, 2

_Table = list[tuple[str, int, int]]
Units = tuple[tuple[str, int], ...]


def _layer_table(kind: LayerKind, c1: int, c2: int, use_se: bool) -> _Table:
    """(op class, kernel weights, positions) of each constituent conv, in order."""
    k2 = kind.kernel * kind.kernel
    if kind.op == "ibn":
        mid = round8(kind.expansion * c1)
        rows = [("pointwise_conv", c1 * mid, _IN), ("depthwise_conv", k2 * mid, _OUT),
                ("pointwise_conv", mid * c2, _OUT)]
    elif kind.op == "fused":
        mid = round8(kind.expansion * c1)
        rows = [("regular_conv", k2 * c1 * mid, _OUT), ("pointwise_conv", mid * c2, _OUT)]
    else:
        sc1 = round8(kind.input_compression * c1)
        ec2 = round8(kind.output_compression * c2)
        rows = [("pointwise_conv", c1 * sc1, _IN), ("regular_conv", k2 * sc1 * ec2, _OUT),
                ("pointwise_conv", ec2 * c2, _OUT)]
    if use_se:
        rows.append(("se_block", 2 * c2 * round8(SE_RATIO * c2), _ONCE))
    return rows


def _stem_table(stem_channels: int) -> _Table:
    return [("regular_conv", STEM_KERNEL * STEM_KERNEL * IMAGE_CHANNELS * stem_channels, _OUT)]


def _units(table: _Table, h: int, w: int, stride: int) -> Units:
    positions = (h * w, -(-h // stride) * -(-w // stride), 1)
    return tuple([(op, weights * positions[where]) for op, weights, where in table])


def _params(table: _Table) -> int:
    total = 0  # a plain loop: per call, cheaper than sum() over a comprehension
    for _, weights, _ in table:
        total += weights
    return total


def layer_units(layer: LayerSpec, h: int, w: int) -> Units:
    """Decompose a layer into (op class, multiply-adds) constituents.

    ``layer`` is a layer of a validated network (:func:`hwnas.arch.validate`;
    nothing is checked here) and ``h, w`` are its input spatial dims; the
    stride applies at the layer's KxK stage.
    """
    return _units(_layer_table(layer.kind, layer.c_in, layer.c_out, layer.use_se), h, w,
                  layer.stride)


def layer_madds(layer: LayerSpec, h: int, w: int) -> int:
    """Total multiply-adds of one layer at input size h x w."""
    return sum(m for _, m in layer_units(layer, h, w))


def layer_params(layer: LayerSpec) -> int:
    """Kernel parameter count of one layer (biases and norms excluded)."""
    return _params(_layer_table(layer.kind, layer.c_in, layer.c_out, layer.use_se))


@dataclass(frozen=True)
class CostBreakdown:
    """Per-layer multiply-adds and parameters, plus stem and totals."""

    stem_madds: int
    stem_params: int
    per_layer_madds: tuple[int, ...]
    per_layer_params: tuple[int, ...]
    total_madds: int
    total_params: int


def _stem_units(stem_channels: int, h: int, w: int) -> Units:
    """Units of the stem conv; ``h, w`` is the stem's output size."""
    return _units(_stem_table(stem_channels), h, w, 1)


@lru_cache(maxsize=256)
def network_units(net: NetworkSpec) -> tuple[Units, ...]:
    """Constituent conv units grouped per layer, stem group first."""
    trace = derive_shapes(net)
    h, w = trace.stem.height, trace.stem.width
    groups = [_stem_units(net.stem_channels, h, w)]
    for (_, _, layer), entry in zip(iter_layers(net), trace.layers):
        groups.append(layer_units(layer, h, w))
        h, w = entry.height, entry.width
    return tuple(groups)


@lru_cache(maxsize=256)
def network_cost(net: NetworkSpec) -> CostBreakdown:
    """Whole-network cost including the stem conv."""
    groups = network_units(net)
    per_madds = tuple(sum(m for _, m in g) for g in groups[1:])
    per_params = tuple(layer_params(layer) for _, _, layer in iter_layers(net))
    s_madds = sum(m for _, m in groups[0])
    s_params = _params(_stem_table(net.stem_channels))
    return CostBreakdown(
        stem_madds=s_madds,
        stem_params=s_params,
        per_layer_madds=per_madds,
        per_layer_params=per_params,
        total_madds=s_madds + sum(per_madds),
        total_params=s_params + sum(per_params),
    )


# ---------------------------------------------------------------------------
# Cost-model features
# ---------------------------------------------------------------------------

def channel_band(c: int) -> int:
    """Power-of-two band holding a channel count (optional coarse bucketing)."""
    return 1 << max(0, math.ceil(math.log2(c)))


def bucket_id(atom_id: str, c_in: int, c_out: int, channel_bands: bool = False) -> str:
    if channel_bands:
        c_in, c_out = channel_band(c_in), channel_band(c_out)
    return f"{atom_id}|{c_in}|{c_out}"


def _bucket_counts(keys, channel_bands: bool) -> dict[str, int]:
    """Count (atom id, c_in, c_out) keys by bucket, in order of first occurrence."""
    counts: dict[str, int] = {}
    for atom_id, c_in, c_out in keys:
        key = bucket_id(atom_id, c_in, c_out, channel_bands)
        counts[key] = counts.get(key, 0) + 1
    return counts


def net_feature_counts(net: NetworkSpec, channel_bands: bool = False) -> dict[str, int]:
    """Bucket counts of a network, no space membership check (stem included)."""
    keys = [(STEM_BUCKET, IMAGE_CHANNELS, net.stem_channels)]
    keys += [(layer.kind.atom_id, layer.c_in, layer.c_out) for _, _, layer in iter_layers(net)]
    return _bucket_counts(keys, channel_bands)


def space_buckets(space: SpaceSpec, channel_bands: bool = False) -> tuple[str, ...]:
    """Every bucket any decodable architecture of the space can touch, sorted.

    Derived structurally: per layer position, the atoms cross the reachable
    (c_in, c_out) pairs implied by the multiplier menus of this block and the
    previous one. Fitting over this full index keeps prediction total on the
    space even for buckets missing from the training sample.
    """
    layout = space.layout
    atoms = space.kind_atoms()
    buckets = {bucket_id(STEM_BUCKET, IMAGE_CHANNELS, layout.stem_channels, channel_bands)}
    prev_outs = (layout.stem_channels,)
    for block in layout.blocks:
        outs = tuple(sorted({round8(m * block.base_channels) for m in space.multiplier_menu}))
        for li in range(block.num_layers):
            c_ins = prev_outs if li == 0 else outs
            for atom in atoms:
                for c_in in c_ins:
                    if li == 0:
                        for c_out in outs:
                            buckets.add(bucket_id(atom.atom_id, c_in, c_out, channel_bands))
                    else:
                        # later layers keep the block width: c_in == c_out
                        buckets.add(bucket_id(atom.atom_id, c_in, c_in, channel_bands))
        prev_outs = outs
    return tuple(sorted(buckets))


# ---------------------------------------------------------------------------
# Per-space unit tables
# ---------------------------------------------------------------------------

class LayerCost(NamedTuple):
    """One priced layer position; the stem is a position too."""

    units: Units  # (op class, multiply-adds) of each constituent conv
    madds: int  # their sum
    op: str  # the layer kind's op, or "stem"
    key: tuple[str, int, int]  # (atom id, c_in, c_out): the feature bucket before banding


def _cost(units: Units, op: str, key: tuple[str, int, int]) -> LayerCost:
    return LayerCost(units, sum([m for _, m in units]), op, key)


@dataclass(frozen=True)
class ArchCost:
    """The layer costs of one architecture, stem first: a table lookup."""

    layers: tuple[LayerCost, ...]

    @property
    def groups(self) -> tuple[Units, ...]:
        """Units grouped per layer, stem first, as :func:`network_units` gives them."""
        return tuple([layer.units for layer in self.layers])

    @property
    def total_madds(self) -> int:
        return sum([layer.madds for layer in self.layers])

    @property
    def ops(self) -> tuple[str, ...]:
        """The op of each layer after the stem, in order."""
        return tuple([layer.op for layer in self.layers[1:]])

    def feature_counts(self, channel_bands: bool = False) -> dict[str, int]:
        """Bucket counts, as :func:`net_feature_counts` gives them for the network."""
        return _bucket_counts([layer.key for layer in self.layers], channel_bands)


class SpaceTable:
    """Layer costs per position of a space, looked up by decision vector.

    Position ``p`` maps the decision indices that shape it to a
    :class:`LayerCost`: (atom, c_in multiplier, multiplier) for the first
    layer of every block after the first, (atom, multiplier) otherwise.
    """

    def __init__(self, space: SpaceSpec):
        self.space = space
        layout = space.layout
        at = {(d.block, d.layer): i for i, d in enumerate(space.decisions)}
        atoms = [(atom, atom.atom_id) for atom in space.kind_atoms()]
        trace = derive_shapes(layout)
        # input size of every layer: the stem's output, then each layer's
        inputs = [(e.height, e.width) for e in (trace.stem, *trace.layers)]
        stem = layout.stem_channels
        self._stem = _cost(_stem_units(stem, *inputs[0]), STEM_BUCKET,
                           (STEM_BUCKET, IMAGE_CHANNELS, stem))
        self._positions: list[tuple[itemgetter, dict]] = []
        self._size = len(space.decisions)
        # Units repeat across entries (an expand conv ignores c_out): keep
        # one copy of each, which halves the table's memory.
        share = {}.setdefault
        # Block 0 reads the stem, so its first layer has no c_in decision.
        c_ins, cin_at, p = (stem,), (), 0
        for bi, tblock in enumerate(layout.blocks):
            mult_at = at[(bi, None)]
            n = tblock.num_layers
            template = tuple(layer.kind for layer in tblock.layers)
            cells: list[dict] = [{} for _ in range(n)]
            outs = []
            for mi, mult in enumerate(space.decisions[mult_at].choices):
                for ci, c_in in enumerate(c_ins):
                    # Widths and strides do not depend on the kinds, so one
                    # block gives every atom's layers; layers after the first
                    # keep the block width, so one c_in serves them.
                    block = space.block(bi, template[:n if ci == 0 else 1], mult, c_in)
                    for li, layer in enumerate(block.layers):
                        h, w = inputs[p + li]
                        for ai, (atom, atom_id) in enumerate(atoms):
                            rows = _layer_table(atom, layer.c_in, layer.c_out, layer.use_se)
                            units = tuple([share(u, u) for u in _units(rows, h, w, layer.stride)])
                            key = (ai, ci, mi) if li == 0 and cin_at else (ai, mi)
                            cells[li][key] = _cost(units, atom.op,
                                                   (atom_id, layer.c_in, layer.c_out))
                outs.append(block.layers[0].c_out)
            for li, table in enumerate(cells):
                getter = itemgetter(at[(bi, li)], *(cin_at if li == 0 else ()), mult_at)
                self._positions.append((getter, table))
            c_ins, cin_at, p = tuple(outs), (mult_at,), p + n

    def price(self, dv: DecisionVector) -> ArchCost:
        """Costs of ``decode(space, dv)``; a bad vector raises decode's ``IndexError``."""
        if len(dv) != self._size:
            check_vector(self.space, dv)  # raises, naming both lengths
        try:
            return ArchCost((self._stem, *[table[at(dv)] for at, table in self._positions]))
        except KeyError:  # an index out of range, negative ones included
            check_vector(self.space, dv)
            raise


@lru_cache(maxsize=8)  # an ablation prices up to three spaces at once
def space_table(space: SpaceSpec) -> SpaceTable:
    """The unit table of a space, built on first use and kept for reuse."""
    return SpaceTable(space)
