"""Exact multiply-add and parameter counting, plus cost-model features.

Counting conventions
--------------------
One multiply-accumulate counts as 1. Kernels only: biases, batch-norm
parameters, elementwise adds (residuals) and activations count as zero.

Each layer's cost is written once, in the formula table of
:func:`_layer_table`: one row per constituent conv, holding its op class,
its kernel weights and the spatial positions it runs at. Every feature map
is square. With ``S`` the layer input size, ``S' = ceil(S / stride)`` the
post-stride output size and ``sC1``/``eC2`` the rounded internal widths, the
rows are (weights @ positions)::

    ibn:    C1*sC1 @ S^2  +  K^2*sC1     @ S'^2  +  sC1*C2 @ S'^2
    fused:                   K^2*C1*sC1  @ S'^2  +  sC1*C2 @ S'^2
    tucker: C1*sC1 @ S^2  +  K^2*sC1*eC2 @ S'^2  +  eC2*C2 @ S'^2

A squeeze-excite block, when enabled, adds two fully connected layers over
the layer output width C at squeeze ratio 0.25: ``2 * C * round8(0.25*C)``
weights that run once per image. The stem is one ``3x3`` conv from the
image channels: ``9 * 3 * stem`` weights at the stem's output positions.

A row's multiply-adds are its weights times its positions. Parameters are
the weights column of the same table, which equals a layer's multiply-adds
at a 1x1 input.

One cost record
---------------
:func:`layer_cost` turns a layer's table into a :class:`LayerCost`: its
``(op class, multiply-adds)`` units, their sum, its parameters, its op and
its feature bucket, the string :func:`bucket_id` formats from its atom id,
``c_in`` and ``c_out``. An :class:`ArchCost` holds one per layer, stem
first, and everything downstream reads it: the simulators its units, the
oracles its multiply-adds, ops and buckets, the latency model its buckets
(one weight per layer, summed in layer order), ``analyze`` and the
ablation its per-layer counts.
:func:`network_cost` builds it for a network, such as one read from a file.

Per-space unit tables
---------------------
Searches price architectures by decision vector, not by network. Within a
space a layer's cost depends only on its atom, its block's multiplier, the
previous block's multiplier (first layer of a block only: it sets ``C1``)
and its input size and stride, which the layout fixes per position. So
:func:`space_table` prices each layer position as :func:`layer_cost` does,
for every (atom, c_in choice, c_out choice), reading the widths, strides and
squeeze-excite setting from the same plan that ``decode`` chains its layers
by (``SpaceSpec._decoding``), at the input sizes ``derive_shapes`` gives the
layout. :meth:`SpaceTable.price` then looks each position up by its decision
indices and returns exactly ``network_cost(decode(space, dv))``, with no
decode, validation or hashing of a network. That needs no validation
because every decision vector of a built space decodes to a valid network
(see :func:`~hwnas.space.build_space`). :meth:`SpaceTable.latencies` is the
one lookup that prices a decision vector for a source, from each entry stored
with its layer's latency addends once per (table, source); no other module
reads the table's cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

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


class LayerCost(NamedTuple):
    """The cost of one layer, or of one layer position of a space; the stem is one too."""

    units: Units  # (op class, multiply-adds) of each constituent conv
    madds: int  # their sum
    params: int  # kernel weights: the layer's multiply-adds at a 1x1 input
    op: str  # the layer kind's op, or "stem"
    key: str  # the layer's feature bucket: bucket_id(atom id, c_in, c_out)


def bucket_id(atom_id: str, c_in: int, c_out: int) -> str:
    return f"{atom_id}|{c_in}|{c_out}"


def _cost(table: _Table, size: int, stride: int, op: str, key: str, share=None) -> LayerCost:
    """Price formula rows at input size ``size``; ``share`` interns each unit."""
    positions = (size * size, (-(-size // stride)) ** 2, 1)
    units = []
    madds = params = 0  # plain loops: per call, cheaper than sum() over comprehensions
    for op_class, weights, where in table:
        unit = (op_class, weights * positions[where])
        units.append(share(unit, unit) if share else unit)
        madds += unit[1]
        params += weights
    return LayerCost(tuple(units), madds, params, op, key)


def layer_cost(layer: LayerSpec, size: int) -> LayerCost:
    """Cost of one layer at input size ``size``.

    ``layer`` is a layer of a validated network (:func:`hwnas.arch.validate`;
    nothing is checked here); the stride applies at the layer's KxK stage.
    """
    kind = layer.kind
    return _cost(_layer_table(kind, layer.c_in, layer.c_out, layer.use_se), size, layer.stride,
                 kind.op, bucket_id(kind.atom_id, layer.c_in, layer.c_out))


def _stem_cost(stem_channels: int, size: int) -> LayerCost:
    """Cost of the stem conv; ``size`` is the stem's output size."""
    weights = STEM_KERNEL * STEM_KERNEL * IMAGE_CHANNELS * stem_channels
    return _cost([("regular_conv", weights, _OUT)], size, 1, STEM_BUCKET,
                 bucket_id(STEM_BUCKET, IMAGE_CHANNELS, stem_channels))


@dataclass(frozen=True)
class ArchCost:
    """The layer costs of one architecture, stem first."""

    layers: tuple[LayerCost, ...]

    @property
    def total_madds(self) -> int:
        return sum([layer.madds for layer in self.layers])

    @property
    def total_params(self) -> int:
        return sum([layer.params for layer in self.layers])

    @property
    def ops(self) -> tuple[str, ...]:
        """The op of each layer after the stem, in order."""
        return tuple([layer.op for layer in self.layers[1:]])


@lru_cache(maxsize=256)
def network_cost(net: NetworkSpec) -> ArchCost:
    """Cost of every layer of a network, stem first."""
    sizes = derive_shapes(net)  # layer i reads a sizes[i] input
    layers = [layer_cost(layer, size) for (_, _, layer), size in zip(iter_layers(net), sizes)]
    return ArchCost((_stem_cost(net.stem_channels, sizes[0]), *layers))


@lru_cache(maxsize=256)
def network_units(net: NetworkSpec) -> tuple[Units, ...]:
    """Each layer's units of :func:`network_cost`, stem first; only the bench reads it."""
    return tuple([layer.units for layer in network_cost(net).layers])


# ---------------------------------------------------------------------------
# Cost-model features
# ---------------------------------------------------------------------------

def net_feature_counts(net: NetworkSpec) -> dict[str, int]:
    """Bucket counts of a network in order of first occurrence, stem included.

    Read off the network's layers, not its :class:`ArchCost`, so it checks
    the keys :func:`network_cost` gives; no space membership check.
    """
    return Counter([bucket_id(STEM_BUCKET, IMAGE_CHANNELS, net.stem_channels)]
                   + [bucket_id(layer.kind.atom_id, layer.c_in, layer.c_out)
                      for _, _, layer in iter_layers(net)])


def space_buckets(space: SpaceSpec) -> tuple[str, ...]:
    """Every bucket any decodable architecture of the space can touch, sorted.

    Read off the space's unit table (:func:`space_table`): the stem's key and
    the key of every entry of every layer position. Fitting over this full
    index keeps prediction total on the space even for buckets missing from
    the training sample.
    """
    table = space_table(space)
    keys = {table._stem.key}
    for _, cells in table._positions:
        keys.update(cost.key for cost in cells.values())
    return tuple(sorted(keys))


# ---------------------------------------------------------------------------
# Per-space unit tables
# ---------------------------------------------------------------------------

class SpaceTable:
    """Layer costs per position of a space, looked up by decision vector.

    Position ``p`` maps the decision indices that shape it to a
    :class:`LayerCost`: (atom, c_in multiplier, multiplier) for the first
    layer of every block after the first, (atom, multiplier) otherwise.
    """

    def __init__(self, space: SpaceSpec):
        self.space = space
        plan, _, atoms, use_se = space._decoding
        ids = [atom.atom_id for atom in atoms]
        sizes = derive_shapes(space.layout)  # layer p reads a sizes[p] input
        self._stem = _stem_cost(space.layout.stem_channels, sizes[0])
        self._positions: list[tuple[itemgetter, dict]] = []
        self._size = len(space.decisions)
        # Units repeat across entries (an expand conv ignores c_out): keep
        # one copy of each, which halves the table's memory.
        share = {}.setdefault
        for _, layers_at, mult_at, widths, cin_at, c_ins in plan:
            for li, (kind_at, stride) in enumerate(layers_at):
                reads = cin_at if li == 0 else ()
                size = sizes[len(self._positions)]
                cells = {}
                for mi, (_, c_out) in enumerate(widths):
                    for ci, c_in in enumerate(c_ins if li == 0 else [c_out]):
                        for ai, (atom, atom_id) in enumerate(zip(atoms, ids)):
                            # layer_cost of the layer decode builds here; a LayerSpec
                            # per entry would double the build time
                            rows = _layer_table(atom, c_in, c_out, use_se)
                            cells[(ai, ci, mi) if reads else (ai, mi)] = _cost(
                                rows, size, stride, atom.op, bucket_id(atom_id, c_in, c_out),
                                share)
                self._positions.append((itemgetter(kind_at, *reads, mult_at), cells))

    @lru_cache(maxsize=8)  # per (table, source): a search reads one
    def latencies(self, source) -> Callable[[DecisionVector], tuple[ArchCost, tuple]]:
        """The latency column for ``source``: a lookup from a valid decision vector to its
        costs and each layer's ``source.addends``, stem first, one lookup per position."""
        stem = (self._stem, source.addends(self._stem))
        positions = [(at, {key: (cost, source.addends(cost)) for key, cost in cells.items()})
                     for at, cells in self._positions]

        def lookup(dv: DecisionVector) -> tuple[ArchCost, tuple]:
            layers, addends = zip(stem, *[cells[at(dv)] for at, cells in positions])
            return ArchCost(layers), addends
        return lookup

    def price(self, dv: DecisionVector) -> ArchCost:
        """Costs of ``decode(space, dv)``; a bad vector raises decode's ``IndexError``. Trusts
        the indices to be integers, as samplers and CSV rows give them: ``True`` prices as 1."""
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
