"""Architecture IR: layers, blocks, networks, feature map sizes, serialization, DOT export.

Everything here is deliberately dumb data. All types are frozen dataclasses,
hashable and safe to share across threads; all operations are pure functions.
Semantic rules are enforced by :func:`validate`, which reports violations as
data instead of raising so that malformed candidates can be inspected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

# Fixed parts of every network: a regular 3x3 stride-2 stem consuming an RGB
# image. Only the stem width is configurable.
STEM_KERNEL = 3
STEM_STRIDE = 2
IMAGE_CHANNELS = 3

OPS = ("ibn", "fused", "tucker")
ACTIVATIONS = ("relu6", "hswish")

# Key carried by CLI-written documents for provenance; ignored on parse.
META_KEY = "_meta"


class ParseError(ValueError):
    """Malformed architecture document: bad JSON, wrong keys or wrong types."""


class InvalidArchitectureError(ValueError):
    """A NetworkSpec violates IR invariants; carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def round8(value: float) -> int:
    """Nearest multiple of 8 (halves round up), never below 8.

    Applied to block output widths and to the internal widths derived from
    expansion/compression ratios, so every materialized channel count is
    hardware-friendly.
    """
    return max(8, int(math.floor(value / 8.0 + 0.5)) * 8)


@dataclass(frozen=True)
class LayerKind:
    """Searchable layer configuration.

    ``op`` selects the structure:

    - ``ibn``: 1x1 pointwise expand, KxK depthwise, 1x1 pointwise project;
      ``expansion`` > 1.
    - ``fused``: KxK regular conv expanding the channels, 1x1 pointwise
      project; ``expansion`` > 1.
    - ``tucker``: 1x1 pointwise squeeze by ``input_compression``, KxK regular
      conv, 1x1 pointwise restore from ``output_compression`` of the output
      width; both ratios in (0, 1).
    """

    op: str
    kernel: int
    expansion: float | None = None
    input_compression: float | None = None
    output_compression: float | None = None

    @property
    def atom_id(self) -> str:
        """Stable text id, e.g. ``ibn_k3_s4`` or ``tucker_k3_s0.25_e0.75``."""
        if self.op == "tucker":
            return (
                f"tucker_k{self.kernel}_s{self.input_compression:g}"
                f"_e{self.output_compression:g}"
            )
        return f"{self.op}_k{self.kernel}_s{self.expansion:g}"

    def label(self) -> str:
        """Human-readable label used by the DOT export."""
        if self.op == "ibn":
            return f"IBN {self.kernel}x{self.kernel} e{self.expansion:g}"
        if self.op == "fused":
            return f"Fused {self.kernel}x{self.kernel} e{self.expansion:g}"
        return (
            f"Tucker {self.kernel}x{self.kernel} "
            f"{self.input_compression:g}-{self.output_compression:g}"
        )


def ibn(kernel: int, expansion: float) -> LayerKind:
    return LayerKind("ibn", kernel, expansion=float(expansion))


def fused(kernel: int, expansion: float) -> LayerKind:
    return LayerKind("fused", kernel, expansion=float(expansion))


def tucker(kernel: int, input_compression: float, output_compression: float) -> LayerKind:
    return LayerKind(
        "tucker",
        kernel,
        input_compression=float(input_compression),
        output_compression=float(output_compression),
    )


@dataclass(frozen=True)
class LayerSpec:
    """One concrete layer: kind plus placement-dependent attributes."""

    kind: LayerKind
    c_in: int
    c_out: int
    stride: int
    use_se: bool = False
    activation: str = "relu6"
    residual: bool = False


@dataclass(frozen=True)
class BlockSpec:
    """A run of layers sharing one output width.

    Every layer's ``c_out`` equals ``round8(multiplier * base_channels)``;
    only the first layer may stride.
    """

    base_channels: int
    multiplier: float
    num_layers: int
    first_stride: int
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class NetworkSpec:
    """A backbone: stem, blocks and the two feature-tap endpoints.

    ``endpoint_c4``/``endpoint_c5`` are block indices (the taps consumed by a
    detection head at output strides 16 and 32). ``-1`` marks an absent
    endpoint, which toy layouts that never reach those strides use.
    """

    input_resolution: int
    stem_channels: int
    blocks: tuple[BlockSpec, ...]
    endpoint_c4: int = -1
    endpoint_c5: int = -1


def iter_layers(net: NetworkSpec) -> Iterator[tuple[int, int, LayerSpec]]:
    """Yield (block index, layer index, layer) in execution order."""
    for bi, block in enumerate(net.blocks):
        for li, layer in enumerate(block.layers):
            yield bi, li, layer


def functional_signature(net: NetworkSpec) -> tuple:
    """What the network computes, ignoring width bookkeeping.

    Distinct (multiplier, base) pairs can round to the same materialized
    widths, so two different NetworkSpecs may describe identical computations;
    this key compares the materialized layers only.
    """
    return (
        net.input_resolution,
        net.stem_channels,
        net.endpoint_c4,
        net.endpoint_c5,
        tuple(layer for _, _, layer in iter_layers(net)),
    )


def kind_violations(kind: LayerKind, where: str) -> list[str]:
    out = []
    if kind.op not in OPS:
        out.append(f"{where}: unknown op {kind.op!r}")
        return out
    if kind.kernel < 1 or kind.kernel % 2 == 0:
        out.append(f"{where}: kernel must be odd and >= 1, got {kind.kernel}")
    if kind.op in ("ibn", "fused"):
        if kind.expansion is None or not kind.expansion > 1:  # NaN fails too
            out.append(f"{where}: expansion must be > 1, got {kind.expansion}")
        elif kind.expansion == math.inf:
            out.append(f"{where}: expansion must be finite, got {kind.expansion}")
        if kind.input_compression is not None or kind.output_compression is not None:
            out.append(f"{where}: compression ratios only apply to tucker layers")
    else:
        if kind.expansion is not None:
            out.append(f"{where}: expansion only applies to ibn/fused layers")
        if kind.input_compression is None or not 0 < kind.input_compression < 1:
            out.append(f"{where}: input compression must be in (0, 1)")
        if kind.output_compression is None or not 0 < kind.output_compression < 1:
            out.append(f"{where}: output compression must be in (0, 1)")
    return out


def _block_output_strides(net: NetworkSpec) -> list[int]:
    """Cumulative output stride after each block (stem included)."""
    stride = STEM_STRIDE
    out = []
    for block in net.blocks:
        for layer in block.layers:
            if layer.stride in (1, 2):
                stride *= layer.stride
        out.append(stride)
    return out


def validate(net: NetworkSpec) -> list[str]:
    """Return every invariant violation, with block/layer coordinates.

    An empty list means the network is well formed and every analysis
    operation is guaranteed to succeed on it.
    """
    v: list[str] = []
    if net.input_resolution < 1:
        v.append(f"input_resolution must be >= 1, got {net.input_resolution}")
    if net.stem_channels < 1:
        v.append(f"stem_channels must be >= 1, got {net.stem_channels}")

    prev_channels = net.stem_channels
    for bi, block in enumerate(net.blocks):
        where = f"block {bi}"
        if block.num_layers < 1:
            v.append(f"{where}: num_layers must be >= 1, got {block.num_layers}")
        if block.num_layers != len(block.layers):
            v.append(
                f"{where}: num_layers {block.num_layers} != {len(block.layers)} layers present"
            )
        if block.base_channels < 1:
            v.append(f"{where}: base_channels must be >= 1, got {block.base_channels}")
        width = block.multiplier * block.base_channels
        if not block.multiplier > 0:  # NaN fails too
            v.append(f"{where}: multiplier must be > 0, got {block.multiplier}")
        elif not math.isfinite(width):
            v.append(f"{where}: multiplier {block.multiplier} makes the block width overflow")
        if block.first_stride not in (1, 2):
            v.append(f"{where}: first_stride must be 1 or 2, got {block.first_stride}")
        want_out = round8(width) if block.base_channels >= 1 and 0 < width < math.inf else None

        for li, layer in enumerate(block.layers):
            lw = f"block {bi} layer {li}"
            v.extend(kind_violations(layer.kind, lw))
            if layer.c_in < 1 or layer.c_out < 1:
                v.append(f"{lw}: channel counts must be >= 1 ({layer.c_in} -> {layer.c_out})")
            if layer.stride not in (1, 2):
                v.append(f"{lw}: stride must be 1 or 2, got {layer.stride}")
            elif li == 0:
                if layer.stride != block.first_stride:
                    v.append(
                        f"{lw}: stride {layer.stride} != block first_stride {block.first_stride}"
                    )
            elif layer.stride != 1:
                v.append(f"{lw}: only the first layer of a block may have stride 2")
            if layer.activation not in ACTIVATIONS:
                v.append(f"{lw}: unknown activation {layer.activation!r}")
            if layer.residual and (layer.stride != 1 or layer.c_in != layer.c_out):
                v.append(
                    f"{lw}: residual requires stride 1 and c_in == c_out "
                    f"(stride {layer.stride}, {layer.c_in} -> {layer.c_out})"
                )
            if want_out is not None and layer.c_out != want_out:
                v.append(
                    f"{lw}: c_out {layer.c_out} != round8({block.multiplier:g} * "
                    f"{block.base_channels}) = {want_out}"
                )
            if layer.c_in != prev_channels:
                v.append(
                    f"{lw}: c_in {layer.c_in} breaks channel continuity "
                    f"(expected {prev_channels})"
                )
            prev_channels = layer.c_out

    n = len(net.blocks)
    for name, idx in (("c4", net.endpoint_c4), ("c5", net.endpoint_c5)):
        if idx != -1 and not 0 <= idx < n:
            v.append(f"endpoint {name} index {idx} out of range for {n} blocks")
    # A declared endpoint must sit on the last block at its target stride;
    # -1 marks an absent endpoint (toy layouts never reach strides 16/32).
    strides = _block_output_strides(net)
    last_at: dict[int, int] = {}
    for bi, s in enumerate(strides):
        last_at[s] = bi
    for name, idx, target in (
        ("c4", net.endpoint_c4, 16),
        ("c5", net.endpoint_c5, 32),
    ):
        if idx == -1:
            continue
        want = last_at.get(target)
        if want is None:
            v.append(f"endpoint {name}: no block ends at output stride {target}")
        elif idx != want:
            v.append(
                f"endpoint {name} must be block {want} "
                f"(last block at output stride {target}), got {idx}"
            )
    return v


def derive_shapes(net: NetworkSpec) -> tuple[int, ...]:
    """Apply the stride schedule to the input resolution.

    Every feature map is square, so one size describes it. The result holds
    the stem's output size, then each layer's post-stride output size: layer
    ``i`` reads a ``sizes[i]``-square input and writes a ``sizes[i + 1]``-square
    output; a stride-2 layer maps size S to ceil(S/2) (same padding).
    Raises :class:`InvalidArchitectureError` on an invalid network.
    """
    violations = validate(net)
    if violations:
        raise InvalidArchitectureError(violations)
    sizes = [-(-net.input_resolution // STEM_STRIDE)]
    for _, _, layer in iter_layers(net):
        sizes.append(-(-sizes[-1] // layer.stride))
    return tuple(sizes)


# ---------------------------------------------------------------------------
# Canonical document format
# ---------------------------------------------------------------------------

def _require(doc: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParseError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in doc if k not in keys and k != META_KEY]
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {', '.join(sorted(unknown))}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_num(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected a boolean, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def _as_list(value: Any, where: str, item) -> list:
    """A list whose every item ``item(v, "where[i]")`` accepts, as it returns them."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {value!r}")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


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
        activation=layer.activation,
        residual=layer.residual,
    )
    return doc


def _layer_from_doc(doc: Any, where: str) -> LayerSpec:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    op = _as_str(doc.get("kind"), f"{where}.kind") if "kind" in doc else None
    if op is None:
        raise ParseError(f"{where}: missing field(s) kind")
    ratio_key = "compressions" if op == "tucker" else "expansion"
    _require(
        doc,
        ("kind", "kernel", ratio_key, "c_in", "c_out", "stride", "se", "activation", "residual"),
        where,
    )
    kernel = _as_int(doc["kernel"], f"{where}.kernel")
    if op == "tucker":
        ratios = doc["compressions"]
        if not isinstance(ratios, list) or len(ratios) != 2:
            raise ParseError(f"{where}.compressions: expected [input, output] ratios")
        kind = LayerKind(
            op,
            kernel,
            input_compression=_as_num(ratios[0], f"{where}.compressions[0]"),
            output_compression=_as_num(ratios[1], f"{where}.compressions[1]"),
        )
    else:
        kind = LayerKind(op, kernel, expansion=_as_num(doc["expansion"], f"{where}.expansion"))
    return LayerSpec(
        kind=kind,
        c_in=_as_int(doc["c_in"], f"{where}.c_in"),
        c_out=_as_int(doc["c_out"], f"{where}.c_out"),
        stride=_as_int(doc["stride"], f"{where}.stride"),
        use_se=_as_bool(doc["se"], f"{where}.se"),
        activation=_as_str(doc["activation"], f"{where}.activation"),
        residual=_as_bool(doc["residual"], f"{where}.residual"),
    )


def _block_from_doc(doc: Any, where: str) -> BlockSpec:
    _require(doc, ("base_channels", "multiplier", "num_layers", "first_stride", "layers"), where)
    layers_doc = doc["layers"]
    if not isinstance(layers_doc, list):
        raise ParseError(f"{where}.layers: expected a list")
    layers = tuple(
        _layer_from_doc(ld, f"{where}.layers[{i}]") for i, ld in enumerate(layers_doc)
    )
    return BlockSpec(
        base_channels=_as_int(doc["base_channels"], f"{where}.base_channels"),
        multiplier=_as_num(doc["multiplier"], f"{where}.multiplier"),
        num_layers=_as_int(doc["num_layers"], f"{where}.num_layers"),
        first_stride=_as_int(doc["first_stride"], f"{where}.first_stride"),
        layers=layers,
    )


def serialize(net: NetworkSpec, meta: dict | None = None) -> str:
    """Render the canonical document as one JSON line; ``meta`` goes under ``_meta``."""
    doc = {
        "input_resolution": net.input_resolution,
        "stem_channels": net.stem_channels,
        "blocks": [
            {
                "base_channels": b.base_channels,
                "multiplier": b.multiplier,
                "num_layers": b.num_layers,
                "first_stride": b.first_stride,
                "layers": [_layer_to_doc(layer) for layer in b.layers],
            }
            for b in net.blocks
        ],
        "endpoints": {"c4": net.endpoint_c4, "c5": net.endpoint_c5},
    }
    if meta:
        doc[META_KEY] = meta
    return json.dumps(doc) + "\n"


def parse_json(text: str, source: object = None) -> Any:
    """``json.loads``; bad JSON raises a :class:`ParseError` naming ``source`` and where."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = "" if source is None else f"{source}: "
        raise ParseError(f"{where}invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc


def deserialize(text: str) -> NetworkSpec:
    """Parse a canonical document, in any JSON layout, into a validated NetworkSpec.

    Raises :class:`ParseError` for structural problems (with location) and
    :class:`InvalidArchitectureError` when the parsed network violates IR
    invariants. ``deserialize(serialize(net)) == net`` for every valid net.
    """
    doc = parse_json(text)
    _require(doc, ("input_resolution", "stem_channels", "blocks", "endpoints"), "document")
    blocks_doc = doc["blocks"]
    if not isinstance(blocks_doc, list):
        raise ParseError("document.blocks: expected a list")
    endpoints = doc["endpoints"]
    _require(endpoints, ("c4", "c5"), "document.endpoints")
    net = NetworkSpec(
        input_resolution=_as_int(doc["input_resolution"], "document.input_resolution"),
        stem_channels=_as_int(doc["stem_channels"], "document.stem_channels"),
        blocks=tuple(
            _block_from_doc(bd, f"document.blocks[{i}]") for i, bd in enumerate(blocks_doc)
        ),
        endpoint_c4=_as_int(endpoints["c4"], "document.endpoints.c4"),
        endpoint_c5=_as_int(endpoints["c5"], "document.endpoints.c5"),
    )
    violations = validate(net)
    if violations:
        raise InvalidArchitectureError(violations)
    return net


def save_file(net: NetworkSpec, path: str | Path, meta: dict | None = None) -> None:
    """Write the canonical document, optionally embedding a provenance block."""
    Path(path).write_text(serialize(net, meta), encoding="utf-8")


def load_file(path: str | Path, where: str | None = None) -> NetworkSpec:
    """Read an architecture file; parse and validation errors start with ``where`` or the path."""
    try:
        return deserialize(Path(path).read_text(encoding="utf-8"))
    except (ParseError, InvalidArchitectureError) as exc:
        exc.args = (f"{where or path}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(net: NetworkSpec) -> str:
    """Render the network as a node chain in DOT.

    One node per layer plus stem and head markers; edges follow execution
    order; the C4/C5 endpoint blocks carry annotations on their last layer.
    """
    violations = validate(net)
    if violations:
        raise InvalidArchitectureError(violations)
    lines = [
        "digraph network {",
        "  rankdir=TB;",
        '  node [shape=box, fontsize=10, fontname="Helvetica"];',
        f'  stem [label="Stem {STEM_KERNEL}x{STEM_KERNEL} s{STEM_STRIDE} '
        f'c{net.stem_channels}"];',
    ]
    names = ["stem"]
    for bi, block in enumerate(net.blocks):
        for li, layer in enumerate(block.layers):
            name = f"b{bi}_l{li}"
            label = f"{layer.kind.label()} s{layer.stride} {layer.c_in}->{layer.c_out}"
            if layer.use_se:
                label += " SE"
            extras = ""
            if li == len(block.layers) - 1:
                if bi == net.endpoint_c4:
                    label += "\\nC4"
                    extras = ", peripheries=2"
                if bi == net.endpoint_c5:
                    label += "\\nC5"
                    extras = ", peripheries=2"
            lines.append(f'  {name} [label="{label}"{extras}];')
            names.append(name)
    lines.append('  head [label="Head", style=dashed];')
    names.append("head")
    for src, dst in zip(names, names[1:]):
        lines.append(f"  {src} -> {dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Block builder and built-in layouts
# ---------------------------------------------------------------------------

def build_block(
    base: int,
    multiplier: float,
    first_stride: int,
    c_in: int,
    kinds: tuple[LayerKind, ...],
    use_se: bool = False,
    activation: str = "relu6",
) -> BlockSpec:
    """Chain one layer per kind into a block fed ``c_in`` channels.

    Every layer outputs ``round8(multiplier * base)`` channels and takes its
    input width from the layer before it; only the first layer strides, and
    a layer is residual exactly when it has stride 1 and keeps its width.
    """
    c_out = round8(multiplier * base)
    layers = []
    for li, kind in enumerate(kinds):
        stride = first_stride if li == 0 else 1
        residual = stride == 1 and c_in == c_out
        layers.append(LayerSpec(kind, c_in, c_out, stride, use_se, activation, residual))
        c_in = c_out
    return BlockSpec(base, multiplier, len(kinds), first_stride, tuple(layers))


def default_layout(input_resolution: int = 320) -> NetworkSpec:
    """Nine-block default layout.

    Base channels 32-16-32-48-96-96-160-192-192 with per-block depths
    (1,1,2,3,3,2,3,1,1) and first strides (1,1,2,2,2,1,2,1,1), which puts the
    C4 tap at output stride 16 (block 5) and C5 at stride 32 (block 8). The
    template fills every layer with IBN k3 e4 at multiplier 1.0; searches
    only keep the structural fields.
    """
    bases = (32, 16, 32, 48, 96, 96, 160, 192, 192)
    depths = (1, 1, 2, 3, 3, 2, 3, 1, 1)
    strides = (1, 1, 2, 2, 2, 1, 2, 1, 1)
    blocks = []
    c_in = 32
    for base, depth, stride in zip(bases, depths, strides):
        block = build_block(base, 1.0, stride, c_in, (ibn(3, 4),) * depth)
        blocks.append(block)
        c_in = block.layers[-1].c_out
    return NetworkSpec(
        input_resolution=input_resolution,
        stem_channels=32,
        blocks=tuple(blocks),
        endpoint_c4=5,
        endpoint_c5=8,
    )


def toy2_layout(input_resolution: int = 32) -> NetworkSpec:
    """Two-layer desk-scale layout: one block of two layers on a 40-wide stem.

    Small enough for exhaustive enumeration; the stem width is deliberately
    not a multiple of 8 so the first layer's input width can never collide
    with any block output width.
    """
    return NetworkSpec(
        input_resolution=input_resolution,
        stem_channels=40,
        blocks=(build_block(16, 1.0, 2, 40, (ibn(3, 4),) * 2),),
        endpoint_c4=-1,
        endpoint_c5=-1,
    )


BUILTIN_LAYOUTS = {
    "default": default_layout,
    "toy2": toy2_layout,
}
