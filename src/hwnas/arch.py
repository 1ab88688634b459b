"""Architecture IR: layers, blocks, networks, map sizes, C4/C5 taps, serialization, DOT.

Everything here is deliberately dumb data. All types are frozen dataclasses,
hashable and safe to share across threads; all operations are pure functions.
Semantic rules, the width, resolution and kernel rules (:data:`MAX_WIDTH`,
:data:`MAX_RESOLUTION`, :data:`MAX_KERNEL`) among them, are enforced by
:func:`validate`, which reports violations as data instead of raising so that
malformed candidates can be inspected. A block's depth and stride are its
layers' own, and sizes and taps follow from the strides (:func:`derive_shapes`,
:func:`feature_taps`): none of them is stored, in the IR or in its document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Iterator

# Fixed parts of every network: a regular 3x3 stride-2 stem consuming an RGB
# image. Only the stem width is configurable.
STEM_KERNEL = 3
STEM_STRIDE = 2
IMAGE_CHANNELS = 3

OPS = ("ibn", "fused", "tucker")

# Key carried by CLI-written documents for provenance; ignored on parse.
META_KEY = "_meta"

# The width rule: the stem, every block and every internal width (before
# rounding) has at most this many channels. Past it a width can round to
# infinity or push a multiply-add count past float range.
MAX_WIDTH = 1 << 20
# The resolution rule: the input image is at most this many pixels on a side.
# With the width rule it keeps a conv's multiply-add count below 2**78 times
# its kernel area, far inside float range.
MAX_RESOLUTION = 1 << 20
# The kernel rule: a kernel is at most this many pixels on a side. With the
# width and resolution rules it keeps a conv's multiply-add count below 2**118,
# far inside float range.
MAX_KERNEL = 1 << 20


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
    """One concrete layer: kind plus placement-dependent attributes. Two rules follow from
    them, so nothing stores either: a stride-1 layer that keeps its width adds its input,
    and a squeeze-excite layer runs h-swish while every other layer runs ReLU6."""

    kind: LayerKind
    c_in: int
    c_out: int
    stride: int
    use_se: bool = False

    @cached_property
    def _json(self) -> str:
        """The layer's JSON object, encoded on first use; not a field, so repr, == and hash
        skip it. Decoded networks share layers, so each is encoded once per space."""
        return json.dumps(_layer_to_doc(self))


@dataclass(frozen=True)
class BlockSpec:
    """A run of one or more layers sharing one output width.

    Every layer's ``c_out`` equals ``round8(multiplier * base_channels)``;
    only the first layer may stride, so its stride is the block's.
    """

    base_channels: int
    multiplier: float
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class NetworkSpec:
    """A backbone: stem and blocks. Its C4/C5 taps follow from the strides
    (:func:`feature_taps`)."""

    input_resolution: int
    stem_channels: int
    blocks: tuple[BlockSpec, ...]


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
        *feature_taps(net),
        tuple(layer for _, _, layer in iter_layers(net)),
    )


def feature_taps(net: NetworkSpec) -> tuple[int, int]:
    """The C4 and C5 taps: the last block at output stride 16 and the last at 32.

    Strides count the stem; ``-1`` marks a stride no block ends at, as in
    toy layouts. A detection head (SSDLite) reads its features there.
    """
    stride = STEM_STRIDE
    last_at = {}
    for bi, block in enumerate(net.blocks):
        for layer in block.layers:
            stride *= layer.stride
        last_at[stride] = bi
    return last_at.get(16, -1), last_at.get(32, -1)


def kind_violations(kind: LayerKind, where: str) -> list[str]:
    out = []
    if kind.op not in OPS:
        out.append(f"{where}: unknown op {kind.op!r}")
        return out
    if kind.kernel < 1 or kind.kernel % 2 == 0:
        out.append(f"{where}: kernel must be odd and >= 1, got {kind.kernel}")
    elif kind.kernel > MAX_KERNEL:
        out.append(f"{where}: kernel must be at most {MAX_KERNEL}, got {kind.kernel}")
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


def width_violations(kind: LayerKind, c_in: int, c_out: int, where: str) -> list[str]:
    """The width rule for a layer of a valid ``kind`` from ``c_in`` to ``c_out``
    channels: both, and the width an expansion makes of ``c_in``, are at most
    ``MAX_WIDTH``. Tucker's compressed widths are below its ends."""
    if max(c_in, c_out) > MAX_WIDTH:
        return [f"{where}: channel counts must be at most {MAX_WIDTH} ({c_in} -> {c_out})"]
    if kind.op != "tucker" and not kind.expansion * c_in <= MAX_WIDTH:
        return [f"{where}: expansion {kind.expansion:g} widens {c_in} channels past {MAX_WIDTH}"]
    return []


def validate(net: NetworkSpec) -> list[str]:
    """Return every invariant violation, with block/layer coordinates.

    An empty list means the network is well formed and every analysis
    operation is guaranteed to succeed on it.
    """
    v: list[str] = []
    if net.input_resolution < 1:
        v.append(f"input_resolution must be >= 1, got {net.input_resolution}")
    elif net.input_resolution > MAX_RESOLUTION:
        v.append(f"input_resolution must be at most {MAX_RESOLUTION}, got {net.input_resolution}")
    if not 1 <= net.stem_channels <= MAX_WIDTH:
        v.append(f"stem_channels must be in [1, {MAX_WIDTH}], got {net.stem_channels}")

    prev_channels = net.stem_channels
    for bi, block in enumerate(net.blocks):
        where = f"block {bi}"
        if not block.layers:
            v.append(f"{where}: a block needs at least one layer")
        if block.base_channels < 1:
            v.append(f"{where}: base_channels must be >= 1, got {block.base_channels}")
        try:
            width = block.multiplier * block.base_channels
        except OverflowError:  # a base past float range
            width = math.inf
        if not block.multiplier > 0:  # NaN fails too
            v.append(f"{where}: multiplier must be > 0, got {block.multiplier}")
        elif not width <= MAX_WIDTH:
            v.append(f"{where}: multiplier {block.multiplier} puts its width past {MAX_WIDTH}")
        want_out = round8(width) if block.base_channels >= 1 and 0 < width <= MAX_WIDTH else None

        for li, layer in enumerate(block.layers):
            lw = f"block {bi} layer {li}"
            bad_kind = kind_violations(layer.kind, lw)
            v.extend(bad_kind)
            if layer.c_in < 1 or layer.c_out < 1:
                v.append(f"{lw}: channel counts must be >= 1 ({layer.c_in} -> {layer.c_out})")
            elif not bad_kind:
                v.extend(width_violations(layer.kind, layer.c_in, layer.c_out, lw))
            if layer.stride not in (1, 2):
                v.append(f"{lw}: stride must be 1 or 2, got {layer.stride}")
            elif li > 0 and layer.stride != 1:
                v.append(f"{lw}: only the first layer of a block may have stride 2")
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
    try:
        return float(value)
    except OverflowError:  # an integer past float range
        raise ParseError(f"{where}: {value} is past float range") from None


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
    doc.update(c_in=layer.c_in, c_out=layer.c_out, stride=layer.stride, se=layer.use_se)
    return doc


@lru_cache(maxsize=1 << 10, typed=True)
def _block_head(base_channels, multiplier) -> str:
    """A block's object up to its layer list, cached by the field values with their types
    (``4 == 4.0`` and ``True == 1`` dump differently)."""
    return json.dumps({"base_channels": base_channels, "multiplier": multiplier})[:-1]


def _layer_from_doc(doc: Any, where: str) -> LayerSpec:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    op = _as_str(doc.get("kind"), f"{where}.kind") if "kind" in doc else None
    if op is None:
        raise ParseError(f"{where}: missing field(s) kind")
    ratio_key = "compressions" if op == "tucker" else "expansion"
    _require(doc, ("kind", "kernel", ratio_key, "c_in", "c_out", "stride", "se"), where)
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
    )


def _block_from_doc(doc: Any, where: str) -> BlockSpec:
    _require(doc, ("base_channels", "multiplier", "layers"), where)
    return BlockSpec(
        base_channels=_as_int(doc["base_channels"], f"{where}.base_channels"),
        multiplier=_as_num(doc["multiplier"], f"{where}.multiplier"),
        layers=tuple(_as_list(doc["layers"], f"{where}.layers", _layer_from_doc)),
    )


def serialize(net: NetworkSpec, meta: dict | None = None) -> str:
    """Render the canonical document as one JSON line; ``meta`` goes under ``_meta``.

    Each layer's object is encoded once per :class:`LayerSpec` and each block's
    leading keys once per distinct values (:func:`_block_head`); the top-level
    fields and ``meta`` are dumped on every call.
    """
    blocks = []
    for b in net.blocks:
        fields = (b.base_channels, b.multiplier)
        # a zero skips the cache, where 0.0 and -0.0 would share a key
        encode = _block_head.__wrapped__ if 0 in fields else _block_head
        layers = ", ".join([layer._json for layer in b.layers])
        blocks.append(f'{encode(*fields)}, "layers": [{layers}]}}')
    head = json.dumps({"input_resolution": net.input_resolution,
                       "stem_channels": net.stem_channels})
    tail = f', {json.dumps({META_KEY: meta})[1:]}' if meta else "}"
    return f'{head[:-1]}, "blocks": [{", ".join(blocks)}]{tail}\n'


def parse_json(text: str, source: object = None) -> Any:
    """``json.loads``; bad JSON raises a :class:`ParseError` naming ``source`` and where."""
    where = "" if source is None else f"{source}: "
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{where}{exc}") from exc


def deserialize(text: str) -> NetworkSpec:
    """Parse a canonical document, in any JSON layout, into a validated NetworkSpec.

    Raises :class:`ParseError` for structural problems (with location) and
    :class:`InvalidArchitectureError` when the parsed network violates IR
    invariants. ``deserialize(serialize(net)) == net`` for every valid net.
    """
    doc = parse_json(text)
    _require(doc, ("input_resolution", "stem_channels", "blocks"), "document")
    net = NetworkSpec(
        input_resolution=_as_int(doc["input_resolution"], "document.input_resolution"),
        stem_channels=_as_int(doc["stem_channels"], "document.stem_channels"),
        blocks=tuple(_as_list(doc["blocks"], "document.blocks", _block_from_doc)),
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
    order; the last layer of each :func:`feature_taps` block is marked C4 or C5.
    """
    violations = validate(net)
    if violations:
        raise InvalidArchitectureError(violations)
    c4, c5 = feature_taps(net)
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
                if bi == c4:
                    label += "\\nC4"
                    extras = ", peripheries=2"
                if bi == c5:
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
) -> BlockSpec:
    """Chain one layer per kind into a block fed ``c_in`` channels.

    Every layer outputs ``round8(multiplier * base)`` channels and takes its
    input width from the layer before it; only the first layer strides.
    """
    c_out = round8(multiplier * base)
    layers = []
    for li, kind in enumerate(kinds):
        layers.append(LayerSpec(kind, c_in, c_out, first_stride if li == 0 else 1))
        c_in = c_out
    return BlockSpec(base, multiplier, tuple(layers))


def default_layout() -> NetworkSpec:
    """Nine-block default layout at 320 x 320.

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
    return NetworkSpec(320, 32, tuple(blocks))


def toy2_layout() -> NetworkSpec:
    """Two-layer desk-scale layout at 32 x 32: one block of two layers on a 40-wide stem.

    Small enough for exhaustive enumeration; the stem width is deliberately
    not a multiple of 8 so the first layer's input width can never collide
    with any block output width.
    """
    return NetworkSpec(32, 40, (build_block(16, 1.0, 2, 40, (ibn(3, 4),) * 2),))


BUILTIN_LAYOUTS = {
    "default": default_layout,
    "toy2": toy2_layout,
}
