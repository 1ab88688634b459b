"""Search spaces as ordered categorical decisions.

A space binds a layout template to a list of decisions: one layer-kind
decision per layer and one shared channel-multiplier decision per block.
Decision vectors (one chosen index per decision) decode deterministically to
concrete, valid :class:`~hwnas.arch.NetworkSpec` instances.

Three variants of increasing size are supported (``ibn``, ``ibn_fused``,
``ibn_fused_tucker``); the atom lists of a smaller variant are always a
prefix of the larger ones, so decision indices transfer across variants.
Hardware adaptations tweak the space: ``cpu`` turns on squeeze-excite (and
so h-swish, :class:`~hwnas.arch.LayerSpec`) everywhere, ``dsp`` drops 5x5 kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .arch import (
    BUILTIN_LAYOUTS,
    MAX_WIDTH,
    BlockSpec,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    InvalidArchitectureError,
    ParseError,
    _as_int,
    _as_list,
    _as_num,
    _as_str,
    _require,
    fused,
    ibn,
    kind_violations,
    load_file,
    parse_json,
    round8,
    tucker,
    validate,
    width_violations,
)

VARIANTS = ("ibn", "ibn_fused", "ibn_fused_tucker")
ADAPTATIONS = ("neutral", "cpu", "dsp")

DEFAULT_MULTIPLIERS = (0.5, 0.625, 0.75, 1.0, 1.25, 1.5, 2.0)
DEFAULT_KERNELS = (3, 5)
DEFAULT_EXPANSIONS = (4.0, 8.0)
DEFAULT_COMPRESSIONS = (0.25, 0.75)
DEFAULT_ENUM_CAP = 10**6

DecisionVector = tuple[int, ...]


class EnumerationCapError(RuntimeError):
    """Space too large to enumerate under the configured cap."""


@dataclass(frozen=True)
class Decision:
    """One categorical choice: its scope and its ordered atom list."""

    name: str
    block: int
    layer: int | None  # None = block-level (multiplier) decision
    choices: tuple

    def __post_init__(self):
        if len(self.choices) < 1:
            raise ValueError(f"decision {self.name}: empty choice list")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"decision {self.name}: duplicate atoms")


@dataclass(frozen=True)
class SpaceSpec:
    """A layout template plus the ordered decision list that searches it."""

    variant: str
    adaptation: str
    layout: NetworkSpec
    decisions: tuple[Decision, ...]

    @cached_property
    def _decoding(self) -> tuple[list, dict[tuple, LayerSpec], tuple, bool]:
        """The one chain of layers over the decisions, read by :func:`decode`, the unit table
        and :func:`build_space`'s width rule: per block, its base width, each layer's (kind
        position, stride), its multiplier position with each multiplier's width, and what its
        first layer reads: the stem, or the block before it (that multiplier position and its
        widths). Then decode's layer memo, the atoms, and ``use_se``, which ``cpu`` sets. Not a
        field, so repr, == and hash skip it."""
        at = {(d.block, d.layer): i for i, d in enumerate(self.decisions)}
        plan, cin_at, c_ins = [], (), [self.layout.stem_channels]
        for bi, t in enumerate(self.layout.blocks):
            mult_at = at[bi, None]
            widths = [(m, round8(m * t.base_channels)) for m in self.decisions[mult_at].choices]
            plan.append((t.base_channels, [(at[bi, li], layer.stride) for li, layer in
                         enumerate(t.layers)], mult_at, widths, cin_at, c_ins))
            cin_at, c_ins = (mult_at,), [c_out for _, c_out in widths]
        atoms = next((d.choices for d in self.decisions if d.layer is not None), ())
        return plan, {}, atoms, self.adaptation == "cpu"


def kind_atoms_for(
    variant: str,
    adaptation: str,
    kernels: Sequence[int] = DEFAULT_KERNELS,
    expansions: Sequence[float] = DEFAULT_EXPANSIONS,
    compressions: Sequence[float] = DEFAULT_COMPRESSIONS,
) -> tuple[LayerKind, ...]:
    """Canonically ordered layer-kind atoms for a variant/adaptation pair."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if adaptation not in ADAPTATIONS:
        raise ValueError(f"unknown adaptation {adaptation!r}; expected one of {ADAPTATIONS}")
    usable_kernels = tuple(k for k in kernels if not (adaptation == "dsp" and k == 5))
    atoms: list[LayerKind] = []
    for k in sorted(usable_kernels):
        for s in sorted(expansions):
            atoms.append(ibn(k, s))
    if variant in ("ibn_fused", "ibn_fused_tucker"):
        for k in sorted(usable_kernels):
            for s in sorted(expansions):
                atoms.append(fused(k, s))
    if variant == "ibn_fused_tucker":
        for k in sorted(usable_kernels):
            for s in sorted(compressions):
                for e in sorted(compressions):
                    atoms.append(tucker(k, s, e))
    if not atoms:
        raise ValueError("empty choice list after hardware adaptation")
    return tuple(atoms)


def build_space(
    variant: str,
    adaptation: str,
    layout: NetworkSpec,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    kernels: Sequence[int] = DEFAULT_KERNELS,
    expansions: Sequence[float] = DEFAULT_EXPANSIONS,
    compressions: Sequence[float] = DEFAULT_COMPRESSIONS,
) -> SpaceSpec:
    """Construct the decision list for a layout.

    Per block, in layout order: one kind decision per layer, then the shared
    multiplier decision. Atom order within a decision is canonical (kinds
    ibn < fused < tucker, then kernel, then ratios ascending; multipliers
    ascending) so indices are stable across runs. Atoms that break the kind
    rules of :func:`~hwnas.arch.validate`, or its width rule at the widest
    input a layer can read, raise ``InvalidArchitectureError``; a multiplier
    that is not a number > 0, or that puts a block width past
    :data:`~hwnas.arch.MAX_WIDTH`, raises ``ValueError``.

    With the layout valid too, every decision vector of the space decodes
    to a valid network: widths are ``round8`` of a positive number within
    the width rule, channels chain and strides are the layout's. :func:`decode`
    and :class:`~hwnas.analysis.SpaceTable` read those widths and strides from
    one plan (``SpaceSpec._decoding``), which is why :meth:`SpaceTable.price
    <hwnas.analysis.SpaceTable.price>` prices a decision vector as its network
    without building or validating it.
    """
    violations = validate(layout)
    if violations:
        raise InvalidArchitectureError(violations)
    atoms = kind_atoms_for(variant, adaptation, kernels, expansions, compressions)
    bad = [v for atom in atoms for v in kind_violations(atom, f"atom {atom.atom_id}")]
    if bad:
        raise InvalidArchitectureError(bad)
    mult_menu = tuple(sorted(float(m) for m in multipliers))
    if not mult_menu:
        raise ValueError("empty multiplier menu")
    widest = max((block.base_channels for block in layout.blocks), default=1)
    for m in mult_menu:
        if not (m > 0 and math.isfinite(m * widest)):
            raise ValueError(f"multiplier menu: {m!r} must be > 0 and keep block widths finite")
        if m * widest > MAX_WIDTH:
            raise ValueError(f"multiplier menu: {m!r} puts a block width past {MAX_WIDTH}")
    decisions: list[Decision] = []
    for bi, block in enumerate(layout.blocks):
        for li in range(len(block.layers)):
            decisions.append(
                Decision(f"b{bi}.l{li}.kind", bi, li, atoms)
            )
        decisions.append(
            Decision(f"b{bi}.multiplier", bi, None, mult_menu)
        )
    space = SpaceSpec(
        variant=variant,
        adaptation=adaptation,
        layout=layout,
        decisions=tuple(decisions),
    )
    # At the widest input any layer reads, the width rule holds at every input.
    c_in = max((c for _, layers_at, _, widths, _, c_ins in space._decoding[0]
                for c in c_ins + [w for _, w in widths if len(layers_at) > 1]),
               default=layout.stem_channels)
    bad = [v for atom in atoms for v in width_violations(atom, c_in, c_in, f"atom {atom.atom_id}")]
    if bad:
        raise InvalidArchitectureError(bad)
    return space


def decode(space: SpaceSpec, dv: DecisionVector) -> NetworkSpec:
    """Map a decision vector to a concrete network.

    Deterministic: the space's plan (``SpaceSpec._decoding``) gives each block's
    kinds, multiplier, width and strides, and the stem or the block before it feeds
    the block. Networks share their layers: each is built once per space, in a memo on
    the space keyed by (atom index, c_in, c_out, stride), as ``use_se`` is fixed per
    space. The memo is bounded by layer positions x atoms x input widths x multipliers.
    """
    check_vector(space, dv)
    (plan, memo, atoms, use_se), layout = space._decoding, space.layout
    blocks, c_in = [], layout.stem_channels
    for base, layers_at, mult_at, widths, _, _ in plan:
        (multiplier, c_out), layers = widths[dv[mult_at]], []
        for at, stride in layers_at:
            key = (dv[at], c_in, c_out, stride)
            layer = memo.get(key)
            if layer is None:
                layer = memo[key] = LayerSpec(atoms[key[0]], c_in, c_out, stride, use_se)
            layers.append(layer)
            c_in = c_out
        blocks.append(BlockSpec(base, multiplier, tuple(layers)))
    return NetworkSpec(layout.input_resolution, layout.stem_channels, tuple(blocks))


def check_vector(space: SpaceSpec, dv: DecisionVector) -> None:
    """Raise ``IndexError`` unless ``dv`` holds one in-range index per decision, each a
    Python or numpy integer: ``True`` and ``1.0`` would find index 1 in the decode memo."""
    if len(dv) != len(space.decisions):
        raise IndexError(
            f"decision vector has {len(dv)} entries, space has {len(space.decisions)} decisions"
        )
    for i, (d, idx) in enumerate(zip(space.decisions, dv)):
        if type(idx) is not int and (isinstance(idx, bool) or not isinstance(idx, np.integer)):
            raise IndexError(f"decision {i} ({d.name}): index {idx!r} is not an integer")
        if not 0 <= idx < len(d.choices):
            raise IndexError(
                f"decision {i} ({d.name}): index {idx} out of range "
                f"(choices: {len(d.choices)})"
            )


def space_size(space: SpaceSpec) -> int:
    """Number of decision vectors (an empty decision list yields 1)."""
    return math.prod(len(d.choices) for d in space.decisions)


def enumerate_space(space: SpaceSpec, cap: int = DEFAULT_ENUM_CAP) -> Iterator[DecisionVector]:
    """Yield every decision vector in lexicographic order.

    Raises :class:`EnumerationCapError` up front when the space exceeds
    ``cap`` vectors.
    """
    size = space_size(space)
    if size > cap:
        raise EnumerationCapError(
            f"space has {size} architectures, above the enumeration cap {cap}"
        )
    return itertools.product(*(range(len(d.choices)) for d in space.decisions))


def random_sample(space: SpaceSpec, rng: np.random.Generator) -> DecisionVector:
    """Uniform draw over the space; reproducible for a seeded generator."""
    return tuple(rng.integers([len(d.choices) for d in space.decisions]).tolist())


# ---------------------------------------------------------------------------
# Space definition files
# ---------------------------------------------------------------------------

def resolve_layout(ref: str, relative_to: Path | None = None) -> NetworkSpec:
    """Resolve a layout reference: built-in name first, then file path."""
    if ref in BUILTIN_LAYOUTS:
        return BUILTIN_LAYOUTS[ref]()
    path = Path(ref)
    if relative_to is not None and not path.is_absolute():
        path = relative_to / path
    return load_file(path)


def load_space_file(path: str | Path) -> tuple[SpaceSpec, int]:
    """Load a space definition. Returns (space, enumeration cap)."""
    path = Path(path)
    doc = parse_json(path.read_text(encoding="utf-8"), path)
    required = (
        "variant", "adaptation", "layout_ref", "multiplier_menu",
        "kernel_menu", "expansion_menu", "compression_menu", "enumeration_cap",
    )
    _require(doc, required, str(path))
    cap = doc["enumeration_cap"]
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ParseError(f"{path}: enumeration_cap must be an integer >= 1, got {cap!r}")
    try:
        layout = resolve_layout(_as_str(doc["layout_ref"], f"{path}: layout_ref"), path.parent)
    except OSError as exc:  # a missing layout file: name the space file that refers to it
        raise type(exc)(f"{path}: {exc}") from exc
    args = (_as_str(doc["variant"], f"{path}: variant"),
            _as_str(doc["adaptation"], f"{path}: adaptation"), layout)
    menus = dict(
        multipliers=_as_list(doc["multiplier_menu"], f"{path}: multiplier_menu", _as_num),
        kernels=_as_list(doc["kernel_menu"], f"{path}: kernel_menu", _as_int),
        expansions=_as_list(doc["expansion_menu"], f"{path}: expansion_menu", _as_num),
        compressions=_as_list(doc["compression_menu"], f"{path}: compression_menu", _as_num),
    )
    # the space's own checks name no file: prefix it, keeping the error type
    try:
        return build_space(*args, **menus), cap
    except InvalidArchitectureError as exc:
        raise InvalidArchitectureError([f"{path}: {exc.violations[0]}",
                                        *exc.violations[1:]]) from exc
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
