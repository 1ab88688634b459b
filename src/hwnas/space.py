"""Search spaces as ordered categorical decisions.

A space binds a layout template to a list of decisions: one layer-kind
decision per layer and one shared channel-multiplier decision per block.
Decision vectors (one chosen index per decision) decode deterministically to
concrete, valid :class:`~hwnas.arch.NetworkSpec` instances.

Three variants of increasing size are supported (``ibn``, ``ibn_fused``,
``ibn_fused_tucker``); the atom lists of a smaller variant are always a
prefix of the larger ones, so decision indices transfer across variants.
Hardware adaptations tweak the space: ``cpu`` turns on squeeze-excite and
hswish everywhere, ``dsp`` drops 5x5 kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .arch import (
    BUILTIN_LAYOUTS,
    BlockSpec,
    LayerKind,
    NetworkSpec,
    InvalidArchitectureError,
    ParseError,
    _require,
    build_block,
    fused,
    ibn,
    kind_violations,
    load_file,
    parse_json,
    tucker,
    validate,
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

    def kind_atoms(self) -> tuple[LayerKind, ...]:
        """The per-layer atom list (shared by every layer decision)."""
        for d in self.decisions:
            if d.layer is not None:
                return d.choices
        return ()

    def block(self, bi: int, kinds: tuple[LayerKind, ...], multiplier: float,
              c_in: int) -> BlockSpec:
        """Block ``bi`` of a decoded network.

        :func:`~hwnas.arch.build_block` of the layout's block, where the
        ``cpu`` adaptation forces squeeze-excite plus hswish on every layer.
        """
        use_se = self.adaptation == "cpu"
        t = self.layout.blocks[bi]
        return build_block(t.base_channels, multiplier, t.first_stride, c_in, kinds,
                           use_se, "hswish" if use_se else "relu6")


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
    rules of :func:`~hwnas.arch.validate` raise ``InvalidArchitectureError``;
    a multiplier that is not a finite number > 0, or that makes a block
    width overflow, raises ``ValueError``.

    With the layout valid too, every decision vector of the space decodes
    to a valid network: widths are ``round8`` of a positive finite number,
    channels chain and strides and endpoints are the layout's. That is why
    :meth:`hwnas.analysis.SpaceTable.price` can price decision vectors
    without building or validating the network.
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
    decisions: list[Decision] = []
    for bi, block in enumerate(layout.blocks):
        for li in range(block.num_layers):
            decisions.append(
                Decision(f"b{bi}.l{li}.kind", bi, li, atoms)
            )
        decisions.append(
            Decision(f"b{bi}.multiplier", bi, None, mult_menu)
        )
    return SpaceSpec(
        variant=variant,
        adaptation=adaptation,
        layout=layout,
        decisions=tuple(decisions),
    )


def decode(space: SpaceSpec, dv: DecisionVector) -> NetworkSpec:
    """Map a decision vector to a concrete network.

    Deterministic: each block is :meth:`SpaceSpec.block` of the chosen
    kinds and multiplier, fed by the stem or the block before it.
    """
    check_vector(space, dv)
    chosen = {(d.block, d.layer): d.choices[idx] for d, idx in zip(space.decisions, dv)}
    layout = space.layout
    blocks = []
    c_in = layout.stem_channels
    for bi, tblock in enumerate(layout.blocks):
        kinds = tuple(chosen[(bi, li)] for li in range(tblock.num_layers))
        block = space.block(bi, kinds, chosen[(bi, None)], c_in)
        blocks.append(block)
        c_in = block.layers[-1].c_out
    return NetworkSpec(
        input_resolution=layout.input_resolution,
        stem_channels=layout.stem_channels,
        blocks=tuple(blocks),
        endpoint_c4=layout.endpoint_c4,
        endpoint_c5=layout.endpoint_c5,
    )


def check_vector(space: SpaceSpec, dv: DecisionVector) -> None:
    """Raise ``IndexError`` unless ``dv`` holds one in-range index per decision."""
    if len(dv) != len(space.decisions):
        raise IndexError(
            f"decision vector has {len(dv)} entries, space has {len(space.decisions)} decisions"
        )
    for i, (d, idx) in enumerate(zip(space.decisions, dv)):
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
    layout = resolve_layout(doc["layout_ref"], relative_to=path.parent)
    space = build_space(
        doc["variant"],
        doc["adaptation"],
        layout,
        multipliers=doc["multiplier_menu"],
        kernels=doc["kernel_menu"],
        expansions=doc["expansion_menu"],
        compressions=doc["compression_menu"],
    )
    return space, cap
