"""Shared hypothesis strategies: random layouts, spaces and decodable nets."""

from __future__ import annotations

import hypothesis.strategies as st

from hwnas.arch import BlockSpec, LayerSpec, NetworkSpec, ibn, round8
from hwnas.space import (ADAPTATIONS, DEFAULT_COMPRESSIONS, DEFAULT_EXPANSIONS, DEFAULT_KERNELS,
                         DEFAULT_MULTIPLIERS, VARIANTS, SpaceSpec, build_space, decode)


def make_layout(
    input_resolution: int,
    stem_channels: int,
    blocks: list[tuple[int, int, int]],
) -> NetworkSpec:
    """Layout from (base_channels, num_layers, first_stride) triples."""
    specs = []
    c_in = stem_channels
    for base, num_layers, first_stride in blocks:
        c_out = round8(base)
        layers = []
        for li in range(num_layers):
            stride = first_stride if li == 0 else 1
            layers.append(LayerSpec(ibn(3, 4), c_in, c_out, stride))
            c_in = c_out
        specs.append(BlockSpec(base, 1.0, tuple(layers)))
    return NetworkSpec(input_resolution, stem_channels, tuple(specs))


@st.composite
def layouts(draw, max_blocks: int = 3, max_layers: int = 2) -> NetworkSpec:
    n_blocks = draw(st.integers(1, max_blocks))
    resolution = draw(st.sampled_from([16, 31, 32, 64]))
    stem = draw(st.integers(4, 48))
    blocks = [
        (
            draw(st.sampled_from([8, 16, 24, 32, 48])),
            draw(st.integers(1, max_layers)),
            draw(st.sampled_from([1, 2])),
        )
        for _ in range(n_blocks)
    ]
    return make_layout(resolution, stem, blocks)


def _subset(menu, min_size: int = 1):
    """Up to two entries of a menu, in menu order."""
    return st.lists(st.sampled_from(menu), min_size=min_size, max_size=2, unique=True).map(sorted)


@st.composite
def spaces(draw, variants=VARIANTS, adaptations=ADAPTATIONS, small_menus=False,
           **layout_kwargs) -> SpaceSpec:
    """A space on a random layout; ``small_menus`` keeps up to two entries of each default
    menu (two multipliers, and kernel 3, which every adaptation allows) so that spaces of
    several blocks stay small enough to enumerate."""
    layout = draw(layouts(**layout_kwargs))
    menus = {}
    if small_menus:
        menus = {"multipliers": draw(_subset(DEFAULT_MULTIPLIERS, 2)),
                 "kernels": draw(st.sampled_from([(3,), DEFAULT_KERNELS])),
                 "expansions": draw(_subset(DEFAULT_EXPANSIONS)),
                 "compressions": draw(_subset(DEFAULT_COMPRESSIONS))}
    return build_space(draw(st.sampled_from(variants)), draw(st.sampled_from(adaptations)), layout,
                       **menus)


@st.composite
def spaces_with_dv(draw, **kwargs):
    space = draw(spaces(**kwargs))
    dv = tuple(draw(st.integers(0, len(d.choices) - 1)) for d in space.decisions)
    return space, dv


@st.composite
def nets(draw, **kwargs) -> NetworkSpec:
    space, dv = draw(spaces_with_dv(**kwargs))
    return decode(space, dv)
