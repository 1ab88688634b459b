"""Search-space construction, decoding, enumeration and sampling."""

import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from hwnas.analysis import network_units, space_table
from hwnas.arch import (
    BUILTIN_LAYOUTS,
    InvalidArchitectureError,
    NetworkSpec,
    ParseError,
    iter_layers,
    validate,
)
from hwnas.cli import main
from hwnas.space import (
    ADAPTATIONS,
    VARIANTS,
    EnumerationCapError,
    build_space,
    decode,
    enumerate_space,
    kind_atoms_for,
    load_space_file,
    random_sample,
    space_size,
)
from bruteforce import scalar_random_sample
from strategies import make_layout, spaces_with_dv

# Every built-in layout plus a blockless one, whose space has no decisions.
SAMPLING_LAYOUTS = {**{name: make() for name, make in BUILTIN_LAYOUTS.items()},
                    "empty": NetworkSpec(32, 16, ())}


@pytest.fixture
def toy1x1():
    return make_layout(32, 16, [(16, 1, 2)])


@pytest.fixture
def toy1x2():
    return make_layout(32, 40, [(16, 2, 2)])


@pytest.mark.parametrize(
    "variant,adaptation,count",
    [
        ("ibn", "neutral", 4),
        ("ibn_fused", "neutral", 8),
        ("ibn_fused_tucker", "neutral", 16),
        ("ibn", "dsp", 2),
        ("ibn_fused", "dsp", 4),
        ("ibn_fused_tucker", "dsp", 8),
        ("ibn_fused_tucker", "cpu", 16),
    ],
)
def test_kind_atom_counts(variant, adaptation, count):
    assert len(kind_atoms_for(variant, adaptation)) == count


def test_atom_order_is_canonical():
    atoms = kind_atoms_for("ibn_fused_tucker", "neutral")
    assert [a.atom_id for a in atoms[:6]] == [
        "ibn_k3_s4", "ibn_k3_s8", "ibn_k5_s4", "ibn_k5_s8", "fused_k3_s4", "fused_k3_s8",
    ]
    assert atoms[8].atom_id == "tucker_k3_s0.25_e0.25"
    # smaller variants are prefixes of larger ones
    assert kind_atoms_for("ibn", "neutral") == atoms[:4]
    assert kind_atoms_for("ibn_fused", "neutral") == atoms[:8]


def test_unknown_variant_rejected(toy1x1):
    with pytest.raises(ValueError, match="unknown variant"):
        build_space("bogus", "neutral", toy1x1)


def test_space_structure(toy1x1):
    space = build_space("ibn", "neutral", toy1x1)
    assert [len(d.choices) for d in space.decisions] == [4, 7]
    assert space_size(space) == 28


def test_two_layer_ibn_space_size(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    assert space_size(space) == 4 * 4 * 7 == 112


def test_one_layer_tucker_space_size(toy1x1):
    assert space_size(build_space("ibn_fused_tucker", "neutral", toy1x1)) == 16 * 7 == 112


def test_empty_layout_size_one():
    empty = NetworkSpec(32, 16, ())
    space = build_space("ibn", "neutral", empty)
    assert space_size(space) == 1
    assert list(enumerate_space(space)) == [()]
    assert decode(space, ()) == empty


def test_all_zero_decode(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    net = decode(space, (0, 0, 0))
    for _, _, layer in iter_layers(net):
        assert layer.kind.atom_id == "ibn_k3_s4"
    assert net.blocks[0].multiplier == 0.5
    assert net.blocks[0].layers[0].c_out == 8


@pytest.mark.parametrize("mult_idx,expected_c_out", [(3, 48), (1, 32)])
def test_decode_multiplier_rounding(mult_idx, expected_c_out):
    # base 48: multiplier 1.0 keeps 48, multiplier 0.625 gives round8(30) = 32
    layout = make_layout(32, 16, [(48, 1, 2)])
    space = build_space("ibn", "neutral", layout)
    net = decode(space, (0, mult_idx))
    assert net.blocks[0].layers[0].c_out == expected_c_out


def test_decode_out_of_range(toy1x1):
    space = build_space("ibn", "neutral", toy1x1)
    with pytest.raises(IndexError, match="out of range"):
        decode(space, (4, 0))
    with pytest.raises(IndexError):
        decode(space, (0,))


def test_decode_always_validates(toy1x2):
    space = build_space("ibn_fused_tucker", "cpu", toy1x2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        net = decode(space, random_sample(space, rng))
        assert validate(net) == []


def test_enumerate_lexicographic(toy1x1):
    space = build_space("ibn", "neutral", toy1x1)
    dvs = list(enumerate_space(space))
    assert len(dvs) == len(set(dvs)) == 28
    assert dvs == sorted(dvs)
    assert dvs[0] == (0, 0) and dvs[-1] == (3, 6)


def test_enumerate_cap(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    with pytest.raises(EnumerationCapError, match="112"):
        enumerate_space(space, cap=100)


def test_random_sample_deterministic(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    a = [random_sample(space, np.random.default_rng(7)) for _ in range(5)]
    b = [random_sample(space, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


@settings(max_examples=120, deadline=None)
@given(variant=st.sampled_from(VARIANTS), adaptation=st.sampled_from(ADAPTATIONS),
       layout=st.sampled_from(sorted(SAMPLING_LAYOUTS)), seed=st.integers(0, 2**63 - 1),
       draws=st.integers(1, 6))
@example(variant="ibn", adaptation="neutral", layout="empty", seed=0, draws=3)
def test_random_sample_draws_like_one_scalar_call_per_decision(variant, adaptation, layout,
                                                                seed, draws):
    space = build_space(variant, adaptation, SAMPLING_LAYOUTS[layout])
    fast, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        dv = random_sample(space, fast)
        assert dv == scalar_random_sample(space, scalar)
        assert all(type(i) is int for i in dv)
    assert fast.random() == scalar.random()


def test_random_sample_covers_space(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    rng = np.random.default_rng(0)
    seen = {random_sample(space, rng) for _ in range(10_000)}
    assert len(seen) == 112


def test_random_sample_uniform_chi_square(toy1x2):
    from scipy.stats import chi2

    space = build_space("ibn", "neutral", toy1x2)
    rng = np.random.default_rng(3)
    counts = {}
    n = 112_000
    for _ in range(n):
        dv = random_sample(space, rng)
        counts[dv] = counts.get(dv, 0) + 1
    expected = n / 112
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p_value = chi2.sf(stat, df=111)
    assert p_value > 0.01


def test_dsp_decodes_have_no_k5(toy1x2):
    space = build_space("ibn_fused_tucker", "dsp", toy1x2)
    rng = np.random.default_rng(1)
    for _ in range(80):
        net = decode(space, random_sample(space, rng))
        assert all(layer.kind.kernel != 5 for _, _, layer in iter_layers(net))


def test_cpu_decodes_have_se_and_hswish(toy1x2):
    space = build_space("ibn_fused_tucker", "cpu", toy1x2)
    rng = np.random.default_rng(1)
    for _ in range(40):
        net = decode(space, random_sample(space, rng))
        assert all(
            layer.use_se and layer.activation == "hswish"
            for _, _, layer in iter_layers(net)
        )


def test_injective_up_to_atom_equality(toy1x2):
    space = build_space("ibn", "neutral", toy1x2)
    assert decode(space, (0, 0, 0)) != decode(space, (1, 0, 0))
    assert decode(space, (0, 0, 0)) != decode(space, (0, 0, 3))


@settings(max_examples=50)
@given(spaces_with_dv(variants=("ibn",)))
def test_subsumption_property(space_dv):
    """An ibn-variant vector decodes identically inside the largest variant."""
    small, dv = space_dv
    big = build_space("ibn_fused_tucker", small.adaptation, small.layout)
    # same indices address the same atoms because ibn atoms prefix the big menu
    for d_small, d_big, idx in zip(small.decisions, big.decisions, dv):
        assert d_small.choices[idx] == d_big.choices[idx]
    assert decode(small, dv) == decode(big, dv)


def test_space_file_round_trip(tmp_path, toy1x2):
    from hwnas.arch import save_file

    save_file(toy1x2, tmp_path / "layout.json")
    space_path = tmp_path / "space.json"
    space_path.write_text("""{
  "variant": "ibn_fused",
  "adaptation": "dsp",
  "layout_ref": "layout.json",
  "multiplier_menu": [1.0, 0.5],
  "kernel_menu": [3, 5],
  "expansion_menu": [8.0, 4.0],
  "compression_menu": [0.25],
  "enumeration_cap": 5000
}
""")
    loaded, cap = load_space_file(space_path)
    assert cap == 5000
    assert loaded == build_space("ibn_fused", "dsp", toy1x2, multipliers=(0.5, 1.0),
                                 compressions=(0.25,))


def test_space_file_builtin_layout_ref(tmp_path):
    from hwnas.arch import toy2_layout

    path = tmp_path / "space.json"
    path.write_text("""{
  "variant": "ibn",
  "adaptation": "neutral",
  "layout_ref": "toy2",
  "multiplier_menu": [0.5, 0.625, 0.75, 1.0, 1.25, 1.5, 2.0],
  "kernel_menu": [3, 5],
  "expansion_menu": [4.0, 8.0],
  "compression_menu": [0.25, 0.75],
  "enumeration_cap": 1000000
}
""")
    loaded, _ = load_space_file(path)
    assert loaded == build_space("ibn", "neutral", toy2_layout())


def write_space_file(path, **changes):
    doc = {"variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
           "multiplier_menu": [1.0], "kernel_menu": [3], "expansion_menu": [4.0],
           "compression_menu": [0.25], "enumeration_cap": 100, **changes}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("variant,menus,message", [
    ("ibn", {"kernels": [4]}, "atom ibn_k4_s4: kernel must be odd and >= 1, got 4"),
    ("ibn", {"expansions": [0.5]}, "atom ibn_k3_s0.5: expansion must be > 1, got 0.5"),
    ("ibn_fused", {"expansions": [1.0]}, "atom fused_k3_s1: expansion must be > 1, got 1.0"),
    ("ibn_fused_tucker", {"compressions": [1.5]},
     "atom tucker_k3_s1.5_e1.5: input compression must be in (0, 1)"),
])
def test_build_space_rejects_invalid_atoms(toy1x2, variant, menus, message):
    with pytest.raises(InvalidArchitectureError, match=re.escape(message)):
        build_space(variant, "neutral", toy1x2, **{"kernels": [3], **menus})


def test_space_file_with_invalid_atoms_fails_inspect(tmp_path, capsys):
    path = write_space_file(tmp_path / "space.json", kernel_menu=[4], expansion_menu=[0.5])
    assert main(["space", "inspect", "--space", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: InvalidArchitectureError: {path}: atom ibn_k4_s0.5: kernel must be odd")
    assert "expansion must be > 1, got 0.5" in err


@pytest.mark.parametrize("value, message", [
    (math.nan, "atom ibn_k3_snan: expansion must be > 1, got nan"),
    (math.inf, "atom ibn_k3_sinf: expansion must be finite, got inf"),
    (-math.inf, "atom ibn_k3_s-inf: expansion must be > 1, got -inf"),
])
def test_space_file_with_non_finite_expansion_fails_inspect(tmp_path, capsys, value, message):
    path = write_space_file(tmp_path / "space.json", expansion_menu=[value])
    assert main(["space", "inspect", "--space", str(path)]) == 1
    assert capsys.readouterr().err == f"error: InvalidArchitectureError: {path}: {message}\n"


BAD_MULTIPLIERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]),
    st.floats(max_value=0.0, allow_nan=False),
)


@given(bad=BAD_MULTIPLIERS, good=st.floats(0.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_build_space_rejects_non_finite_or_non_positive_multipliers(bad, good):
    # 1e308 is finite but overflows the width of a 48-channel block
    layout = make_layout(32, 16, [(16, 1, 2), (48, 2, 1)])
    message = f"multiplier menu: {bad!r} must be > 0 and keep block widths finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_space("ibn", "neutral", layout, multipliers=[good, bad])


@given(menu=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4, unique=True),
       picks=st.lists(st.integers(0, 10**6), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_every_vector_of_a_built_space_decodes_to_a_valid_network(menu, picks):
    """The invariant that lets a unit table price a vector without validating it."""
    layout = make_layout(31, 12, [(16, 1, 2), (48, 2, 1)])
    space = build_space("ibn_fused_tucker", "cpu", layout, multipliers=menu)
    dv = tuple(pick % len(d.choices) for pick, d in zip(picks, space.decisions))
    net = decode(space, dv)
    assert validate(net) == []
    assert space_table(space).price(dv).groups == network_units(net)


def test_space_file_with_bad_multiplier_fails_inspect(tmp_path, capsys):
    path = write_space_file(tmp_path / "space.json", multiplier_menu=[-1.0, 1.0])
    assert main(["space", "inspect", "--space", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {path}: multiplier menu: -1.0 must be > 0 and keep block widths "
        "finite\n"
    )


@pytest.mark.parametrize("fields, message", [
    ({"multiplier_menu": []}, "ValueError: {path}: empty multiplier menu"),
    ({"variant": "ibnx"}, "ValueError: {path}: unknown variant 'ibnx'; expected one of"),
    ({"kernel_menu": [4]},
     "InvalidArchitectureError: {path}: atom ibn_k4_s4: kernel must be odd and >= 1, got 4"),
], ids=["empty_multipliers", "unknown_variant", "even_kernel"])
def test_space_file_errors_from_build_space_name_the_file(tmp_path, capsys, fields, message):
    path = write_space_file(tmp_path / "space.json", **fields)
    assert main(["space", "inspect", "--space", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1


@pytest.mark.parametrize("fields, message", [
    ({"kernel_menu": [3.0]}, "kernel_menu[0]: expected an integer, got 3.0"),
    ({"kernel_menu": ["3"]}, "kernel_menu[0]: expected an integer, got '3'"),
    ({"multiplier_menu": 5}, "multiplier_menu: expected a list, got 5"),
    ({"multiplier_menu": [1.0, True]}, "multiplier_menu[1]: expected a number, got True"),
    ({"expansion_menu": ["a"]}, "expansion_menu[0]: expected a number, got 'a'"),
    ({"compression_menu": {"in": 0.25}},
     "compression_menu: expected a list, got {'in': 0.25}"),
    ({"layout_ref": 7}, "layout_ref: expected a string, got 7"),
    ({"variant": 5}, "variant: expected a string, got 5"),
    ({"adaptation": None}, "adaptation: expected a string, got None"),
], ids=["float_kernel", "text_kernel", "scalar_multipliers", "bool_multiplier",
        "text_expansion", "object_compressions", "number_layout", "number_variant",
        "null_adaptation"])
def test_space_file_field_types_name_the_file_and_field(tmp_path, capsys, fields, message):
    path = write_space_file(tmp_path / "space.json", **fields)
    assert main(["space", "inspect", "--space", str(path)]) == 1
    assert capsys.readouterr().err == f"error: ParseError: {path}: {message}\n"


@pytest.mark.parametrize("cap", [2.7, "abc", 0, -3, True, None])
def test_space_file_enumeration_cap_must_be_positive_integer(tmp_path, cap):
    path = write_space_file(tmp_path / "space.json", enumeration_cap=cap)
    message = f"{path}: enumeration_cap must be an integer >= 1, got {cap!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_space_file(path)


def test_space_file_bad_enumeration_cap_fails_space_size(tmp_path, capsys):
    path = write_space_file(tmp_path / "space.json", enumeration_cap="abc")
    assert main(["space", "size", "--space", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ParseError: {path}: enumeration_cap must be an integer >= 1, got 'abc'\n"
    )


@pytest.mark.parametrize("text, part", [
    ('{"variant": "ibn"}', "missing field(s) adaptation, layout_ref, multiplier_menu, "
     "kernel_menu, expansion_menu, compression_menu, enumeration_cap"),
    (json.dumps({"variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
                 "multiplier_menu": [1.0], "kernel_menu": [3], "expansion_menu": [4.0],
                 "compression_menu": [0.25], "enumeration_cap": 100, "colour": "red"}),
     "unknown field(s) colour"),
    ("[1]", "expected an object, got list"),
], ids=["missing", "unknown", "list"])
def test_malformed_space_file_names_file_and_field(tmp_path, capsys, text, part):
    path = tmp_path / "space.json"
    path.write_text(text)
    assert main(["space", "size", "--space", str(path)]) == 1
    assert capsys.readouterr().err == f"error: ParseError: {path}: {part}\n"
