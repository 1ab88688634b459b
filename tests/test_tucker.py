"""Mode-2 Tucker decomposition: exactness, monotonicity, functional equivalence."""

import json
import re

import numpy as np
import pytest

from hwnas.arch import ParseError
from hwnas.tucker import (
    Tucker2Factors,
    apply_conv,
    apply_sequence,
    error_rank_table,
    load_kernel,
    madds_savings,
    rel_error,
    reconstruct,
    save_kernel,
    tucker2,
)


def random_kernel(k=3, c1=8, c2=8, seed=0):
    return np.random.default_rng(seed).standard_normal((k, k, c1, c2))


def orthonormal(rows, cols, rng):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def test_full_rank_reconstruction_exact():
    kernel = random_kernel()
    factors = tucker2(kernel, 8, 8)
    assert rel_error(kernel, factors) <= 1e-10


def test_factors_are_orthonormal():
    factors = tucker2(random_kernel(seed=3), 5, 6)
    for mat in (factors.input_factor, factors.output_factor):
        gram = mat.T @ mat
        assert np.allclose(gram, np.eye(mat.shape[1]), atol=1e-12)


def test_exact_low_rank_kernel_recovered():
    rng = np.random.default_rng(1)
    u = orthonormal(8, 2, rng)
    v = orthonormal(6, 3, rng)
    core = rng.standard_normal((3, 3, 2, 3))
    kernel = np.einsum("abij,ci,dj->abcd", core, u, v)
    factors = tucker2(kernel, 2, 3)
    assert rel_error(kernel, factors) <= 1e-8


def test_rank_one_kernel_exact():
    rng = np.random.default_rng(2)
    kernel = np.einsum("ab,c,d->abcd", rng.standard_normal((3, 3)),
                       rng.standard_normal(5), rng.standard_normal(4))
    factors = tucker2(kernel, 1, 1)
    assert rel_error(kernel, factors) <= 1e-12


def test_sign_canonicalization_is_deterministic():
    kernel = random_kernel(seed=7)
    a = tucker2(kernel, 4, 5)
    b = tucker2(kernel, 4, 5)
    assert np.array_equal(a.input_factor, b.input_factor)
    assert np.array_equal(a.core, b.core)
    assert np.array_equal(a.output_factor, b.output_factor)
    for mat in (a.input_factor, a.output_factor):
        for col in range(mat.shape[1]):
            assert mat[np.argmax(np.abs(mat[:, col])), col] > 0


def test_rank_bounds_checked():
    kernel = random_kernel()
    with pytest.raises(ValueError, match="rank_in"):
        tucker2(kernel, 0, 4)
    with pytest.raises(ValueError, match="rank_out"):
        tucker2(kernel, 4, 9)


def test_rel_error_zero_kernel():
    kernel = np.zeros((3, 3, 4, 4))
    assert rel_error(kernel, tucker2(kernel, 2, 2)) == 0.0


def test_rel_error_dim_mismatch():
    factors = tucker2(random_kernel(), 4, 4)
    with pytest.raises(ValueError, match="does not match"):
        rel_error(np.zeros((3, 3, 4, 4)), factors)


def test_error_monotone_in_ranks():
    kernel = random_kernel(seed=11)
    e_full = rel_error(kernel, tucker2(kernel, 8, 8))
    e_mid = rel_error(kernel, tucker2(kernel, 4, 4))
    e_one = rel_error(kernel, tucker2(kernel, 1, 1))
    assert e_full <= e_mid <= e_one


def test_apply_conv_identity():
    c = 5
    kernel = np.eye(c).reshape(1, 1, c, c)
    image = np.random.default_rng(0).standard_normal((8, 8, c))
    assert np.allclose(apply_conv(kernel, image), image, atol=1e-14)


def test_sequence_equals_direct_at_full_rank():
    kernel = random_kernel(seed=4)
    factors = tucker2(kernel, 8, 8)
    image = np.random.default_rng(5).standard_normal((8, 8, 8))
    direct = apply_conv(kernel, image)
    seq = apply_sequence(factors, image)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - seq)) / scale <= 1e-6


def test_truncated_sequence_equals_reconstructed_conv():
    kernel = random_kernel(seed=6)
    factors = tucker2(kernel, 3, 5)
    image = np.random.default_rng(8).standard_normal((8, 8, 8))
    via_sequence = apply_sequence(factors, image)
    via_kernel = apply_conv(reconstruct(factors), image)
    scale = np.max(np.abs(via_kernel)) or 1.0
    assert np.max(np.abs(via_sequence - via_kernel)) / scale <= 1e-9


def test_apply_conv_shape_checks():
    kernel = random_kernel()
    with pytest.raises(ValueError, match="image must have shape"):
        apply_conv(kernel, np.zeros((8, 8, 5)))
    factors = tucker2(kernel, 2, 2)
    with pytest.raises(ValueError):
        apply_sequence(factors, np.zeros((8, 8, 5)))


def test_madds_savings_full_rank_above_one():
    assert madds_savings(32, 32, 3, 32, 32, 14, 14) > 1.0


def test_madds_savings_rank_one_below_one():
    assert madds_savings(32, 32, 3, 1, 1, 14, 14) < 1.0


def test_madds_savings_pointwise_degenerate():
    ratio = madds_savings(16, 16, 1, 4, 4, 8, 8)
    assert ratio == pytest.approx((16 * 4 + 4 * 4 + 4 * 16) / (16 * 16))


def test_error_rank_table_structure():
    kernel = random_kernel(c1=4, c2=3)
    rows = error_rank_table(kernel)
    assert len(rows) == 12
    assert rows[-1][2] <= 1e-10  # full ranks reconstruct exactly
    # error never increases along either rank axis
    table = {(r1, r2): err for r1, r2, err, _ in rows}
    for (r1, r2), err in table.items():
        if (r1 + 1, r2) in table:
            assert table[(r1 + 1, r2)] <= err + 1e-12
        if (r1, r2 + 1) in table:
            assert table[(r1, r2 + 1)] <= err + 1e-12


@pytest.mark.parametrize("suffix", [".bin", ".json"])
def test_kernel_file_round_trip(tmp_path, suffix):
    kernel = random_kernel(k=3, c1=4, c2=5, seed=13)
    path = tmp_path / f"kernel{suffix}"
    save_kernel(kernel, path)
    assert np.array_equal(load_kernel(path), kernel)


@pytest.mark.parametrize("doc, part", [
    ({"dims": [1, 1, 2, 2]}, "missing field(s) data"),
    ({"dims": [1, 1, 1, 1], "data": [1.0], "scale": 2}, "unknown field(s) scale"),
    ([1], "expected an object, got list"),
], ids=["no_data", "unknown", "list"])
def test_malformed_json_kernel_names_file_and_field(tmp_path, doc, part):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"{path}: {part}")):
        load_kernel(path)


def test_kernel_file_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x03\x00\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_kernel(path)


def test_ranks_property():
    factors = tucker2(random_kernel(), 3, 6)
    assert factors.ranks == (3, 6)
    assert isinstance(factors, Tucker2Factors)
