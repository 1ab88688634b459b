"""Mode-2 Tucker decomposition of convolution kernels.

A KxKxC1xC2 kernel factors along its channel modes into an input factor
(C1 x r1), a core (K x K x r1 x r2) and an output factor (C2 x r2).
Applying the three stages in sequence (1x1 conv, KxK conv, 1x1 conv) is
functionally identical to convolving with the reconstructed kernel, which at
full ranks equals the original. This makes the structural link between the
compressed layer family and tensor factorization executable and testable.

Factors come from the higher-order SVD of the two channel-mode unfoldings.
Singular vector signs are canonicalized (largest-magnitude entry of each
column positive) so the decomposition is bit-deterministic.

Structural notes: fusing the first two stages of the sequence into one KxK
regular convolution yields the expansion-style (fused) layer, and a CP-style
decomposition that additionally splits the spatial dimensions corresponds to
the depthwise inverted-bottleneck structure. Both are purely structural
observations; only the mode-2 factorization gets numerical operations here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import _require, parse_json


@dataclass(frozen=True)
class Tucker2Factors:
    """Orthonormal channel factors plus the contracted core."""

    input_factor: np.ndarray   # (C1, r1), orthonormal columns
    core: np.ndarray           # (K, K, r1, r2)
    output_factor: np.ndarray  # (C2, r2), orthonormal columns

    @property
    def ranks(self) -> tuple[int, int]:
        return self.input_factor.shape[1], self.output_factor.shape[1]


def _check_kernel(kernel: np.ndarray) -> tuple[int, int, int]:
    kernel = np.asarray(kernel)
    if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError(f"kernel must have shape (K, K, C1, C2), got {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel entries must be finite")
    return k, kernel.shape[2], kernel.shape[3]


def _canonical_columns(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip column signs so the largest-magnitude entry is positive."""
    signs = np.ones(u.shape[1])
    for col in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, col]))
        if u[pivot, col] < 0:
            signs[col] = -1.0
    return u * signs, signs


def tucker2(kernel: np.ndarray, rank_in: int, rank_out: int) -> Tucker2Factors:
    """Decompose along the channel modes at the requested ranks.

    The input factor holds the top ``rank_in`` left singular vectors of the
    input-channel unfolding, the output factor the top ``rank_out`` of the
    output-channel unfolding; the core is the kernel contracted with both.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    _, c1, c2 = _check_kernel(kernel)
    if not 1 <= rank_in <= c1:
        raise ValueError(f"rank_in must be in [1, {c1}], got {rank_in}")
    if not 1 <= rank_out <= c2:
        raise ValueError(f"rank_out must be in [1, {c2}], got {rank_out}")
    unfold_in = np.moveaxis(kernel, 2, 0).reshape(c1, -1)
    unfold_out = np.moveaxis(kernel, 3, 0).reshape(c2, -1)
    u_in = np.linalg.svd(unfold_in, full_matrices=False)[0][:, :rank_in]
    u_out = np.linalg.svd(unfold_out, full_matrices=False)[0][:, :rank_out]
    u_in, _ = _canonical_columns(u_in)
    u_out, _ = _canonical_columns(u_out)
    core = np.einsum("abcd,ci,dj->abij", kernel, u_in, u_out)
    return Tucker2Factors(input_factor=u_in, core=core, output_factor=u_out)


def reconstruct(factors: Tucker2Factors) -> np.ndarray:
    """Expand the factors back into a dense KxKxC1xC2 kernel."""
    return np.einsum(
        "abij,ci,dj->abcd", factors.core, factors.input_factor, factors.output_factor
    )


def rel_error(kernel: np.ndarray, factors: Tucker2Factors) -> float:
    """Relative Frobenius reconstruction error; defined as 0 for a zero kernel."""
    kernel = np.asarray(kernel, dtype=np.float64)
    approx = reconstruct(factors)
    if kernel.shape != approx.shape:
        raise ValueError(
            f"kernel shape {kernel.shape} does not match factors {approx.shape}"
        )
    norm = np.linalg.norm(kernel)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(kernel - approx) / norm)


def apply_conv(kernel: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Reference convolution: same padding, stride 1, float64.

    ``image`` has shape (H, W, C1); the result has shape (H, W, C2).
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    k, c1, c2 = _check_kernel(kernel)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != c1:
        raise ValueError(
            f"image must have shape (H, W, {c1}), got {image.shape}"
        )
    h, w = image.shape[:2]
    pad = k // 2
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c1))
    padded[pad:pad + h, pad:pad + w] = image
    out = np.zeros((h, w, c2))
    for i in range(k):
        for j in range(k):
            out += np.einsum("xyc,cd->xyd", padded[i:i + h, j:j + w], kernel[i, j])
    return out


def apply_sequence(factors: Tucker2Factors, image: np.ndarray) -> np.ndarray:
    """Apply the three-stage sequence: 1x1 squeeze, KxK core conv, 1x1 restore."""
    image = np.asarray(image, dtype=np.float64)
    c1 = factors.input_factor.shape[0]
    if image.ndim != 3 or image.shape[2] != c1:
        raise ValueError(f"image must have shape (H, W, {c1}), got {image.shape}")
    squeezed = image @ factors.input_factor          # (H, W, r1)
    mixed = apply_conv(factors.core, squeezed)       # (H, W, r2)
    return mixed @ factors.output_factor.T           # (H, W, C2)


def madds_savings(
    c_in: int, c_out: int, kernel: int, rank_in: int, rank_out: int, height: int, width: int
) -> float:
    """Multiply-add ratio of the factored sequence over the dense conv.

    Stride 1: dense costs ``h*w*K^2*C1*C2``; the sequence costs
    ``h*w*(C1*r1 + K^2*r1*r2 + r2*C2)``. Below 1 means the factorization is
    cheaper. A 1x1 kernel degenerates to comparing pointwise chains; the
    ratio stays well defined.
    """
    if min(c_in, c_out, kernel, rank_in, rank_out, height, width) < 1:
        raise ValueError("all dimensions must be >= 1")
    area = height * width
    dense = area * kernel * kernel * c_in * c_out
    seq = area * (c_in * rank_in + kernel * kernel * rank_in * rank_out + rank_out * c_out)
    return seq / dense


def error_rank_table(
    kernel: np.ndarray, height: int = 14, width: int = 14
) -> list[tuple[int, int, float, float]]:
    """(rank_in, rank_out, relative error, madds ratio) over the full rank grid."""
    kernel = np.asarray(kernel, dtype=np.float64)
    k, c1, c2 = _check_kernel(kernel)
    rows = []
    for r1 in range(1, c1 + 1):
        for r2 in range(1, c2 + 1):
            factors = tucker2(kernel, r1, r2)
            rows.append(
                (
                    r1,
                    r2,
                    rel_error(kernel, factors),
                    madds_savings(c1, c2, k, r1, r2, height, width),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Kernel tensor files
# ---------------------------------------------------------------------------
# Binary layout: four little-endian uint32 dims (K, K, C1, C2) followed by
# K*K*C1*C2 little-endian float64 values in C order. A .json alternative
# stores {"dims": [...], "data": [...]} flat in C order.

def save_kernel(kernel: np.ndarray, path: str | Path) -> None:
    kernel = np.asarray(kernel, dtype=np.float64)
    _check_kernel(kernel)
    path = Path(path)
    if path.suffix == ".json":
        doc = {"dims": list(kernel.shape), "data": kernel.ravel().tolist()}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return
    with path.open("wb") as fh:
        fh.write(struct.pack("<4I", *kernel.shape))
        fh.write(kernel.astype("<f8").tobytes(order="C"))


def load_kernel(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".json":
        doc = parse_json(path.read_text(encoding="utf-8"), path)
        _require(doc, ("dims", "data"), str(path))
        kernel = np.array(doc["data"], dtype=np.float64).reshape(doc["dims"])
    else:
        raw = path.read_bytes()
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated kernel file")
        dims = struct.unpack("<4I", raw[:16])
        count = int(np.prod(dims))
        expected = 16 + 8 * count
        if len(raw) != expected:
            raise ValueError(
                f"{path}: expected {expected} bytes for dims {dims}, got {len(raw)}"
            )
        kernel = np.frombuffer(raw[16:], dtype="<f8").reshape(dims).copy()
    _check_kernel(kernel)
    return kernel
