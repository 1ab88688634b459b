"""Linear latency model and parametric device simulators.

The simulators stand in for on-device benchmarking at desk scale: each one
prices multiply-adds per operation class (ms per mega-MAdd) plus a per-layer
dispatch overhead, optionally perturbed by multiplicative Gaussian noise
(a factor that is not positive is redrawn, so latencies stay positive).

The latency model is a ridge regression over sparse layer-bucket counts,
matching the simulators' structure exactly, so a noiseless fit is exact on
collision-free layouts and a 1%-noise fit stays above r^2 = 0.99.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import (NetworkSpec, ParseError, _as_num, _as_str, _require, load_file, parse_json,
                   save_file)
from .analysis import OP_CLASSES, net_feature_counts, network_units, space_buckets, space_table
from .space import SpaceSpec, random_sample, decode


# The model file layout :func:`save_model` writes and :func:`load_model` reads.
MODEL_VERSION = 2
MODEL_FIELDS = ("version", "space_ref", "buckets", "weights", "intercept", "lambda",
                "train_r2", "holdout_r2")


class FitError(RuntimeError):
    """Latency model could not be fitted."""


class UnknownBucketError(ValueError):
    """Prediction requested for a feature bucket the model has never seen."""

    def __init__(self, bucket: str):
        super().__init__(f"unknown feature bucket: {bucket}")
        self.bucket = bucket


@dataclass(frozen=True)
class DeviceSimulator:
    """Per-op-class cost rates (ms per mega-MAdd) plus per-layer overhead."""

    name: str
    regular_conv: float
    depthwise_conv: float
    pointwise_conv: float
    se_block: float
    overhead_ms: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        for field_name in OP_CLASSES + ("overhead_ms", "noise_sigma"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{self.name}: {field_name} must be >= 0 and finite, got {value}")

    def rate(self, op_class: str) -> float:
        if op_class not in OP_CLASSES:
            raise ValueError(f"unknown op class {op_class!r}")
        return getattr(self, op_class)


# Built-in profiles. The accelerator profile charges depthwise multiply-adds
# 21x the regular-conv rate, so a regular conv carrying 7x the MAdds of its
# depthwise counterpart runs exactly 3x faster; squeeze-excite is priced
# steeply as a poorly supported op. The DSP profile shares the accelerator
# rates and is meant to pair with the kernel-5-free (dsp) space adaptation.
BUILTIN_DEVICES = {
    "cpu_sim": DeviceSimulator("cpu_sim", 1.0, 1.0, 1.0, 1.0),
    "accel_sim": DeviceSimulator("accel_sim", 1.0, 21.0, 1.0, 50.0),
    "dsp_sim": DeviceSimulator("dsp_sim", 1.0, 21.0, 1.0, 50.0),
}


def simulate_groups(
    device: DeviceSimulator,
    groups: tuple[tuple[tuple[str, int], ...], ...],
    rng: np.random.Generator | None = None,
) -> float:
    """Price conv units grouped per layer; overhead is charged per group.

    With ``rng`` given and ``noise_sigma > 0`` the total is scaled by
    ``1 + eps``, ``eps ~ Normal(0, noise_sigma)``, redrawn while ``1 + eps <= 0``
    so latencies stay positive (a positive first draw is kept as it is);
    ``rng=None`` is exact.
    """
    rates = {op_class: device.rate(op_class) for op_class in OP_CLASSES}
    total = device.overhead_ms * len(groups)
    try:
        for group in groups:
            for op_class, madds in group:
                total += rates[op_class] * madds / 1e6
    except KeyError as exc:
        raise ValueError(f"unknown op class {exc.args[0]!r}") from None
    if rng is not None and device.noise_sigma > 0:
        factor = 0.0
        while factor <= 0.0:
            factor = 1.0 + rng.normal(0.0, device.noise_sigma)
        total *= factor
    return total


def simulate_latency(
    device: DeviceSimulator, net: NetworkSpec, rng: np.random.Generator | None = None
) -> float:
    """Simulated latency of a whole network (stem included), in ms."""
    return simulate_groups(device, network_units(net), rng)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One (architecture, measured latency) observation."""

    net: NetworkSpec
    latency_ms: float

    def __post_init__(self):
        if not (math.isfinite(self.latency_ms) and self.latency_ms > 0):
            raise ValueError(f"latency must be a finite positive number, got {self.latency_ms}")


def generate_benchmarks(
    space: SpaceSpec, device: DeviceSimulator, n: int, rng: np.random.Generator
) -> list[BenchmarkRecord]:
    """Benchmark ``n`` uniformly sampled architectures on a simulated device.

    Each latency is priced from the space's unit table; the vector is decoded
    once, for the record's network.
    """
    if n < 1:
        raise ValueError(f"need at least one benchmark, got n={n}")
    table = space_table(space)
    records = []
    for _ in range(n):
        dv = random_sample(space, rng)
        latency = simulate_groups(device, table.price(dv).groups, rng)
        records.append(BenchmarkRecord(decode(space, dv), latency))
    return records


@dataclass(eq=False)
class LatencyModel:
    """Linear model over layer buckets: latency = counts . weights + intercept.

    The bucket index covers every bucket the space can produce, so prediction
    is total on in-space architectures; buckets unseen at fit time simply
    carry near-zero ridge-shrunk weights. Negative predictions are possible
    (the model is linear and unconstrained).
    """

    buckets: tuple[str, ...]
    weights: np.ndarray
    intercept: float
    ridge_lambda: float
    train_r2: float
    holdout_r2: float | None = None
    space_ref: str = ""
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.buckets):
            raise ValueError(f"{len(self.weights)} weights for {len(self.buckets)} buckets")
        self._index = {b: i for i, b in enumerate(self.buckets)}


def _feature_matrix(
    records: list[BenchmarkRecord], buckets: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    index = {b: i for i, b in enumerate(buckets)}
    x = np.zeros((len(records), len(buckets)), dtype=np.float64)
    y = np.empty(len(records), dtype=np.float64)
    for row, record in enumerate(records):
        for bucket, count in net_feature_counts(record.net).items():
            col = index.get(bucket)
            if col is None:
                raise UnknownBucketError(bucket)
            x[row, col] = count
        y[row] = record.latency_ms
    return x, y


def fit(
    records: list[BenchmarkRecord],
    space: SpaceSpec,
    ridge_lambda: float = 1e-6,
    space_ref: str = "",
) -> LatencyModel:
    """Ridge least squares through the smaller Gram matrix; deterministic.

    Minimizes ``sum (prediction - measured)^2 + lambda * |weights|^2`` with
    an unpenalized intercept. Centering the features and targets removes the
    intercept from the system: ``intercept = mean(y) - mean(x) . weights``.
    With fewer records ``n`` than buckets ``d`` the weights come from the
    dual (records x records) system ``xc.T @ solve(xc @ xc.T + lambda I, yc)``,
    otherwise from the primal (buckets x buckets) one, so beside the
    ``n x d`` feature matrix the fit holds ``min(n, d)^2`` floats.

    Train r^2 is read off the centered residuals of the fitted records.

    Raises :class:`FitError` for a ``ridge_lambda`` that is negative or not
    finite, and when the system is singular, advising
    ``ridge_lambda > 0`` when it was zero. With ``n <= d`` it always is (the
    centered rows sum to zero, so their rank is below ``n``), and that case
    is rejected before solving.
    """
    n = len(records)
    if n < 2:
        raise FitError(f"need at least 2 benchmark records, got {n}")
    if not (math.isfinite(ridge_lambda) and ridge_lambda >= 0):
        raise FitError(f"ridge_lambda must be a finite number >= 0, got {ridge_lambda}")
    buckets = space_buckets(space)
    d = len(buckets)
    if ridge_lambda == 0 and n <= d:
        raise FitError(f"{n} records for {d} buckets make the system singular; "
                       "use ridge_lambda > 0")
    x, y = _feature_matrix(records, buckets)
    x_mean, y_mean = x.mean(axis=0), y.mean()
    x -= x_mean
    y -= y_mean
    gram = x @ x.T if n < d else x.T @ x
    gram[np.diag_indices_from(gram)] += ridge_lambda
    try:
        weights = x.T @ np.linalg.solve(gram, y) if n < d else np.linalg.solve(gram, x.T @ y)
    except np.linalg.LinAlgError as exc:
        hint = "; use ridge_lambda > 0" if ridge_lambda == 0 else ""
        raise FitError(f"normal equations are singular{hint}") from exc
    return LatencyModel(
        buckets=buckets,
        weights=weights,
        intercept=float(y_mean - x_mean @ weights),
        ridge_lambda=ridge_lambda,
        train_r2=_r2(y, x @ weights),  # both centered: the residuals are y - x @ weights
        space_ref=space_ref,
    )


def predict(model: LatencyModel, net: NetworkSpec) -> float:
    """Predicted latency in ms; unknown buckets raise, naming the bucket."""
    return predict_counts(model, net_feature_counts(net))


def predict_counts(model: LatencyModel, counts: dict[str, int]) -> float:
    """Prediction from bucket counts, in the order given (stem first)."""
    total = model.intercept
    for bucket, count in counts.items():
        col = model._index.get(bucket)
        if col is None:
            raise UnknownBucketError(bucket)
        total += model.weights[col] * count
    return float(total)


def r2(model: LatencyModel, records: list[BenchmarkRecord]) -> float:
    """Coefficient of determination, 1 - SSres/SStot.

    Degenerate convention for constant targets (SStot = 0): 1.0 when the
    residuals are exactly zero too, else 0.0.
    """
    y = np.array([r.latency_ms for r in records], dtype=np.float64)
    preds = np.array([predict(model, r.net) for r in records], dtype=np.float64)
    return _r2(y, preds)


def _r2(y: np.ndarray, preds: np.ndarray) -> float:
    ss_res = float(np.sum((y - preds) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_model(model: LatencyModel, path: str | Path, meta: dict | None = None) -> None:
    doc = {
        "version": MODEL_VERSION,
        "space_ref": model.space_ref,
        "buckets": list(model.buckets),
        "weights": [float(w) for w in model.weights],
        "intercept": model.intercept,
        "lambda": model.ridge_lambda,
        "train_r2": model.train_r2,
        "holdout_r2": model.holdout_r2,
    }
    if meta:
        doc["_meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LatencyModel:
    """Read a model file; a malformed one raises one line naming the file and field."""
    doc = parse_json(Path(path).read_text(encoding="utf-8"), path)
    if isinstance(doc, dict) and doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: model file version {doc.get('version')!r}, expected "
                         f"{MODEL_VERSION}; refit it with 'hwnas cost fit'")
    _require(doc, MODEL_FIELDS, str(path))
    for key in ("buckets", "weights"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{path}: {key}: expected a list")
    holdout = doc["holdout_r2"]
    return LatencyModel(
        buckets=tuple(_as_str(b, f"{path}: buckets[{i}]") for i, b in enumerate(doc["buckets"])),
        weights=np.array([_as_num(w, f"{path}: weights[{i}]")
                          for i, w in enumerate(doc["weights"])], dtype=np.float64),
        intercept=_as_num(doc["intercept"], f"{path}: intercept"),
        ridge_lambda=_as_num(doc["lambda"], f"{path}: lambda"),
        train_r2=_as_num(doc["train_r2"], f"{path}: train_r2"),
        holdout_r2=None if holdout is None else _as_num(holdout, f"{path}: holdout_r2"),
        space_ref=_as_str(doc["space_ref"], f"{path}: space_ref"),
    )


def save_device(device: DeviceSimulator, path: str | Path, meta: dict | None = None) -> None:
    """Write every field of the profile, in declaration order."""
    doc = dataclasses.asdict(device)
    if meta:
        doc["_meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_device(path: str | Path) -> DeviceSimulator:
    """Read a profile; a malformed one raises one line naming the file and field.

    The fields with a default (overhead and noise) may be left out.
    """
    doc = parse_json(Path(path).read_text(encoding="utf-8"), path)
    fields = dataclasses.fields(DeviceSimulator)
    if isinstance(doc, dict):
        doc = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING} | doc
    _require(doc, tuple(f.name for f in fields), str(path))
    name = _as_str(doc["name"], f"{path}: name")
    rates = [_as_num(doc[f.name], f"{path}: {f.name}") for f in fields[1:]]
    try:
        return DeviceSimulator(name, *rates)
    except ValueError as exc:  # a rate that is negative or not finite
        raise ParseError(f"{path}: {exc}") from None


def save_benchmarks(
    records: list[BenchmarkRecord],
    csv_path: str | Path,
    arch_dir: str | Path,
    meta_lines: list[str] | None = None,
) -> None:
    """Write ``arch_file,latency_ms`` rows; architectures go to ``arch_dir``."""
    csv_path = Path(csv_path)
    arch_dir = Path(arch_dir)
    arch_dir.mkdir(parents=True, exist_ok=True)
    width = max(5, int(math.log10(max(len(records), 1))) + 1)
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        for line in meta_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["arch_file", "latency_ms"])
        for i, record in enumerate(records):
            arch_path = arch_dir / f"arch_{i:0{width}d}.json"
            save_file(record.net, arch_path)
            try:
                ref = arch_path.relative_to(csv_path.parent)
            except ValueError:
                ref = arch_path
            writer.writerow([str(ref), f"{record.latency_ms:.9g}"])


def load_benchmarks(csv_path: str | Path) -> list[BenchmarkRecord]:
    """Read a benchmark CSV; arch paths resolve relative to the CSV."""
    csv_path = Path(csv_path)
    records = []
    with csv_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].startswith("#")]
    if not rows or rows[0][1] != ["arch_file", "latency_ms"]:
        raise ValueError(f"{csv_path}: expected header arch_file,latency_ms")
    for line, row in rows[1:]:
        where = f"{csv_path}, line {line}"
        if len(row) != 2:
            raise ParseError(f"{where}: expected the fields arch_file,latency_ms, "
                             f"got {len(row)} field(s)")
        ref = Path(row[0])
        if not ref.is_absolute():
            ref = csv_path.parent / ref
        net = load_file(ref, f"{where}: {ref}")
        try:
            records.append(BenchmarkRecord(net, float(row[1])))
        except ValueError as exc:
            raise ParseError(f"{where}: latency_ms: {exc}") from None
    return records
