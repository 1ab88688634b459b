"""Linear latency model and parametric device simulators.

The simulators stand in for on-device benchmarking at desk scale: each one
prices multiply-adds per operation class (ms per mega-MAdd) plus a per-layer
dispatch overhead, optionally perturbed by multiplicative Gaussian noise
(a factor that is not positive is redrawn, so latencies stay positive).

The latency model is a ridge regression over sparse layer-bucket counts,
matching the simulators' structure exactly, so a noiseless fit is exact on
collision-free layouts. On ``toy2`` a 1%-noise fit of 2,000 records stays
above held-out r^2 = 0.99; on ``default``, with more buckets than training
records, it reads about 0.41.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .arch import (NetworkSpec, ParseError, _as_list, _as_num, _as_str, _require, load_file,
                   parse_json, save_file)
from .analysis import OP_CLASSES, ArchCost, LayerCost, network_cost, space_buckets, space_table
from .space import DecisionVector, SpaceSpec, random_sample, decode


# The model file layout :func:`save_model` writes and :func:`load_model` reads.
MODEL_VERSION = 3
MODEL_FIELDS = ("version", "space_ref", "buckets", "weights", "intercept", "lambda",
                "train_r2", "holdout_r2")

# Benchmark CSV columns, and the comment line naming the space the vectors are from
BENCH_FIELDS = ["arch_file", "latency_ms", "vector"]
SPACE_LINE = "# space:"
# A benchmark latency is at most this many ms. No simulated latency comes near it under the
# size rules of arch and the device bounds, and it keeps the fit's squares inside float range.
MAX_LATENCY_MS = 1e100


class FitError(RuntimeError):
    """Latency model could not be fitted."""


class UnknownBucketError(ValueError):
    """Prediction requested for a feature bucket the model has never seen."""

    def __init__(self, bucket: str):
        super().__init__(f"unknown feature bucket: {bucket}")
        self.bucket = bucket


@dataclass(frozen=True)
class DeviceSimulator:
    """Per-op-class cost rates (ms per mega-MAdd) plus per-layer overhead; every simulated
    latency is :func:`total_latency` of its layers' :meth:`addends`."""

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
            if not 0 <= value <= 1e6:  # with the size rules of arch, keeps every latency finite
                raise ValueError(f"{self.name}: {field_name} must be in [0, 1e6], got {value}")
        if not any(getattr(self, f) for f in ("regular_conv", "depthwise_conv",
                                              "pointwise_conv", "overhead_ms")):
            raise ValueError(f"{self.name}: regular_conv, depthwise_conv, pointwise_conv and "
                             "overhead_ms are all 0, which prices most networks at 0 ms")

    @cached_property
    def _rates(self) -> dict[str, float]:
        return {op_class: getattr(self, op_class) for op_class in OP_CLASSES}

    def addends(self, layer: LayerCost) -> tuple[float, ...]:
        """A layer's latency addends: ``rate * madds / 1e6`` of each of its units, in order."""
        return tuple([self._rates[op_class] * madds / 1e6 for op_class, madds in layer.units])


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


def simulate_latency(device: DeviceSimulator, net: NetworkSpec,
                     rng: np.random.Generator | None = None) -> float:
    """Simulated latency of a whole network (stem included), in ms."""
    return latency_of(device, network_cost(net), rng)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One (architecture, measured latency) observation, with the architecture's cost.

    Records drawn from a space also carry their vector; records read back
    from a vector row have no ``net``.
    """

    net: NetworkSpec | None
    latency_ms: float
    cost: ArchCost
    dv: DecisionVector | None = None

    def __post_init__(self):
        if not 0 < self.latency_ms <= MAX_LATENCY_MS:  # NaN fails too
            raise ValueError(f"latency must be a finite positive number at most "
                             f"{MAX_LATENCY_MS:g}, got {self.latency_ms}")


def generate_benchmarks(
    space: SpaceSpec, device: DeviceSimulator, n: int, rng: np.random.Generator
) -> list[BenchmarkRecord]:
    """Benchmark ``n`` uniformly sampled architectures on a simulated device.

    Each is priced by the latency column of the space's unit table, as a
    search prices its samples; the vector is decoded once, for its network.
    """
    if n < 1:
        raise ValueError(f"need at least one benchmark, got n={n}")
    lookup, records = space_table(space).latencies(device), []
    for _ in range(n):
        dv = random_sample(space, rng)
        cost, addends = lookup(dv)
        records.append(BenchmarkRecord(decode(space, dv), total_latency(device, addends, rng),
                                       cost, dv))
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

    def addends(self, layer: LayerCost) -> tuple[float]:
        """A layer's latency addend: its bucket's weight; an unknown bucket raises."""
        col = self._index.get(layer.key)
        if col is None:
            raise UnknownBucketError(layer.key)
        return (float(self.weights[col]),)


LatencySource = DeviceSimulator | LatencyModel


def total_latency(source: LatencySource, addends: Sequence[tuple[float, ...]],
                  rng: np.random.Generator | None = None) -> float:
    """Latency in ms of the layers ``addends`` holds a tuple of addends for: a simulator's
    overhead per layer or a model's intercept, plus the addends in layer order. With ``rng``
    a simulator then scales it by ``1 + eps``, ``eps ~ Normal(0, noise_sigma)``, redrawn while
    ``1 + eps <= 0`` so latencies stay positive (a positive first draw is kept as it is)."""
    simulator = isinstance(source, DeviceSimulator)
    total = source.overhead_ms * len(addends) if simulator else source.intercept
    for terms in addends:
        for term in terms:
            total += term
    if simulator and rng is not None and source.noise_sigma > 0:
        factor = 0.0
        while factor <= 0.0:
            factor = 1.0 + rng.normal(0.0, source.noise_sigma)
        total *= factor
    return total


def latency_of(source: LatencySource, cost: ArchCost,
               rng: np.random.Generator | None = None) -> float:
    """Latency in ms from either a simulator (noisy) or a fitted model."""
    return total_latency(source, [source.addends(layer) for layer in cost.layers], rng)


def _design(
    records: list[BenchmarkRecord], index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, latencies): one (row, bucket column) pair per layer of each record.

    Unknown buckets raise, naming the bucket.
    """
    rows, cols = [], []
    for row, record in enumerate(records):
        layers = record.cost.layers
        try:
            cols += [index[layer.key] for layer in layers]
        except KeyError as exc:
            raise UnknownBucketError(exc.args[0]) from None
        rows += [row] * len(layers)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array([r.latency_ms for r in records], dtype=np.float64))


def _gram_pairs(
    rows: np.ndarray, cols: np.ndarray, n: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, gram): the entries of :func:`_design` that do not center to zero,
    and the integer matrix ``x @ x.T`` of the records' bucket counts over them.

    A column that is 1 in every record centers to zero (in practice the stem
    bucket), yet it alone would add ``n^2`` entry pairs, so its entries are
    dropped. It is found by its distinct rows: a repeated bucket can reach
    ``n`` entries while missing from some records. Each of the remaining
    entries pairs with every entry of its column, so the pairs number the
    sum of the squared column counts, and ``x @ x.T`` counts them per
    (row, row) cell.
    """
    order = np.argsort(cols, kind="stable")  # rows stay ascending within a column
    rows, cols = rows[order], cols[order]
    first = np.ones(len(cols), dtype=bool)
    first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
    counts = np.bincount(cols, minlength=d)
    constant = (counts == n) & (np.bincount(cols[first], minlength=d) == n)
    kept = ~constant[cols]
    rows, cols = rows[kept], cols[kept]
    counts[constant] = 0
    sizes = counts[cols]  # each entry pairs with every entry of its column
    column_start = np.cumsum(counts) - counts
    # pair t of entry e is the entry at (start of e's column) + (t - first pair of e)
    partners = np.repeat(column_start[cols] - (np.cumsum(sizes) - sizes), sizes)
    partners += np.arange(len(partners))
    keys = rows.take(partners)
    del partners
    keys += np.repeat(rows * n, sizes)
    return rows, cols, np.bincount(keys, minlength=n * n).reshape(n, n)


def fit(
    records: list[BenchmarkRecord],
    space: SpaceSpec,
    ridge_lambda: float = 1e-6,
    space_ref: str = "",
) -> LatencyModel:
    """Ridge least squares through the smaller Gram matrix; deterministic.

    Minimizes ``sum (prediction - measured)^2 + lambda * |weights|^2`` with
    an unpenalized intercept. Centering the features ``x`` (each record's
    bucket counts) and targets removes the intercept from the system:
    ``intercept = mean(y) - mean(x) . weights``.

    With fewer records ``n`` than buckets ``d`` the weights come from the
    dual (records x records) system ``xc.T @ solve(xc @ xc.T + lambda I, yc)``,
    and ``x`` is never formed. ``xc @ xc.T`` is ``x @ x.T - s_i - s_j +
    mean(x) . mean(x)`` with ``s = x @ mean(x)``, and ``x @ x.T`` is an exact
    count of the pairs of layers that share a bucket (:func:`_gram_pairs`).
    Those pairs number the sum of the squared bucket counts over the buckets
    that are not 1 in every record; the stem bucket is, and is left out of
    every term, as it centers to zero. On 1,600 ``default`` records that is
    about 1.0M pairs (3.6M with the stem): the fit holds a few index arrays
    of that length and the ``n x n`` counts and Gram matrix. The weights and
    the train predictions are sums over the layers' index arrays too.

    Otherwise the weights come from the primal (buckets x buckets) system
    over the dense ``n x d`` feature matrix, with ``d^2`` floats beside it.
    That branch keeps the arithmetic of earlier versions, so its models, and
    the pinned ``toy2`` runs that search with one, stay the same bit for bit.

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
    rows, cols, y = _design(records, {b: i for i, b in enumerate(buckets)})
    y_mean = y.mean()
    y -= y_mean
    if n < d:
        rows, cols, gram = _gram_pairs(rows, cols, n, d)
        x_mean = np.bincount(cols, minlength=d) / n
        # float64 even with no entries left (every bucket constant), where bincount gives int64
        s = np.bincount(rows, weights=x_mean[cols], minlength=n).astype(np.float64)
        gram = gram - s[:, None]  # float64 from here on
        gram -= s[None, :]
        gram += x_mean @ x_mean
        a = _solve(gram, y, ridge_lambda)
        weights = np.bincount(cols, weights=a[rows], minlength=d) - x_mean * a.sum()
        fitted = np.bincount(rows, weights=weights[cols], minlength=n) - x_mean @ weights
    else:
        x = np.zeros((n, d), dtype=np.float64)
        np.add.at(x, (rows, cols), 1.0)
        x_mean = x.mean(axis=0)
        x -= x_mean
        weights = _solve(x.T @ x, x.T @ y, ridge_lambda)
        fitted = x @ weights
    return LatencyModel(
        buckets=buckets,
        weights=weights,
        intercept=float(y_mean - x_mean @ weights),
        ridge_lambda=ridge_lambda,
        train_r2=_r2(y, fitted),  # both centered: the residuals are y - fitted
        space_ref=space_ref,
    )


def _solve(gram: np.ndarray, rhs: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """``solve(gram + lambda I, rhs)``, adding lambda to ``gram`` in place.

    A singular system raises :class:`FitError`.
    """
    gram[np.diag_indices_from(gram)] += ridge_lambda
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        hint = "; use ridge_lambda > 0" if ridge_lambda == 0 else ""
        raise FitError(f"normal equations are singular{hint}") from exc


def coverage(model: LatencyModel, records: list[BenchmarkRecord]) -> float:
    """Share of the model's buckets that ``records`` touch."""
    return len({layer.key for r in records for layer in r.cost.layers}) / len(model.buckets)


def predict(model: LatencyModel, cost: ArchCost) -> float:
    """Predicted latency in ms: the intercept plus each layer's bucket weight, stem
    first; an unknown bucket raises, naming it."""
    return latency_of(model, cost)


def r2(model: LatencyModel, records: list[BenchmarkRecord]) -> float:
    """Coefficient of determination, 1 - SSres/SStot, over the fit's index arrays.

    Degenerate convention for constant targets (SStot = 0): 1.0 when the
    residuals are exactly zero too, else 0.0.
    """
    rows, cols, y = _design(records, model._index)
    preds = np.bincount(rows, weights=model.weights[cols], minlength=len(y)) + model.intercept
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
    """Write a model file; a weight, intercept or r^2 that :func:`load_model` would reject
    as not finite raises :class:`FitError` instead."""
    for name, value in (("weights", model.weights), ("intercept", model.intercept),
                        ("train_r2", model.train_r2), ("holdout_r2", model.holdout_r2 or 0.0)):
        if not np.isfinite(value).all():
            raise FitError(f"the fitted {name} is not finite; no model is written")
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


def _as_finite(value, where: str) -> float:
    number = _as_num(value, where)
    if not math.isfinite(number):
        raise ParseError(f"{where}: expected a finite number, got {number}")
    return number


def load_model(path: str | Path) -> LatencyModel:
    """Read a model file; a malformed one raises one line naming the file and field."""
    doc = parse_json(Path(path).read_text(encoding="utf-8"), path)
    if isinstance(doc, dict) and doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: model file version {doc.get('version')!r}, expected "
                         f"{MODEL_VERSION}; refit it with 'hwnas cost fit'")
    _require(doc, MODEL_FIELDS, str(path))
    holdout = doc["holdout_r2"]
    fields = dict(
        buckets=tuple(_as_list(doc["buckets"], f"{path}: buckets", _as_str)),
        weights=np.array(_as_list(doc["weights"], f"{path}: weights", _as_finite), float),
        intercept=_as_finite(doc["intercept"], f"{path}: intercept"),
        ridge_lambda=_as_finite(doc["lambda"], f"{path}: lambda"),
        train_r2=_as_finite(doc["train_r2"], f"{path}: train_r2"),
        holdout_r2=None if holdout is None else _as_finite(holdout, f"{path}: holdout_r2"),
        space_ref=_as_str(doc["space_ref"], f"{path}: space_ref"),
    )
    try:
        return LatencyModel(**fields)
    except ValueError as exc:  # weights and buckets of different lengths
        raise ParseError(f"{path}: {exc}") from None


def save_device(device: DeviceSimulator, path: str | Path) -> None:
    """Write every field of the profile, in declaration order."""
    Path(path).write_text(json.dumps(dataclasses.asdict(device), indent=2) + "\n",
                          encoding="utf-8")


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
    """Write ``arch_file,latency_ms,vector`` rows (the decision vector space-separated,
    or empty); architectures go to ``arch_dir``, named relative to the CSV's directory
    when under it (worked out once for ``arch_dir``, not per row)."""
    csv_path = Path(csv_path)
    arch_dir = Path(arch_dir)
    arch_dir.mkdir(parents=True, exist_ok=True)
    try:
        ref_dir = arch_dir.relative_to(csv_path.parent)
    except ValueError:
        ref_dir = arch_dir
    width = max(5, int(math.log10(max(len(records), 1))) + 1)
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        for line in meta_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_FIELDS)
        for i, record in enumerate(records):
            name = f"arch_{i:0{width}d}.json"
            save_file(record.net, arch_dir / name)
            vector = "" if record.dv is None else " ".join(map(str, record.dv))
            writer.writerow([str(ref_dir / name), f"{record.latency_ms:.9g}", vector])


def space_id(space: SpaceSpec, space_ref: str) -> str:
    """``space_ref`` and a digest of the space's definition, which fixes how its
    vectors price: the space a benchmark CSV or a model file names."""
    return f"{space_ref} {hashlib.sha256(repr(space).encode()).hexdigest()[:12]}"


def space_line(space: SpaceSpec, space_ref: str) -> str:
    """The ``# space:`` comment of a benchmark CSV."""
    return f"space: {space_id(space, space_ref)}"


def check_space(declared: str | None, space: SpaceSpec, space_ref: str, what: str) -> None:
    """Raise unless ``declared`` (a :func:`space_id`) carries the digest of ``space``,
    so the same space named another way passes and an edited one does not."""
    expected = space_id(space, space_ref)
    if (declared or "").rpartition(" ")[2] != expected.rpartition(" ")[2]:
        raise ParseError(f"{what} space {declared or '(none named)'}, not {expected}")


def load_benchmarks(
    csv_path: str | Path, space: SpaceSpec, space_ref: str
) -> list[BenchmarkRecord]:
    """Read a benchmark CSV; arch paths resolve relative to the CSV.

    Vector rows are priced from the unit table of ``space`` without opening
    their architecture files, and the CSV's ``# space:`` line must carry the
    digest of ``space`` (:func:`check_space`). Rows with an empty vector,
    and two-column files, read their architecture files, whose feature
    buckets must all be buckets of ``space``.
    """
    csv_path = Path(csv_path)
    declared, rows = None, []
    with csv_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row and row[0].startswith(SPACE_LINE):
                declared = ",".join(row)[len(SPACE_LINE):].strip()
            elif row and not row[0].startswith("#"):
                rows.append((reader.line_num, row))
    header = rows[0][1] if rows else None
    if header not in (BENCH_FIELDS[:2], BENCH_FIELDS):
        raise ValueError(f"{csv_path}: expected header arch_file,latency_ms[,vector]")
    if any(len(row) == len(header) == 3 and row[2] for _, row in rows[1:]):
        check_space(declared, space, space_ref, f"{csv_path}: its vectors are from")
    table, records, known = space_table(space), [], set(space_buckets(space))
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"{csv_path}, line {line}: expected the fields {','.join(header)}, "
                             f"got {len(row)} field(s)")
        if len(row) == 3 and row[2]:
            try:
                dv = tuple(map(int, row[2].split()))
                net, cost = None, table.price(dv)
            except ValueError:
                raise ParseError(f"{csv_path}, line {line}: vector: expected integers, "
                                 f"got {row[2]!r}") from None
            except IndexError as exc:
                raise ParseError(f"{csv_path}, line {line}: vector: {exc}") from None
        else:
            ref = Path(row[0])
            if not ref.is_absolute():
                ref = csv_path.parent / ref
            net = load_file(ref, f"{csv_path}, line {line}: {ref}")
            dv, cost = None, network_cost(net)
            outside = next((layer.key for layer in cost.layers if layer.key not in known), None)
            if outside is not None:
                raise ParseError(f"{csv_path}, line {line}: {ref}: feature bucket {outside} "
                                 "is not in the space")
        try:
            records.append(BenchmarkRecord(net, float(row[1]), cost, dv))
        except ValueError as exc:
            raise ParseError(f"{csv_path}, line {line}: latency_ms: {exc}") from None
    return records
