"""Search drivers: controller loop, exhaustive and random baselines, ablations.

Quality evaluation is abstracted behind an oracle interface so the driver can
run against synthetic stand-ins at desk scale. Latency comes either from a
device simulator or from a fitted linear model.

Pricing: every driver prices a sampled or enumerated decision vector from
the space's unit table (:func:`~hwnas.analysis.space_table`), and oracles
and latency sources read the resulting :class:`~hwnas.analysis.ArchCost`.
A search prices a cache miss from the table's latency column for its
source instead: one lookup per layer position gives the layer's cost and
its latency addends, the oracle scores the costs, and the addends are
summed in layer order as :func:`latency_of` sums them, so both give the
same bits. ``decode`` runs only for the networks a driver returns: the
final network of a search and the exhaustive or random-search best. Every
driver scores a priced architecture through one noiseless scorer and picks
its best through one argmax, which keeps the first maximizer.

Noise determinism: oracle and simulator noise streams are re-keyed per
architecture from (run seed, digest of the decision vector), so identical
architectures receive identical noisy estimates within a run and whole
searches replay bit-identically. The decision vector stands for the
architecture because a run searches one fixed space and ``decode`` is
injective on it: its atoms are distinct and the chosen width multiplier is
kept in the decoded blocks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from .arch import NetworkSpec
from .analysis import ArchCost, space_buckets, space_table
from .controller import (
    AdamState,
    BaselineState,
    CategoricalPolicy,
    RewardConfig,
    entropy,
    most_likely,
    reinforce_step,
    reward,
    sample,
)
from .cost import DeviceSimulator, LatencySource, latency_of, total_latency
from .space import (
    DEFAULT_ENUM_CAP,
    DecisionVector,
    SpaceSpec,
    decode,
    enumerate_space,
    random_sample,
    space_size,
)


_decimal = lru_cache(maxsize=1024)(str)  # str of a decision index, kept for reuse


def arch_hash(dv: DecisionVector) -> int:
    """Stable 64-bit digest of a decision vector (process independent).

    Within one space it identifies the architecture ``decode`` builds.
    """
    digest = hashlib.blake2b(",".join(map(_decimal, dv)).encode("ascii"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class QualityOracle(Protocol):
    """Quality estimate in [0, 1]; deterministic given (architecture, rng seed)."""

    descriptor: str

    def evaluate(self, cost: ArchCost, rng: np.random.Generator | None) -> float: ...


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass
class LinearFeatureOracle:
    """Quality as the mean bucket weight over a network's layers, stem included.

    With weights drawn uniformly from [0, 1] the clean score lands in [0, 1]
    by construction; optional Gaussian noise is clamped back into range.
    """

    weights: dict[str, float]
    noise_sigma: float = 0.0
    descriptor: str = "linear_feature"

    @classmethod
    def random_for_space(
        cls, space: SpaceSpec, seed: int, noise_sigma: float = 0.0
    ) -> "LinearFeatureOracle":
        rng = np.random.default_rng([seed, 0x71])
        weights = {b: float(rng.uniform()) for b in space_buckets(space)}
        return cls(weights=weights, noise_sigma=noise_sigma,
                   descriptor=f"linear_feature(seed={seed})")

    def evaluate(self, cost: ArchCost, rng: np.random.Generator | None) -> float:
        score = 0.0
        for layer in cost.layers:  # in order: sum() of floats is compensated from Python 3.12 on
            score += self.weights.get(layer.key, 0.0)
        score /= len(cost.layers)  # every layer and the stem
        if rng is not None and self.noise_sigma > 0:
            score += rng.normal(0.0, self.noise_sigma)
        return _clamp01(score)


@dataclass
class CapacityOracle:
    """Quality rises with total multiply-adds and saturates.

    ``1 - exp(-madds / scale_madds)``, optionally plus clamped Gaussian noise.
    Encodes the premise that capacity buys quality while staying
    hardware-agnostic; where regular convolutions go is left to the search.
    """

    scale_madds: float
    noise_sigma: float = 0.0
    descriptor: str = "capacity"

    def evaluate(self, cost: ArchCost, rng: np.random.Generator | None) -> float:
        score = 1.0 - math.exp(-cost.total_madds / self.scale_madds)
        if rng is not None and self.noise_sigma > 0:
            score += rng.normal(0.0, self.noise_sigma)
        return _clamp01(score)


def _regular_fractions(ops: Sequence[str]) -> tuple[float, float]:
    """(overall, early-half) fraction of layers built on regular convolutions.

    Regular here means not depthwise based, i.e. fused or tucker kinds. The
    early half is the first ceil(n/2) layers.
    """
    if not ops:
        return 0.0, 0.0
    early_n = -(-len(ops) // 2)
    overall = sum(op != "ibn" for op in ops) / len(ops)
    early = sum(op != "ibn" for op in ops[:early_n]) / early_n
    return overall, early


def _score(
    oracle: QualityOracle, source: LatencySource, cost: ArchCost, reward_cfg: RewardConfig
) -> tuple[float, float, float]:
    """Noiseless (quality, latency, reward) of a priced architecture."""
    quality = oracle.evaluate(cost, None)
    latency = latency_of(source, cost)
    return quality, latency, reward(quality, latency, reward_cfg)


def _argmax(rows):
    """The row with the highest reward, its last field; the first one among equals."""
    return max(rows, key=itemgetter(-1))


def _uniform_costs(space: SpaceSpec, seed: int, samples: int) -> list[ArchCost]:
    """Costs of ``samples`` uniform draws, all from the ``[seed, 0xB0]`` stream."""
    rng = np.random.default_rng([seed, 0xB0])
    table = space_table(space)
    return [table.price(random_sample(space, rng)) for _ in range(samples)]


def resolve_budget(
    space: SpaceSpec, source: LatencySource, seed: int, samples: int = 256
) -> float:
    """Median noiseless latency over uniform samples; the default budget."""
    return float(np.median([latency_of(source, c) for c in _uniform_costs(space, seed, samples)]))


def median_madds(space: SpaceSpec, seed: int, samples: int = 256) -> float:
    """Median total multiply-adds over uniform samples (capacity oracle scale)."""
    return float(np.median([c.total_madds for c in _uniform_costs(space, seed, samples)]))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one controller run.

    ``budget_ms=None`` resolves to the latency source's noiseless median
    latency over 256 uniform samples (:func:`resolve_budget`). Noise is drawn
    once per architecture, as the module docs describe.
    ``lr`` feeds the controller's Adam; the 5e-3 default suits long searches,
    desk-scale runs of a few thousand steps converge faster with 10x that.
    """

    steps: int
    samples_per_step: int = 1
    tau: float = -0.3
    budget_ms: float | None = None
    seed: int = 0
    lr: float = 5e-3

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.samples_per_step < 1:
            raise ValueError(f"samples_per_step must be >= 1, got {self.samples_per_step}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite positive number, got {self.lr}")


@dataclass(frozen=True)
class StepRecord:
    step: int
    dv: DecisionVector
    quality: float
    latency_ms: float
    reward: float
    baseline: float
    entropy: float


@dataclass(frozen=True)
class SearchLog:
    """Replayable record of a run: every step plus the extracted final arch."""

    seed: int
    budget_ms: float
    tau: float
    oracle: str
    latency_source: str
    steps: tuple[StepRecord, ...]
    final_dv: DecisionVector
    final_quality: float
    final_latency_ms: float
    final_reward: float


def _source_name(source: LatencySource) -> str:
    if isinstance(source, DeviceSimulator):
        return f"simulator:{source.name}"
    return f"model:{source.space_ref or 'latency'}"


class _Evaluator:
    """Noisy evaluation of :func:`run_search`'s samples, memoized per architecture."""

    def __init__(
        self,
        space: SpaceSpec,
        oracle: QualityOracle,
        source: LatencySource,
        seed: int,
    ):
        self.oracle = oracle
        self.source = source
        self.table = space_table(space)
        self._stem, self._positions = self.table.latencies(source)
        # Re-key one PCG64 per architecture: its 128-bit state is (run key,
        # arch_hash) under a per-run odd increment. Setting a state costs
        # about a tenth of seeding a new generator on every cache miss.
        run_key, inc = np.random.SeedSequence([seed, 3]).generate_state(2, np.uint64)
        self._run_key, self._inc = int(run_key) << 64, int(inc) | 1
        self._arch_rng = np.random.Generator(np.random.PCG64(0))
        self._cache: dict[DecisionVector, tuple[float, float]] = {}

    def _keyed_rng(self, digest: int) -> np.random.Generator:
        self._arch_rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._run_key | digest, "inc": self._inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._arch_rng

    def evaluate(self, dv: DecisionVector) -> tuple[float, float]:
        """(quality, latency), with the architecture's noise drawn on its first evaluation."""
        hit = self._cache.get(dv)
        if hit is not None:
            return hit
        rng = self._keyed_rng(arch_hash(dv))
        # one lookup per position gives a layer's cost and its latency addends together
        layers, addends = zip(self._stem, *[cells[at(dv)] for at, cells in self._positions])
        quality = self.oracle.evaluate(ArchCost(layers), rng)
        latency = total_latency(self.source, len(layers), addends, rng)
        self._cache[dv] = (quality, latency)
        return quality, latency


def run_search(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    cfg: SearchConfig,
) -> tuple[NetworkSpec, SearchLog]:
    """Run the controller loop and return the most likely architecture.

    Each step samples architectures, scores them with the latency-penalized
    reward and applies one policy-gradient update. Fully reproducible per
    seed. Final metrics are evaluated noiselessly.
    """
    budget = cfg.budget_ms
    if budget is None:
        budget = resolve_budget(space, latency_source, cfg.seed)
    reward_cfg = RewardConfig(tau=cfg.tau, budget_ms=budget)
    evaluator = _Evaluator(space, oracle, latency_source, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])

    policy = CategoricalPolicy.uniform(space)
    adam = AdamState.for_policy(policy, lr=cfg.lr)
    baseline = BaselineState()
    records = []
    for step in range(cfg.steps):
        try:
            batch = []
            first_eval = None
            for _ in range(cfg.samples_per_step):
                dv = sample(policy, rng)
                quality, latency = evaluator.evaluate(dv)
                if first_eval is None:
                    first_eval = (quality, latency)
                batch.append((dv, reward(quality, latency, reward_cfg)))
            policy = reinforce_step(policy, batch, baseline, adam)
            policy_entropy = entropy(policy)
        except Exception as exc:
            # a batch short of samples_per_step failed while scoring the latest sample
            where = f" (decision vector {dv})" if len(batch) < cfg.samples_per_step else ""
            raise RuntimeError(f"search aborted at step {step}: {exc}{where}") from exc
        first_dv, first_reward = batch[0]
        records.append(
            StepRecord(
                step=step,
                dv=first_dv,
                quality=first_eval[0],
                latency_ms=first_eval[1],
                reward=first_reward,
                baseline=baseline.value,
                entropy=policy_entropy,
            )
        )
    final_dv = most_likely(policy)
    final_quality, final_latency, final_reward = _score(
        oracle, latency_source, evaluator.table.price(final_dv), reward_cfg
    )
    log = SearchLog(
        seed=cfg.seed,
        budget_ms=budget,
        tau=cfg.tau,
        oracle=oracle.descriptor,
        latency_source=_source_name(latency_source),
        steps=tuple(records),
        final_dv=final_dv,
        final_quality=final_quality,
        final_latency_ms=final_latency,
        final_reward=final_reward,
    )
    return decode(space, final_dv), log


def reward_iter(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[tuple[DecisionVector, ArchCost, float, float, float]]:
    """Noiseless (dv, cost, quality, latency, reward) over the whole space."""
    table = space_table(space)
    for dv in enumerate_space(space, cap):
        cost = table.price(dv)
        yield dv, cost, *_score(oracle, latency_source, cost, reward_cfg)


def exhaustive_best(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[NetworkSpec, float]:
    """Noise-free argmax of the reward over the entire space.

    Ties break lexicographically (the first enumerated maximizer wins).
    Raises :class:`~hwnas.space.EnumerationCapError` above the cap.
    """
    dv, *_, rew = _argmax(reward_iter(space, oracle, latency_source, reward_cfg, cap))
    return decode(space, dv), rew


def random_search_baseline(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    n: int,
    rng: np.random.Generator,
) -> tuple[NetworkSpec, float]:
    """Best of ``n`` uniform samples under the noiseless reward; the first among equals."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = space_table(space)
    draws = (random_sample(space, rng) for _ in range(n))
    dv, *_, rew = _argmax(
        (dv, *_score(oracle, latency_source, table.price(dv), reward_cfg)) for dv in draws
    )
    return decode(space, dv), rew


# ---------------------------------------------------------------------------
# Ablation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    space: str
    device: str
    reward: float
    latency_ms: float
    madds: int
    params: int
    frac_regular_all: float
    frac_regular_early: float


ABLATION_COLUMNS = tuple(f.name for f in fields(AblationRow))


def ablation_report(
    spaces: Sequence[tuple[str, SpaceSpec]],
    devices: Sequence[DeviceSimulator],
    tau: float = -0.3,
    seed: int = 0,
) -> list[AblationRow]:
    """Exhaustive best per (space, device) under a shared capacity oracle.

    All spaces must share one layout. Per device, the budget is the median
    latency of 256 uniform samples from the largest space, shared across
    spaces so rewards are comparable; the oracle's capacity scale is the
    matching median multiply-add count.
    """
    if not spaces or not devices:
        raise ValueError("need at least one space and one device")
    layouts = {s.layout for _, s in spaces}
    if len(layouts) > 1:
        raise ValueError("ablation spaces must share one layout")
    biggest = max((s for _, s in spaces), key=space_size)
    oracle = CapacityOracle(scale_madds=median_madds(biggest, seed))
    # Price each enumeration once; the devices differ only in their rates.
    enumerations = {}
    for name, sp in spaces:
        table = space_table(sp)
        enumerations[name] = [table.price(dv) for dv in enumerate_space(sp)]
    rows = []
    for device in devices:
        budget = resolve_budget(biggest, device, seed)
        reward_cfg = RewardConfig(tau=tau, budget_ms=budget)
        for name, sp in spaces:
            cost, _, latency, rew = _argmax(
                (cost, *_score(oracle, device, cost, reward_cfg)) for cost in enumerations[name]
            )
            rows.append(AblationRow(name, device.name, rew, latency, cost.total_madds,
                                    cost.total_params, *_regular_fractions(cost.ops)))
    return rows


def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated (latency, reward) points, sorted by latency ascending."""
    best = -math.inf
    front = []
    for lat, rew in sorted(points):
        if rew > best:
            front.append((lat, rew))
            best = rew
    return front


# ---------------------------------------------------------------------------
# Log files (newline-delimited JSON)
# ---------------------------------------------------------------------------

# A step record as json.dumps writes {"type": "step", **vars(record)}
_STEP_LINE = ('{"type": "step", "step": %d, "dv": [%s], "quality": %s, "latency_ms": %s, '
              '"reward": %s, "baseline": %s, "entropy": %s}')


def write_log(log: SearchLog, path: str | Path, meta: dict | None = None) -> None:
    """One meta record, one record per step, one final record.

    The meta record holds the run's settings and ``meta``; the step and final
    records hold a :class:`StepRecord`'s and the ``final_*`` fields, in
    declaration order. Step records are formatted as ``json.dumps`` writes
    them, which holds for finite floats: :func:`run_search` logs no other.
    """
    record = vars(log)
    head = {"type": "meta", **{k: v for k, v in record.items()
                               if k != "steps" and not k.startswith("final_")}}
    if meta:
        head.update(meta)
    lines = [json.dumps(head)]
    number = float.__repr__  # not repr: numpy 2 writes np.float64(0.3) for a float64
    for rec in log.steps:
        lines.append(_STEP_LINE % (rec.step, ", ".join(map(_decimal, rec.dv)),
                                   number(rec.quality), number(rec.latency_ms),
                                   number(rec.reward), number(rec.baseline), number(rec.entropy)))
    final = {k.removeprefix("final_"): v for k, v in record.items() if k.startswith("final_")}
    lines.append(json.dumps({"type": "final", **final}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
