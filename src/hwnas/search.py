"""Search drivers: controller loop, exhaustive and random baselines, ablations.

Quality evaluation is abstracted behind an oracle interface so the driver can
run against synthetic stand-ins at desk scale. Latency comes either from a
device simulator or from a fitted linear model.

Pricing: every driver prices a sampled or enumerated decision vector from
the space's unit table (:func:`~hwnas.analysis.space_table`), and oracles
and latency sources read the resulting :class:`~hwnas.analysis.ArchCost`.
``decode`` runs only for the networks a driver returns: the final network
of a search, the exhaustive or random-search best and each ablation row.

Noise determinism: in the default ``hash`` mode, oracle and simulator noise
streams are re-keyed per architecture from (run seed, digest of the decision
vector), so identical architectures receive identical noisy estimates within
a run and whole searches replay bit-identically. The decision vector stands
for the architecture because a run searches one fixed space and ``decode`` is
injective on it: its atoms are distinct and the chosen width multiplier is
kept in the decoded blocks. An ``iid`` mode draws fresh noise per evaluation
instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from .arch import NetworkSpec, iter_layers
from .analysis import ArchCost, network_cost, space_buckets, space_table
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
from .cost import DeviceSimulator, LatencyModel, predict_counts, simulate_groups, simulate_latency
from .space import (
    DEFAULT_ENUM_CAP,
    DecisionVector,
    SpaceSpec,
    decode,
    enumerate_space,
    random_sample,
    space_size,
)

LatencySource = DeviceSimulator | LatencyModel


def arch_hash(dv: DecisionVector) -> int:
    """Stable 64-bit digest of a decision vector (process independent).

    Within one space it identifies the architecture ``decode`` builds.
    """
    digest = hashlib.blake2b(",".join(map(str, dv)).encode("ascii"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class QualityOracle(Protocol):
    """Quality estimate in [0, 1]; deterministic given (architecture, rng seed)."""

    descriptor: str

    def evaluate(self, cost: ArchCost, rng: np.random.Generator | None) -> float: ...


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass
class LinearFeatureOracle:
    """Quality as the mean of per-bucket weights over a network's features.

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
        counts = cost.feature_counts()
        score = sum(self.weights.get(b, 0.0) * c for b, c in counts.items())
        score /= len(cost.layers)  # every layer and the stem
        if rng is not None and self.noise_sigma > 0:
            score += rng.normal(0.0, self.noise_sigma)
        return _clamp01(score)


@dataclass
class CapacityOracle:
    """Quality rises with total multiply-adds and saturates.

    ``1 - exp(-madds / scale_madds)``, optionally plus a bonus proportional
    to the fraction of regular-conv layers (fused or tucker) in the early
    half of the network. Encodes the premise that capacity buys quality while
    staying hardware-agnostic.
    """

    scale_madds: float
    early_regular_bonus: float = 0.0
    noise_sigma: float = 0.0
    descriptor: str = "capacity"

    def evaluate(self, cost: ArchCost, rng: np.random.Generator | None) -> float:
        score = 1.0 - math.exp(-cost.total_madds / self.scale_madds)
        if self.early_regular_bonus:
            _, early = _regular_fractions(cost.ops)
            score += self.early_regular_bonus * early
        if rng is not None and self.noise_sigma > 0:
            score += rng.normal(0.0, self.noise_sigma)
        return _clamp01(score)


def regular_conv_fractions(net: NetworkSpec) -> tuple[float, float]:
    """(overall, early-half) fraction of layers built on regular convolutions.

    Regular here means not depthwise based, i.e. fused or tucker kinds. The
    early half is the first ceil(n/2) layers.
    """
    return _regular_fractions([layer.kind.op for _, _, layer in iter_layers(net)])


def _regular_fractions(ops: Sequence[str]) -> tuple[float, float]:
    if not ops:
        return 0.0, 0.0
    early_n = -(-len(ops) // 2)
    overall = sum(op != "ibn" for op in ops) / len(ops)
    early = sum(op != "ibn" for op in ops[:early_n]) / early_n
    return overall, early


def latency_of(
    source: LatencySource, cost: ArchCost, rng: np.random.Generator | None = None
) -> float:
    """Latency in ms from either a simulator (noisy) or a fitted model."""
    if isinstance(source, DeviceSimulator):
        return simulate_groups(source, cost.groups, rng)
    return predict_counts(source, cost.feature_counts())


def resolve_budget(
    space: SpaceSpec, source: LatencySource, seed: int, samples: int = 256
) -> float:
    """Median noiseless latency over uniform samples; the default budget."""
    rng = np.random.default_rng([seed, 0xB0])
    table = space_table(space)
    lats = [
        latency_of(source, table.price(random_sample(space, rng)))
        for _ in range(samples)
    ]
    return float(np.median(lats))


def median_madds(space: SpaceSpec, seed: int, samples: int = 256) -> float:
    """Median total multiply-adds over uniform samples (capacity oracle scale)."""
    rng = np.random.default_rng([seed, 0xB0])
    table = space_table(space)
    totals = [table.price(random_sample(space, rng)).total_madds for _ in range(samples)]
    return float(np.median(totals))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one controller run.

    ``budget_ms=None`` resolves to the median simulated latency of 256
    uniform samples. ``noise_mode`` selects the per-architecture (``hash``)
    or per-evaluation (``iid``) noise regime described in the module docs.
    ``lr`` feeds the controller's Adam; the 5e-3 default suits long searches,
    desk-scale runs of a few thousand steps converge faster with 10x that.
    """

    steps: int
    samples_per_step: int = 1
    tau: float = -0.3
    budget_ms: float | None = None
    seed: int = 0
    lr: float = 5e-3
    noise_mode: str = "hash"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.samples_per_step < 1:
            raise ValueError(f"samples_per_step must be >= 1, got {self.samples_per_step}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite positive number, got {self.lr}")
        if self.noise_mode not in ("hash", "iid"):
            raise ValueError(f"noise_mode must be 'hash' or 'iid', got {self.noise_mode!r}")


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
    """Shared noiseless/noisy evaluation used by every driver entry point."""

    def __init__(
        self,
        space: SpaceSpec,
        oracle: QualityOracle,
        source: LatencySource,
        seed: int,
        noise_mode: str,
    ):
        self.space = space
        self.oracle = oracle
        self.source = source
        self.seed = seed
        self.noise_mode = noise_mode
        self.table = space_table(space)
        self._iid_rng = np.random.default_rng([seed, 2])
        # Hash mode re-keys one PCG64 per architecture: its 128-bit state is
        # (run key, arch_hash) under a per-run odd increment. Setting a state
        # costs about a tenth of seeding a new generator on every cache miss.
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
        """(quality, latency) with the configured noise regime."""
        if self.noise_mode == "hash":
            hit = self._cache.get(dv)
            if hit is not None:
                return hit
            rng = self._keyed_rng(arch_hash(dv))
        else:
            rng = self._iid_rng
        cost = self.table.price(dv)
        quality = self.oracle.evaluate(cost, rng)
        latency = latency_of(self.source, cost, rng)
        if self.noise_mode == "hash":
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
    evaluator = _Evaluator(space, oracle, latency_source, cfg.seed, cfg.noise_mode)
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
                dv, logprob = sample(policy, rng)
                quality, latency = evaluator.evaluate(dv)
                if first_eval is None:
                    first_eval = (quality, latency)
                batch.append((dv, logprob, reward(quality, latency, reward_cfg)))
            policy = reinforce_step(policy, batch, baseline, adam)
            policy_entropy = entropy(policy)
        except Exception as exc:
            # a batch short of samples_per_step failed while scoring the latest sample
            where = f" (decision vector {dv})" if len(batch) < cfg.samples_per_step else ""
            raise RuntimeError(f"search aborted at step {step}: {exc}{where}") from exc
        first_dv, _, first_reward = batch[0]
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
    final_cost = evaluator.table.price(final_dv)
    final_quality = oracle.evaluate(final_cost, None)
    final_latency = latency_of(latency_source, final_cost)
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
        final_reward=reward(final_quality, final_latency, reward_cfg),
    )
    return decode(space, final_dv), log


def reward_iter(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    cap: int = DEFAULT_ENUM_CAP,
    archs: Sequence[tuple[DecisionVector, ArchCost]] | None = None,
) -> Iterator[tuple[DecisionVector, ArchCost, float, float, float]]:
    """Noiseless (dv, cost, quality, latency, reward) over the whole space.

    ``archs`` short-circuits pricing when the caller has already priced the
    enumeration (ablations reuse one across devices).
    """
    if archs is None:
        table = space_table(space)
        archs = ((dv, table.price(dv)) for dv in enumerate_space(space, cap))
    for dv, cost in archs:
        quality = oracle.evaluate(cost, None)
        latency = latency_of(latency_source, cost)
        yield dv, cost, quality, latency, reward(quality, latency, reward_cfg)


def exhaustive_best(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    cap: int = DEFAULT_ENUM_CAP,
    archs: Sequence[tuple[DecisionVector, ArchCost]] | None = None,
) -> tuple[NetworkSpec, float]:
    """Noise-free argmax of the reward over the entire space.

    Ties break lexicographically (the first enumerated maximizer wins).
    Raises :class:`~hwnas.space.EnumerationCapError` above the cap.
    """
    best = None
    for dv, _, _, _, rew in reward_iter(space, oracle, latency_source, reward_cfg, cap, archs):
        if best is None or rew > best[1]:
            best = (dv, rew)
    if best is None:
        raise ValueError("space is empty")
    return decode(space, best[0]), best[1]


def random_search_baseline(
    space: SpaceSpec,
    oracle: QualityOracle,
    latency_source: LatencySource,
    reward_cfg: RewardConfig,
    n: int,
    rng: np.random.Generator,
) -> tuple[NetworkSpec, float]:
    """Best of ``n`` uniform samples under the noiseless reward."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = space_table(space)
    best = None
    for _ in range(n):
        dv = random_sample(space, rng)
        cost = table.price(dv)
        rew = reward(
            oracle.evaluate(cost, None), latency_of(latency_source, cost), reward_cfg
        )
        if best is None or rew > best[1]:
            best = (dv, rew)
    return decode(space, best[0]), best[1]


# ---------------------------------------------------------------------------
# Ablation report
# ---------------------------------------------------------------------------

ABLATION_COLUMNS = (
    "space", "device", "reward", "latency_ms", "madds", "params",
    "frac_regular_all", "frac_regular_early",
)


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


def ablation_report(
    spaces: Sequence[tuple[str, SpaceSpec]],
    devices: Sequence[DeviceSimulator],
    tau: float = -0.3,
    seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
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
        enumerations[name] = [(dv, table.price(dv)) for dv in enumerate_space(sp, cap)]
    rows = []
    for device in devices:
        budget = resolve_budget(biggest, device, seed)
        reward_cfg = RewardConfig(tau=tau, budget_ms=budget)
        for name, sp in spaces:
            net, rew = exhaustive_best(
                sp, oracle, device, reward_cfg, cap, archs=enumerations[name]
            )
            cost = network_cost(net)
            frac_all, frac_early = regular_conv_fractions(net)
            rows.append(
                AblationRow(
                    space=name,
                    device=device.name,
                    reward=rew,
                    latency_ms=simulate_latency(device, net),
                    madds=cost.total_madds,
                    params=cost.total_params,
                    frac_regular_all=frac_all,
                    frac_regular_early=frac_early,
                )
            )
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

def write_log(log: SearchLog, path: str | Path, meta: dict | None = None) -> None:
    """One meta record, one record per step, one final record."""
    head = {
        "type": "meta",
        "seed": log.seed,
        "budget_ms": log.budget_ms,
        "tau": log.tau,
        "oracle": log.oracle,
        "latency_source": log.latency_source,
    }
    if meta:
        head.update(meta)
    lines = [json.dumps(head)]
    for rec in log.steps:
        lines.append(
            json.dumps(
                {
                    "type": "step",
                    "step": rec.step,
                    "dv": list(rec.dv),
                    "quality": rec.quality,
                    "latency_ms": rec.latency_ms,
                    "reward": rec.reward,
                    "baseline": rec.baseline,
                    "entropy": rec.entropy,
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "type": "final",
                "dv": list(log.final_dv),
                "quality": log.final_quality,
                "latency_ms": log.final_latency_ms,
                "reward": log.final_reward,
            }
        )
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
