"""Search drivers: controller loop, exhaustive and random baselines, ablations.

Quality evaluation is abstracted behind an oracle interface so the driver can
run against synthetic stand-ins at desk scale. Latency comes either from a
device simulator or from a fitted linear model.

Pricing: every driver prices a decision vector, as ``bench generate``
does, with the lookup of the latency column of the space's unit table for
its source (:meth:`~hwnas.analysis.SpaceTable.latencies`). It gives the
vector's costs, which the oracle scores, and each layer's latency addends,
which :func:`~hwnas.cost.total_latency` sums in layer order, as
:func:`~hwnas.cost.latency_of` sums a network's, so both give the same bits. A
search memoizes its noisy evaluations; the exhaustive and random
baselines, the ablation, the default budget and a search's final network
are scored noiselessly, and every best is the first maximizer of one loop.
``decode`` runs only for the networks a driver returns.

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
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .arch import NetworkSpec
from .analysis import ArchCost, space_buckets, space_table
from .controller import (
    AdamState,
    BaselineState,
    CategoricalPolicy,
    LatencyError,
    RewardConfig,
    entropy,
    most_likely,
    reinforce_step,
    reward,
    sample,
)
# latency_of is not called here; bench/tracing.py patches it as hwnas.search.latency_of
from .cost import DeviceSimulator, LatencySource, latency_of, total_latency  # noqa: F401
from .space import (
    DEFAULT_ENUM_CAP,
    DecisionVector,
    SpaceSpec,
    decode,
    enumerate_space,
    random_sample,
    space_size,
)


class _Decimals(dict):
    """``str`` of a decision index from a table of 0 to 1023 that never stores a miss, so an
    index equal to one of them (``np.int64(1)``, ``True``) formats alike in any process."""

    def __missing__(self, index) -> str:
        return str(index)


_decimal = _Decimals({i: str(i) for i in range(1024)}).__getitem__


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
    descriptor = "capacity"

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


def _uniform_draws(space: SpaceSpec, seed: int, samples: int) -> list[DecisionVector]:
    """``samples`` uniform decision vectors, all from the ``[seed, 0xB0]`` stream."""
    rng = np.random.default_rng([seed, 0xB0])
    return [random_sample(space, rng) for _ in range(samples)]


def resolve_budget(space: SpaceSpec, source: LatencySource, seed: int,
                   samples: int = 256) -> float:
    """Median noiseless latency over uniform samples; the default budget."""
    lookup = space_table(space).latencies(source)
    budget = float(np.median([total_latency(source, lookup(dv)[1])
                              for dv in _uniform_draws(space, seed, samples)]))
    if not budget > 0:  # a fitted model is linear and may predict below zero
        raise LatencyError(f"{_source_name(source)}: the median latency of {samples} uniform "
                           f"samples is {budget} ms, not a budget; give one with --budget")
    return budget


def median_madds(space: SpaceSpec, seed: int) -> float:
    """Capacity oracle scale: median total multiply-adds of resolve_budget's 256 default draws."""
    price = space_table(space).price
    return float(np.median([price(dv).total_madds for dv in _uniform_draws(space, seed, 256)]))


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


class StepRecord(NamedTuple):
    """A step's first sample and its reward, then the baseline and the
    entropy after the update: a plain tuple, one per step of :func:`run_search`."""

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
    """Scores of decision vectors, priced from the table's latency column for ``source``:
    noiseless (:meth:`score`), or noisy and memoized per architecture (:meth:`evaluate`,
    for :func:`run_search`'s samples, with noise keyed by ``seed``)."""

    def __init__(self, space: SpaceSpec, oracle: QualityOracle | None, source: LatencySource,
                 seed: int = 0):
        self.oracle = oracle
        self.source = source
        self._lookup = space_table(space).latencies(source)
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

    def score(self, dv: DecisionVector, reward_cfg: RewardConfig) -> tuple:
        """The noiseless (cost, quality, latency, reward)."""
        cost, addends = self._lookup(dv)
        quality = self.oracle.evaluate(cost, None)
        latency = total_latency(self.source, addends)
        return cost, quality, latency, reward(quality, latency, reward_cfg)

    def evaluate(self, dv: DecisionVector) -> tuple[float, float]:
        """(quality, latency), with the architecture's noise drawn on its first evaluation."""
        hit = self._cache.get(dv)
        if hit is not None:
            return hit
        rng = self._keyed_rng(arch_hash(dv))
        cost, addends = self._lookup(dv)
        quality = self.oracle.evaluate(cost, rng)
        latency = total_latency(self.source, addends, rng)
        self._cache[dv] = (quality, latency)
        return quality, latency


def _best(pricer: _Evaluator, reward_cfg: RewardConfig, vectors: Iterable) -> tuple:
    """(dv, cost, quality, latency, reward) of the first maximizer of the noiseless reward."""
    best = None
    for dv in vectors:
        try:
            row = (dv, *pricer.score(dv, reward_cfg))
        except LatencyError as exc:  # a latency the reward rejects
            raise LatencyError(f"{exc} (decision vector {dv})") from exc
        if best is None or row[-1] > best[-1]:
            best = row
    return best


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
    if not space.decisions:  # a layout with no blocks: one architecture and no policy
        raise ValueError("the space has no decisions, so there is nothing to search")
    budget = cfg.budget_ms
    if budget is None:
        budget = resolve_budget(space, latency_source, cfg.seed)
    reward_cfg = RewardConfig(tau=cfg.tau, budget_ms=budget)
    evaluator = _Evaluator(space, oracle, latency_source, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])

    policy = CategoricalPolicy.uniform(space)
    adam = AdamState.for_policy(policy, lr=cfg.lr)
    baseline = BaselineState()
    records, evaluate, memo = [], evaluator.evaluate, evaluator._cache
    for step in range(cfg.steps):
        batch, dv = [], None
        try:
            for _ in range(cfg.samples_per_step):
                dv = sample(policy, rng)
                batch.append((dv, reward(*evaluate(dv), reward_cfg)))
            policy = reinforce_step(policy, batch, baseline, adam)
            policy_entropy = entropy(policy)
        except Exception as exc:
            # name the vector drawn in this step only if it failed while being scored
            unscored = dv is not None and not (batch and batch[-1][0] is dv)
            where = f" (decision vector {dv})" if unscored else ""
            raise RuntimeError(f"search aborted at step {step}: {exc}{where}") from exc
        first_dv, first_reward = batch[0]  # its (quality, latency) is in the memo
        records.append(StepRecord._make((step, first_dv, *memo[first_dv], first_reward,
                                         baseline.value, policy_entropy)))
    final_dv, _, final_quality, final_latency, final_reward = _best(
        evaluator, reward_cfg, [most_likely(policy)])
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
    dv, *_, rew = _best(_Evaluator(space, oracle, latency_source), reward_cfg,
                        enumerate_space(space, cap))
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
    draws = (random_sample(space, rng) for _ in range(n))
    dv, *_, rew = _best(_Evaluator(space, oracle, latency_source), reward_cfg, draws)
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
    rows = []
    for device in devices:
        reward_cfg = RewardConfig(tau=tau, budget_ms=resolve_budget(biggest, device, seed))
        for name, sp in spaces:
            _, cost, _, latency, rew = _best(_Evaluator(sp, oracle, device), reward_cfg,
                                             enumerate_space(sp))
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

# A step record as json.dumps writes {"type": "step", **record._asdict()}: the
# fragment holds the sample's fields, the line the step, baseline and entropy.
_SAMPLE_FRAGMENT = '"dv": [%s], "quality": %s, "latency_ms": %s, "reward": %s'
_STEP_LINE = '{"type": "step", "step": %d, %s, "baseline": %s, "entropy": %s}\n'


def write_log(log: SearchLog, path: str | Path, meta: dict | None = None) -> None:
    """One meta record, one record per step, one final record, streamed to ``path``.

    The meta record holds the run's settings and ``meta``; the step and final
    records hold a :class:`StepRecord`'s and the ``final_*`` fields, in
    declaration order. Step records are formatted as ``json.dumps`` writes
    them, which holds for finite floats: :func:`run_search` logs no other.
    Each distinct sample fragment is formatted once, except one that holds a
    zero: ``0.0 == -0.0`` as a dict key, but the two are written differently.
    """
    record = vars(log)
    head = {"type": "meta", **{k: v for k, v in record.items()
                               if k != "steps" and not k.startswith("final_")}}
    if meta:
        head.update(meta)
    final = {k.removeprefix("final_"): v for k, v in record.items() if k.startswith("final_")}
    number = float.__repr__  # not repr: numpy 2 writes np.float64(0.3) for a float64
    fragments = {}
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(head) + "\n")
        for step, dv, quality, latency, rew, base, ent in log.steps:
            key = (dv, quality, latency, rew)
            fragment = fragments.get(key)
            if fragment is None or not (quality and latency and rew):
                fragment = fragments[key] = _SAMPLE_FRAGMENT % (
                    ", ".join(map(_decimal, dv)), number(quality), number(latency), number(rew))
            out.write(_STEP_LINE % (step, fragment, number(base), number(ent)))
        out.write(json.dumps({"type": "final", **final}) + "\n")
