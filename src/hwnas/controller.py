"""Categorical policy, latency-penalized reward and REINFORCE with Adam.

The policy holds the logits of every decision in one ``(decisions x
max_choices)`` array: row ``d`` holds decision ``d``'s logits followed by
``-inf`` padding, so padded slots get probability exactly 0 and sampling,
the gradient, Adam and entropy are each a few numpy expressions over the
whole array. Sampling draws each decision independently from its softmax.
The update ascends the score-function gradient of the advantage-weighted
log-probability, with an exponential moving average of the reward as
baseline and Adam on the logits. Each policy makes one softmax pass, shared
by sampling, the gradient and entropy. Logits are validated when constructed;
an update keeps the padding and its softmax pass checks the rows stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .space import DecisionVector, SpaceSpec

# Sample outcome fed to the update: (decision vector, log-probability at
# sampling time, reward). The stored log-probability is diagnostic only; the
# gradient recomputes probabilities from the current logits.
SampleOutcome = tuple[DecisionVector, float, float]

# TuNAS's optimizer and baseline settings. Adam runs with beta1 = 0, so its
# first moment is the gradient itself and only the second moment is kept.
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BASELINE_DECAY = 0.9


@dataclass(frozen=True)
class CategoricalPolicy:
    """Padded logits, one row per decision; probabilities are softmax per row.

    Each row holds at least one finite logit followed by ``-inf`` padding;
    ``mask`` marks the finite (real) slots and ``last`` holds each row's last
    real slot.
    """

    logits: np.ndarray
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    last: np.ndarray = field(init=False, repr=False, compare=False)
    stats: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        logits = self.logits
        if logits.ndim != 2 or logits.size < 1:
            raise ValueError("logits must be a non-empty (decisions x choices) array")
        mask = np.isfinite(logits)
        bad = ~mask[:, 0] | (mask[:, 1:] > mask[:, :-1]).any(axis=1)
        bad |= (~mask & (logits != -np.inf)).any(axis=1)
        if bad.any():
            raise ValueError(f"decision {int(np.flatnonzero(bad)[0])}: logits must be "
                             "finite, followed only by -inf padding")
        self.__dict__.update(mask=mask, last=mask.sum(axis=1) - 1,
                             stats=_softmax_pass(logits, mask))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "CategoricalPolicy":
        """Pad ragged per-decision logits with ``-inf`` into one array."""
        logits = np.full((len(rows), max(len(row) for row in rows)), -np.inf)
        for d, row in enumerate(rows):
            logits[d, :len(row)] = row
        return cls(logits)

    @classmethod
    def uniform(cls, space: SpaceSpec) -> "CategoricalPolicy":
        return cls.from_rows([[0.0] * len(d.choices) for d in space.decisions])

    @classmethod
    def _trusted(cls, logits: np.ndarray, like: "CategoricalPolicy") -> "CategoricalPolicy":
        """Wrap logits padded as ``like``'s, checking only that rows are finite."""
        policy = object.__new__(cls)
        policy.__dict__.update(logits=logits, mask=like.mask, last=like.last,
                               stats=_softmax_pass(logits, like.mask))
        return policy


def _softmax_pass(logits: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """(exp / row sum, log-softmax, its exp): the policy's one softmax pass.

    The gradient reads the first, sampling's CDF and entropy the last; the two
    differ in the last bit. A row whose max is not finite raises. numpy sums a
    vector sequentially below 8 elements and pairwise from 8, so a plain sum
    over a padded row would add in another order than a sum over the
    decision's own choices. The masked sum adds each row's real slots as a
    vector of that length would, keeping results independent of padding.
    """
    rowmax = logits.max(axis=1, keepdims=True)
    finite = np.isfinite(rowmax[:, 0])
    if not finite.all():
        raise ValueError(f"decision {int(np.flatnonzero(~finite)[0])}: logits must be finite")
    shifted = logits - rowmax
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True, where=mask)
    logp = shifted - np.log(total)
    return exp / total, logp, np.exp(logp)


def softmax(policy: CategoricalPolicy) -> np.ndarray:
    """Per-decision probabilities; padded slots hold 0."""
    return policy.stats[0]


def log_softmax(policy: CategoricalPolicy) -> np.ndarray:
    """Per-decision log-probabilities; padded slots hold ``-inf``."""
    return policy.stats[1]


@dataclass(frozen=True)
class RewardConfig:
    """Latency-penalized reward: quality + tau * |latency/budget - 1|.

    ``tau`` is negative (zero is tolerated for tests, where the penalty is
    switched off); ``budget_ms`` is the target latency.
    """

    tau: float
    budget_ms: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau <= 0):
            raise ValueError(f"tau must be a finite number <= 0, got {self.tau}")
        if not (math.isfinite(self.budget_ms) and self.budget_ms > 0):
            raise ValueError(f"budget_ms must be a finite positive number, got {self.budget_ms}")


def reward(quality: float, latency_ms: float, cfg: RewardConfig) -> float:
    if latency_ms <= 0:
        raise ValueError(f"latency must be positive, got {latency_ms}")
    return quality + cfg.tau * abs(latency_ms / cfg.budget_ms - 1.0)


@dataclass
class AdamState:
    """Adam state for the policy logits; update direction is ascent.

    Betas (0, :data:`ADAM_BETA2`), epsilon :data:`ADAM_EPSILON`, lr 5e-3 by
    default. The second moment ``v`` has the shape of the logits;
    :meth:`for_policy` allocates it.
    """

    lr: float = 5e-3
    step: int = 0
    v: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite positive number, got {self.lr}")

    @classmethod
    def for_policy(cls, policy: CategoricalPolicy, **hyper) -> "AdamState":
        return cls(v=np.zeros_like(policy.logits), **hyper)

    def apply(self, logits: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """One ascent step; returns new logits, replaces the second moment.

        Padded slots have zero gradient and moment, so they stay ``-inf``.
        """
        self.step += 1
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grads * grads
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.step)
        return logits + self.lr * grads / (np.sqrt(v_hat) + ADAM_EPSILON)


@dataclass
class BaselineState:
    """Reward EMA at :data:`BASELINE_DECAY`; initialized from the first batch's mean."""

    value: float | None = None


def sample(
    policy: CategoricalPolicy, rng: np.random.Generator
) -> tuple[DecisionVector, float]:
    """Independent categorical draw per decision; returns (vector, logprob).

    One uniform per decision, drawn in decision order by ``rng.random(n)``:
    the same stream as one ``rng.random()`` call per decision.
    """
    _, logp, exp_logp = policy.stats
    cdf = np.cumsum(exp_logp, axis=1)
    target = rng.random(len(cdf)) * cdf[:, -1]
    # inverse CDF; the clamp keeps a draw that rounds up to the total on a real slot
    idx = np.minimum((cdf <= target[:, None]).sum(axis=1), policy.last)
    return tuple(idx.tolist()), float(logp[np.arange(len(idx)), idx].sum())


def logprob_of(policy: CategoricalPolicy, dv: DecisionVector) -> float:
    """Log-probability of a decision vector under the current logits."""
    logp = log_softmax(policy)
    return float(logp[np.arange(len(logp)), list(dv)].sum())


def reinforce_objective(
    policy: CategoricalPolicy, batch: Sequence[SampleOutcome], baseline_value: float
) -> float:
    """Mean advantage-weighted log-probability (the surrogate being ascended)."""
    total = 0.0
    for dv, _, rew in batch:
        total += (rew - baseline_value) * logprob_of(policy, dv)
    return total / len(batch)


def reinforce_gradient(
    policy: CategoricalPolicy, batch: Sequence[SampleOutcome], baseline_value: float
) -> np.ndarray:
    """Analytic score-function gradient of :func:`reinforce_objective`.

    Per decision, d logprob / d logits = onehot(chosen) - softmax(logits);
    padded slots get 0. Samples are summed in batch order.
    """
    chosen = np.array([dv for dv, _, _ in batch])[:, :, None]
    onehot = chosen == np.arange(policy.logits.shape[1])
    advantages = np.array([rew - baseline_value for _, _, rew in batch])[:, None, None]
    return ((onehot - softmax(policy)) * advantages).sum(axis=0) / len(batch)


def reinforce_step(
    policy: CategoricalPolicy,
    batch: Sequence[SampleOutcome],
    baseline: BaselineState,
    adam: AdamState,
) -> CategoricalPolicy:
    """One policy-gradient update.

    The advantage uses the pre-update baseline (initialized to the first
    batch's mean reward); the baseline EMA advances after the gradient.
    Mutates ``adam`` and ``baseline``; returns the updated policy, or raises
    ``ValueError`` if a row of its logits is not finite.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    rewards = [rew for _, _, rew in batch]
    if not all(math.isfinite(r) for r in rewards):
        raise ValueError(f"non-finite reward in batch: {rewards}")
    mean_reward = sum(rewards) / len(rewards)
    if baseline.value is None:
        baseline.value = mean_reward
    grads = reinforce_gradient(policy, batch, baseline.value)
    updated = CategoricalPolicy._trusted(adam.apply(policy.logits, grads), policy)
    baseline.value = BASELINE_DECAY * baseline.value + (1.0 - BASELINE_DECAY) * mean_reward
    return updated


def most_likely(policy: CategoricalPolicy) -> DecisionVector:
    """Argmax per decision; ties break to the lowest index."""
    return tuple(np.argmax(policy.logits, axis=1).tolist())


def entropy(policy: CategoricalPolicy) -> float:
    """Sum of per-decision Shannon entropies, in nats; padded slots add 0.

    Raises ``ValueError`` when the sum is not finite: a row's logits then
    differ by more than the largest float, so a real slot's log-probability
    is ``-inf``, as after a step at a huge learning rate.
    """
    _, logp, exp_logp = policy.stats
    value = float(-(exp_logp * np.where(policy.mask, logp, 0.0)).sum())
    if not math.isfinite(value):
        raise ValueError(f"entropy is {value}: a decision's logits differ by more than "
                         "the largest float (is lr too large?)")
    return value
