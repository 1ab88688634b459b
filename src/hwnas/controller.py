"""Categorical policy, latency-penalized reward and REINFORCE with Adam.

The policy holds the logits of every decision in one ``(decisions x
max_choices)`` array: row ``d`` holds decision ``d``'s logits followed by
``-inf`` padding, so padded slots get probability exactly 0 and sampling,
the gradient, Adam and entropy are each a few numpy expressions over the
whole array. Sampling draws each decision independently from its softmax.
The update ascends the score-function gradient of the advantage-weighted
log-probability, with an exponential moving average of the reward as
baseline and Adam on the logits.
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


@dataclass(frozen=True)
class CategoricalPolicy:
    """Padded logits, one row per decision; probabilities are softmax per row.

    Each row holds at least one finite logit followed by ``-inf`` padding;
    ``mask`` marks the finite (real) slots.
    """

    logits: np.ndarray
    mask: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "mask", mask)

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


def _exp_shifted(policy: CategoricalPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(logits - row max, its exp, each row's sum of exp over its real slots).

    numpy sums a vector sequentially below 8 elements and pairwise from 8, so
    a plain sum over a padded row would add in another order than a sum over
    the decision's own choices. The masked sum adds each row's real slots as
    a vector of that length would, keeping results independent of padding.
    """
    shifted = policy.logits - policy.logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return shifted, exp, exp.sum(axis=1, keepdims=True, where=policy.mask)


def softmax(policy: CategoricalPolicy) -> np.ndarray:
    """Per-decision probabilities; padded slots hold 0."""
    _, exp, total = _exp_shifted(policy)
    return exp / total


def log_softmax(policy: CategoricalPolicy) -> np.ndarray:
    """Per-decision log-probabilities; padded slots hold ``-inf``."""
    shifted, _, total = _exp_shifted(policy)
    return shifted - np.log(total)


@dataclass(frozen=True)
class RewardConfig:
    """Latency-penalized reward: quality + tau * |latency/budget - 1|.

    ``tau`` is negative (zero is tolerated for tests, where the penalty is
    switched off); ``budget_ms`` is the target latency.
    """

    tau: float
    budget_ms: float

    def __post_init__(self):
        if self.tau > 0:
            raise ValueError(f"tau must be <= 0, got {self.tau}")
        if self.budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {self.budget_ms}")


def reward(quality: float, latency_ms: float, cfg: RewardConfig) -> float:
    if latency_ms <= 0:
        raise ValueError(f"latency must be positive, got {latency_ms}")
    return quality + cfg.tau * abs(latency_ms / cfg.budget_ms - 1.0)


@dataclass
class AdamState:
    """Adam moments for the policy logits; update direction is ascent.

    Defaults: lr 5e-3, betas (0, 0.999), epsilon 1e-8. The moments ``m`` and
    ``v`` have the shape of the logits; :meth:`for_policy` allocates them.
    """

    lr: float = 5e-3
    beta1: float = 0.0
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_policy(cls, policy: CategoricalPolicy, **hyper) -> "AdamState":
        zeros = np.zeros_like(policy.logits)
        return cls(m=zeros, v=zeros, **hyper)

    def apply(self, logits: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """One ascent step; returns new logits, replaces the moments.

        Padded slots have zero gradient and moments, so they stay ``-inf``.
        """
        self.step += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads * grads
        m_hat = self.m / (1.0 - self.beta1 ** self.step)
        v_hat = self.v / (1.0 - self.beta2 ** self.step)
        return logits + self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


@dataclass
class BaselineState:
    """Reward EMA; initialized from the first batch's mean reward."""

    decay: float = 0.9
    value: float | None = None

    def __post_init__(self):
        if not 0 <= self.decay < 1:
            raise ValueError(f"decay must be in [0, 1), got {self.decay}")


def sample(
    policy: CategoricalPolicy, rng: np.random.Generator
) -> tuple[DecisionVector, float]:
    """Independent categorical draw per decision; returns (vector, logprob).

    One uniform per decision, drawn in decision order by ``rng.random(n)``:
    the same stream as one ``rng.random()`` call per decision.
    """
    logp = log_softmax(policy)
    cdf = np.cumsum(np.exp(logp), axis=1)
    target = rng.random(len(cdf)) * cdf[:, -1]
    # inverse CDF; the clamp keeps a draw that rounds up to the total on a real slot
    idx = np.minimum((cdf <= target[:, None]).sum(axis=1), policy.mask.sum(axis=1) - 1)
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
    Mutates ``adam`` and ``baseline``; returns the updated policy.
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
    new_logits = adam.apply(policy.logits, grads)
    baseline.value = baseline.decay * baseline.value + (1.0 - baseline.decay) * mean_reward
    return CategoricalPolicy(new_logits)


def most_likely(policy: CategoricalPolicy) -> DecisionVector:
    """Argmax per decision; ties break to the lowest index."""
    return tuple(np.argmax(policy.logits, axis=1).tolist())


def entropy(policy: CategoricalPolicy) -> float:
    """Sum of per-decision Shannon entropies, in nats; padded slots add 0."""
    logp = log_softmax(policy)
    return float(-np.sum(np.exp(logp) * np.where(policy.mask, logp, 0.0)))
