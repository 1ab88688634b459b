"""Categorical policy, latency-penalized reward and REINFORCE with Adam.

The policy holds the logits of every decision in one ``(decisions x max_choices)``
array: row ``d`` holds decision ``d``'s logits followed by ``-inf`` padding, so padded
slots get probability exactly 0 and sampling, the gradient, Adam and entropy are each a
few numpy calls over the whole array. The update ascends the score-function gradient of
the advantage-weighted log-probability, with an exponential moving average of the
reward as baseline and Adam on the logits. The gradient is built in place in a copy of
its first sample's one-hot rows, and Adam's second moment in place too. A sample is its
decision vector alone; the update pairs it with its reward. One softmax pass per policy
writes its ``probs``, ``logp`` and ``exp_logp`` fields straight into the policy's
``__dict__`` for the gradient, sampling and entropy; the policy carries the index arrays
they gather with and the buffer entropy fills. Logits are validated when built; an
update keeps the padding and its pass checks rows stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .space import DecisionVector, SpaceSpec

# Sample outcome fed to the update: (decision vector, reward). The gradient
# reads probabilities from the current policy's softmax fields.
SampleOutcome = tuple[DecisionVector, float]

# TuNAS's optimizer and baseline settings. Adam runs with beta1 = 0, so its
# first moment is the gradient itself and only the second moment is kept.
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BASELINE_DECAY = 0.9
MAX_REWARD = 1e150  # keeps Adam's squared gradients, up to (2e150)^2, and v / (1 - beta2^t) finite


class LatencyError(ValueError):
    """A latency or budget at or below zero: a fitted model may price one, a device never."""


@dataclass(frozen=True)
class CategoricalPolicy:
    """Padded logits, one row per decision; probabilities are softmax per row.

    Each row holds at least one finite logit followed by ``-inf`` padding. ``mask`` marks the
    real slots and ``last`` each row's last one; ``rows`` holds each slot's decision index and
    ``onehot`` an identity row per choice. ``probs``, ``logp`` and ``exp_logp`` hold the softmax
    pass's outputs, and ``terms`` is :func:`entropy`'s buffer, shared by later updates.
    """

    logits: np.ndarray
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    last: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    onehot: np.ndarray = field(init=False, repr=False, compare=False)
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    logp: np.ndarray = field(init=False, repr=False, compare=False)
    exp_logp: np.ndarray = field(init=False, repr=False, compare=False)
    terms: np.ndarray = field(init=False, repr=False, compare=False)

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
        onehot = np.eye(logits.shape[1])
        self.__dict__.update(mask=mask, last=onehot[mask.sum(axis=1) - 1] == 1,
                             rows=np.indices(logits.shape)[0], onehot=onehot,
                             terms=np.zeros(logits.shape))
        _softmax_pass(self)

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
        policy.__dict__.update(like.__dict__, logits=logits)
        return _softmax_pass(policy)


def _softmax_pass(policy: CategoricalPolicy) -> CategoricalPolicy:
    """The policy's one softmax pass, written into its ``__dict__``: ``probs`` (exp / row
    sum), ``logp`` (log-softmax, ``-inf`` in padded slots) and ``exp_logp`` (its exp).

    The gradient reads ``probs``, sampling's CDF and entropy ``exp_logp``; the two differ in
    the last bit. The row max is read at the argmax (cheaper than a max reduction); a row whose
    max is not finite raises. The max and the row sums are spread to every slot by ``rows``, as
    broadcasting a column costs about as much as the op it feeds. numpy sums a vector
    sequentially below 8 elements and pairwise from 8, so a plain sum over a padded row would
    add in another order than a sum over the decision's own choices; the masked sum adds each
    row's real slots as such a vector would.
    """
    logits, fields = policy.logits, policy.__dict__
    rowmax = logits[policy.rows, logits.argmax(axis=1, keepdims=True)]
    if not all(map(math.isfinite, rowmax[:, 0].tolist())):  # argmin: the first that fails
        raise ValueError(f"decision {np.isfinite(rowmax[:, 0]).argmin()}: logits must be finite")
    shifted = logits - rowmax
    exp = fields["probs"] = np.exp(shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True, where=policy.mask).take(policy.rows)
    exp /= total
    logp = fields["logp"] = np.subtract(shifted, np.log(total, out=total), out=shifted)
    fields["exp_logp"] = np.exp(logp)
    return policy


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
        raise LatencyError(f"latency must be positive, got {latency_ms}")
    return quality + cfg.tau * abs(latency_ms / cfg.budget_ms - 1.0)


@dataclass
class AdamState:
    """Adam state for the policy logits; update direction is ascent.

    Betas (0, :data:`ADAM_BETA2`), epsilon :data:`ADAM_EPSILON`, lr 5e-3 by
    default. The second moment ``v`` has the shape of the logits;
    :meth:`for_policy` allocates it and each step updates it in place.
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
        """One ascent step; returns new logits, updates the second moment in place.

        Padded slots have zero gradient and moment, so they stay ``-inf``. One
        scratch buffer serves each term, computed in the order of the plain formula.
        """
        self.step += 1
        scratch = (1.0 - ADAM_BETA2) * grads
        scratch *= grads
        self.v *= ADAM_BETA2
        self.v += scratch
        np.sqrt(np.divide(self.v, 1.0 - ADAM_BETA2 ** self.step, out=scratch), out=scratch)
        scratch += ADAM_EPSILON
        return logits + np.divide(self.lr * grads, scratch, out=scratch)


@dataclass
class BaselineState:
    """Reward EMA at :data:`BASELINE_DECAY`; initialized from the first batch's mean."""

    value: float | None = None


def sample(policy: CategoricalPolicy, rng: np.random.Generator) -> DecisionVector:
    """Independent categorical draw per decision.

    One uniform per decision, drawn in decision order by ``rng.random((n, 1))``:
    the same stream as one ``rng.random()`` call per decision.
    """
    cdf = np.add.accumulate(policy.exp_logp, axis=1)
    target = rng.random((len(cdf), 1)) * cdf[:, -1:]
    # inverse CDF, clamped to the last real slot for a draw that rounds up to the total
    return tuple(((cdf > target) | policy.last).argmax(axis=1).tolist())


def reinforce_gradient(policy: CategoricalPolicy, batch: Sequence[SampleOutcome],
                       baseline_value: float) -> np.ndarray:
    """Score-function gradient of the mean advantage-weighted log-probability.

    Per decision, d log p(chosen) / d logits = onehot(chosen) - probs;
    padded slots get 0. The sum starts as the first sample's term, built in
    the copy ``take`` returns (unlike ``0 + term`` it keeps a zero's sign,
    which moves no logit but a ``-0.0``), adds later samples in batch order
    and is divided only for a batch of several.
    """
    dv, rew = batch[0]
    grads = policy.onehot.take(dv, axis=0)
    grads -= policy.probs
    grads *= rew - baseline_value
    if len(batch) > 1:
        for dv, rew in batch[1:]:
            grads += (policy.onehot.take(dv, axis=0) - policy.probs) * (rew - baseline_value)
        grads /= len(batch)
    return grads


def reinforce_step(policy: CategoricalPolicy, batch: Sequence[SampleOutcome],
                   baseline: BaselineState, adam: AdamState) -> CategoricalPolicy:
    """One policy-gradient update.

    The advantage uses the pre-update baseline (initialized to the first
    batch's mean reward); the baseline EMA advances after the gradient.
    Mutates ``adam`` and ``baseline``; returns the updated policy, or raises
    ``ValueError`` if a reward is not finite or exceeds :data:`MAX_REWARD` in
    magnitude, or if a row of the updated logits is not finite.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    mean_reward = 0.0
    for _, rew in batch:  # in order: sum() of floats is compensated from Python 3.12 on
        if not abs(rew) <= MAX_REWARD:  # True for nan too
            raise ValueError(f"non-finite or too large reward in batch (|reward| must be <= "
                             f"{MAX_REWARD:g}, else Adam's second moment overflows): "
                             f"{[r for _, r in batch]}")
        mean_reward += rew
    mean_reward /= len(batch)
    if baseline.value is None:
        baseline.value = mean_reward
    grads = reinforce_gradient(policy, batch, baseline.value)
    updated = CategoricalPolicy._trusted(adam.apply(policy.logits, grads), policy)
    baseline.value = BASELINE_DECAY * baseline.value + (1.0 - BASELINE_DECAY) * mean_reward
    return updated


def most_likely(policy: CategoricalPolicy) -> DecisionVector:
    """Argmax per decision; ties break to the lowest index."""
    return tuple(policy.logits.argmax(axis=1).tolist())


def entropy(policy: CategoricalPolicy) -> float:
    """Sum of per-decision Shannon entropies, in nats; padded slots add 0.

    Raises ``ValueError`` when the sum is not finite: a row's logits then
    differ by more than the largest float, so a real slot's log-probability
    is ``-inf``, as after a step at a huge learning rate.
    """
    terms = np.multiply(policy.exp_logp, policy.logp, out=policy.terms, where=policy.mask)
    value = -float(np.add.reduce(terms, axis=None))
    if not math.isfinite(value):
        raise ValueError(f"entropy is {value}: a decision's logits differ by more than "
                         "the largest float (is lr too large?)")
    return value
