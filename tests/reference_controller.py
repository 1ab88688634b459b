"""Per-decision loop implementation of the controller, kept as a test oracle.

This is the controller as it was before the policy became one padded array:
one logits vector per decision and a Python loop over decisions in every
operation. The array-native functions in ``hwnas.controller`` must match it
bit for bit in sampling, the REINFORCE gradient and one Adam step, and to
1e-12 in entropy (whose sum runs in another order). :func:`objective` is the
surrogate whose gradient ``reinforce_gradient`` computes, for the
finite-difference checks.
"""

from __future__ import annotations

import math

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - math.log(np.exp(shifted).sum())


def sample(rows, rng):
    indices = []
    for logits in rows:
        cdf = np.cumsum(np.exp(log_softmax(logits)))
        idx = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")),
                  logits.size - 1)
        indices.append(idx)
    return tuple(indices)


def objective(logits, batch, baseline_value):
    """Mean advantage-weighted log-probability of ``(dv, reward)`` pairs.

    ``logits`` is a padded policy array; each row's ``-inf`` padding is dropped.
    """
    rows = [row[np.isfinite(row)] for row in logits]
    total = 0.0
    for dv, rew in batch:
        logprob = 0.0
        for row, idx in zip(rows, dv):
            logprob += float(log_softmax(row)[idx])
        total += (rew - baseline_value) * logprob
    return total / len(batch)


def reinforce_gradient(rows, batch, baseline_value):
    grads = [np.zeros_like(vec) for vec in rows]
    for dv, rew in batch:
        advantage = rew - baseline_value
        for d, idx in enumerate(dv):
            g = -softmax(rows[d])
            g[idx] += 1.0
            grads[d] += advantage * g
    return [g / len(batch) for g in grads]


def adam_apply(rows, grads, m, v, step, lr=5e-3, beta1=0.0, beta2=0.999, epsilon=1e-8):
    """One ascent step at Adam step ``step`` (1-based); updates ``m``, ``v`` in place."""
    out = []
    for i, (vec, grad) in enumerate(zip(rows, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * grad
        v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad
        m_hat = m[i] / (1.0 - beta1 ** step)
        v_hat = v[i] / (1.0 - beta2 ** step)
        out.append(vec + lr * m_hat / (np.sqrt(v_hat) + epsilon))
    return out


def most_likely(rows):
    return tuple(int(np.argmax(vec)) for vec in rows)


def entropy(rows) -> float:
    total = 0.0
    for vec in rows:
        logp = log_softmax(vec)
        total += float(-np.sum(np.exp(logp) * logp))
    return total
