"""The latency model's ridge fit as augmented normal equations, kept as a test oracle.

This is ``hwnas.cost.fit`` as it was before it centered the data and solved
through the smaller Gram matrix: the intercept is one more column of ones,
left out of the penalty, and the ``(buckets + 1)``-square normal matrix is
solved directly. ``fit`` must match it in weights, intercept and predictions
to the tolerances its tests state (the two solve differently conditioned
systems, so they agree only up to rounding).
"""

from __future__ import annotations

import numpy as np

from hwnas.analysis import net_feature_counts


def feature_matrix(records, buckets) -> tuple[np.ndarray, np.ndarray]:
    index = {b: i for i, b in enumerate(buckets)}
    x = np.zeros((len(records), len(buckets)))
    for row, record in enumerate(records):
        for bucket, count in net_feature_counts(record.net).items():
            x[row, index[bucket]] = count
    return x, np.array([r.latency_ms for r in records])


def fit(records, buckets, ridge_lambda: float) -> tuple[np.ndarray, float]:
    """(weights, intercept) minimizing squared error + lambda * |weights|^2."""
    return solve(*feature_matrix(records, buckets), ridge_lambda)


def solve(x: np.ndarray, y: np.ndarray, ridge_lambda: float) -> tuple[np.ndarray, float]:
    """:func:`fit` on a given ``records x buckets`` count matrix."""
    d = x.shape[1]
    xa = np.hstack([x, np.ones((len(y), 1))])
    normal = xa.T @ xa
    normal[:d, :d] += ridge_lambda * np.eye(d)
    beta = np.linalg.solve(normal, xa.T @ y)
    return beta[:d], float(beta[d])
