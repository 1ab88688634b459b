"""Policy sampling, reward, REINFORCE update and Adam."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_controller as ref
from hwnas.controller import (
    AdamState,
    BaselineState,
    CategoricalPolicy,
    RewardConfig,
    entropy,
    log_softmax,
    logprob_of,
    most_likely,
    reinforce_gradient,
    reinforce_objective,
    reinforce_step,
    reward,
    sample,
    softmax,
)


def policy_of(*logit_rows):
    return CategoricalPolicy.from_rows(logit_rows)


def test_sample_uniform_logprob():
    policy = policy_of([0.0, 0.0, 0.0, 0.0])
    dv, logprob = sample(policy, np.random.default_rng(0))
    assert dv[0] in range(4)
    assert logprob == pytest.approx(math.log(0.25))


def test_sample_saturated_logits():
    policy = policy_of([10.0, -10.0, -10.0, -10.0])
    rng = np.random.default_rng(1)
    draws = [sample(policy, rng)[0][0] for _ in range(2000)]
    assert all(d == 0 for d in draws)


def test_sample_frequencies_match_softmax():
    logits = np.array([0.3, -0.5, 1.1, 0.0])
    policy = policy_of(logits)
    p = softmax(policy)[0]
    rng = np.random.default_rng(123)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample(policy, rng)[0][0]] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) <= 3 * sigma)


def test_logprob_of_matches_sample():
    policy = policy_of([0.2, -0.1, 0.4], [1.0, 0.0])
    dv, logprob = sample(policy, np.random.default_rng(5))
    assert logprob_of(policy, dv) == pytest.approx(logprob)


def test_reward_at_budget_is_quality():
    cfg = RewardConfig(tau=-0.3, budget_ms=5.0)
    assert reward(0.7, 5.0, cfg) == pytest.approx(0.7)


def test_reward_penalty_arithmetic():
    cfg = RewardConfig(tau=-1.0, budget_ms=10.0)
    assert reward(0.5, 12.0, cfg) == pytest.approx(0.3)


def test_reward_tau_zero_ignores_latency():
    cfg = RewardConfig(tau=0.0, budget_ms=1.0)
    assert reward(0.42, 50.0, cfg) == 0.42


def test_reward_config_validation():
    with pytest.raises(ValueError, match="tau"):
        RewardConfig(tau=0.1, budget_ms=1.0)
    with pytest.raises(ValueError, match="budget"):
        RewardConfig(tau=-1.0, budget_ms=0.0)
    with pytest.raises(ValueError, match="latency"):
        reward(0.5, 0.0, RewardConfig(tau=-1.0, budget_ms=1.0))


def test_adam_defaults():
    adam = AdamState()
    assert (adam.lr, adam.beta1, adam.beta2, adam.epsilon) == (5e-3, 0.0, 0.999, 1e-8)


def test_zero_update_when_reward_equals_baseline():
    policy = policy_of([0.1, -0.2, 0.3])
    adam = AdamState.for_policy(policy)
    baseline = BaselineState(value=0.5)
    updated = reinforce_step(policy, [((1,), -1.0, 0.5)], baseline, adam)
    assert np.array_equal(updated.logits, policy.logits)


def test_first_batch_initializes_baseline():
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy)
    baseline = BaselineState()
    reinforce_step(policy, [((0,), -0.7, 0.8)], baseline, adam)
    # init to the batch mean, then one EMA step toward the same mean
    assert baseline.value == pytest.approx(0.8)


def test_non_finite_reward_rejected():
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy)
    with pytest.raises(ValueError, match="non-finite"):
        reinforce_step(policy, [((0,), -0.7, float("nan"))], BaselineState(), adam)


def test_reinforce_monotone_trend():
    """Two arms, reward 1 for arm 0 and 0 for arm 1: p(arm 0) trends up."""
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy, lr=0.02)
    baseline = BaselineState()
    rng = np.random.default_rng(0)
    probs = [softmax(policy)[0, 0]]
    for _ in range(400):
        dv, logprob = sample(policy, rng)
        policy = reinforce_step(policy, [(dv, logprob, 1.0 if dv[0] == 0 else 0.0)],
                                baseline, adam)
        probs.append(softmax(policy)[0, 0])
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.95


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    policy = policy_of(rng.standard_normal(4), rng.standard_normal(7))
    batch = []
    for _ in range(6):
        dv, logprob = sample(policy, rng)
        batch.append((dv, logprob, float(rng.uniform(-1, 1))))
    baseline_value = 0.13
    analytic = reinforce_gradient(policy, batch, baseline_value)
    h = 1e-5
    worst = 0.0
    for d, i in zip(*np.nonzero(policy.mask)):
        def perturbed(delta):
            logits = policy.logits.copy()
            logits[d, i] += delta
            return reinforce_objective(CategoricalPolicy(logits), batch, baseline_value)

        fd = (perturbed(h) - perturbed(-h)) / (2 * h)
        worst = max(worst, abs(fd - analytic[d, i]))
    assert worst <= 1e-4
    assert np.all(analytic[~policy.mask] == 0)


def test_most_likely_and_ties():
    assert most_likely(policy_of([0.0, 2.0, 1.0])) == (1,)
    assert most_likely(policy_of([1.0, 1.0, 0.0])) == (0,)  # tie -> lowest index


def test_entropy_uniform():
    policy = policy_of([0.0] * 4, [0.0] * 7)
    assert entropy(policy) == pytest.approx(math.log(4) + math.log(7))


def test_entropy_saturated():
    policy = policy_of([40.0, 0.0, 0.0])
    assert entropy(policy) < 1e-10


def test_softmax_shift_invariance():
    logits = np.array([0.5, -1.0, 2.0])
    shifted = logits + 123.4
    assert np.allclose(softmax(policy_of(logits)), softmax(policy_of(shifted)))
    assert most_likely(policy_of(logits)) == most_likely(policy_of(shifted))
    a = sample(policy_of(logits), np.random.default_rng(9))
    b = sample(policy_of(shifted), np.random.default_rng(9))
    assert a[0] == b[0]


def test_update_direction_invariant_to_advantage_scale():
    """Positive rescaling of all advantages must not flip any update sign."""
    rng = np.random.default_rng(3)
    policy = policy_of(rng.standard_normal(4), rng.standard_normal(5))
    batch = []
    for _ in range(4):
        dv, logprob = sample(policy, rng)
        batch.append((dv, logprob, float(rng.uniform(0, 1))))
    baseline_value = 0.4

    def step_delta(scale):
        scaled = [(dv, lp, baseline_value + scale * (r - baseline_value))
                  for dv, lp, r in batch]
        updated = reinforce_step(policy, scaled, BaselineState(value=baseline_value),
                                 AdamState.for_policy(policy))
        return updated.logits[policy.mask] - policy.logits[policy.mask]

    assert np.array_equal(np.sign(step_delta(1.0)), np.sign(step_delta(7.5)))


def test_policy_rejects_bad_logits():
    with pytest.raises(ValueError, match="finite"):
        policy_of([0.0, float("inf")])
    with pytest.raises(ValueError, match="finite"):
        policy_of([0.0, float("nan")])
    with pytest.raises(ValueError, match="decision 1"):
        CategoricalPolicy(np.array([[0.0, 1.0], [-np.inf, 0.0]]))  # padding must trail
    with pytest.raises(ValueError):
        CategoricalPolicy(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        CategoricalPolicy(np.zeros(3))


def test_log_softmax_normalized():
    policy = policy_of([3.0, -1.0, 0.5], [0.2])
    assert np.exp(log_softmax(policy)).sum(axis=1) == pytest.approx([1.0, 1.0])


def test_padded_slots_never_sampled_or_updated():
    policy = policy_of([0.0, 0.0], [0.0] * 5)
    adam = AdamState.for_policy(policy, lr=0.5)
    baseline = BaselineState()
    rng = np.random.default_rng(4)
    for _ in range(200):
        dv, logprob = sample(policy, rng)
        assert dv[0] in (0, 1)
        policy = reinforce_step(policy, [(dv, logprob, float(dv[0]))], baseline, adam)
    assert np.all(policy.logits[0, 2:] == -np.inf)
    assert np.all(softmax(policy)[0, 2:] == 0.0)
    assert most_likely(policy)[0] == 1


# ---------------------------------------------------------------------------
# Array policy against the per-decision loop reference (tests/reference_controller.py)
# ---------------------------------------------------------------------------

@st.composite
def ragged_rows(draw):
    """Logits rows of widths 1..17, so both of numpy's summation orders occur."""
    widths = draw(st.lists(st.integers(1, 17), min_size=1, max_size=30))
    return [np.array(draw(st.lists(st.floats(-50, 50), min_size=w, max_size=w)))
            for w in widths]


@settings(max_examples=150, deadline=None)
@given(
    rows=ragged_rows(),
    seed=st.integers(0, 2**32 - 1),
    rewards=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    baseline_value=st.floats(-10, 10),
    lr=st.sampled_from([5e-3, 0.02, 0.5]),
)
def test_array_policy_matches_loop_reference(rows, seed, rewards, baseline_value, lr):
    policy = CategoricalPolicy.from_rows(rows)
    mask = policy.mask

    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = []
    for rew in rewards:
        dv, logprob = sample(policy, rng)
        dv_ref, logprob_ref = ref.sample(rows, rng_ref)
        assert dv == dv_ref
        assert logprob == pytest.approx(logprob_ref, rel=1e-12, abs=1e-12)
        batch.append((dv, logprob, rew))
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    grads = reinforce_gradient(policy, batch, baseline_value)
    grads_ref = ref.reinforce_gradient(rows, batch, baseline_value)
    assert np.array_equal(grads[mask], np.concatenate(grads_ref))
    assert np.all(grads[~mask] == 0)

    adam = AdamState.for_policy(policy, lr=lr)
    m_ref = [np.zeros_like(row) for row in rows]
    v_ref = [np.zeros_like(row) for row in rows]
    logits, logits_ref = policy.logits, rows
    for step in (1, 2):
        logits = adam.apply(logits, grads)
        logits_ref = ref.adam_apply(logits_ref, grads_ref, m_ref, v_ref, step, lr=lr)
        assert np.array_equal(logits[mask], np.concatenate(logits_ref))
        assert np.all(logits[~mask] == -np.inf)

    assert most_likely(policy) == ref.most_likely(rows)
    assert abs(entropy(policy) - ref.entropy(rows)) <= 1e-12
