"""Policy sampling, reward, REINFORCE update and Adam."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import reference_controller as ref
from hwnas.controller import (
    ADAM_BETA2,
    ADAM_EPSILON,
    BASELINE_DECAY,
    AdamState,
    BaselineState,
    CategoricalPolicy,
    RewardConfig,
    entropy,
    most_likely,
    reinforce_gradient,
    reinforce_step,
    reward,
    sample,
)


def policy_of(*logit_rows):
    return CategoricalPolicy.from_rows(logit_rows)


def test_sample_uniform_logprob():
    policy = policy_of([0.0, 0.0, 0.0, 0.0])
    dv = sample(policy, np.random.default_rng(0))
    assert dv[0] in range(4)


def test_sample_saturated_logits():
    policy = policy_of([10.0, -10.0, -10.0, -10.0])
    rng = np.random.default_rng(1)
    draws = [sample(policy, rng)[0] for _ in range(2000)]
    assert all(d == 0 for d in draws)


def test_sample_frequencies_match_softmax():
    logits = np.array([0.3, -0.5, 1.1, 0.0])
    policy = policy_of(logits)
    p = policy.probs[0]
    rng = np.random.default_rng(123)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample(policy, rng)[0]] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) <= 3 * sigma)


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


@settings(max_examples=80, deadline=None)
@given(tau=st.floats(), budget=st.floats())
@example(tau=math.nan, budget=1.0)
@example(tau=-math.inf, budget=1.0)
@example(tau=-1.0, budget=math.nan)
@example(tau=-1.0, budget=math.inf)
def test_reward_config_needs_finite_nonpositive_tau_and_positive_budget(tau, budget):
    if math.isfinite(tau) and tau <= 0 and math.isfinite(budget) and budget > 0:
        assert RewardConfig(tau=tau, budget_ms=budget).tau == tau
    else:
        with pytest.raises(ValueError, match="tau|budget"):
            RewardConfig(tau=tau, budget_ms=budget)


def test_adam_defaults():
    assert AdamState().lr == 5e-3
    assert (ADAM_BETA2, ADAM_EPSILON, BASELINE_DECAY) == (0.999, 1e-8, 0.9)


def test_zero_update_when_reward_equals_baseline():
    policy = policy_of([0.1, -0.2, 0.3])
    adam = AdamState.for_policy(policy)
    baseline = BaselineState(value=0.5)
    updated = reinforce_step(policy, [((1,), 0.5)], baseline, adam)
    assert np.array_equal(updated.logits, policy.logits)


def test_first_batch_initializes_baseline():
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy)
    baseline = BaselineState()
    reinforce_step(policy, [((0,), 0.8)], baseline, adam)
    # init to the batch mean, then one EMA step toward the same mean
    assert baseline.value == pytest.approx(0.8)


def test_batch_mean_is_summed_in_order_on_every_python():
    """In order, 1e16 + 1.0 rounds back to 1e16, so the mean is 0.0; the
    compensated float sum() of Python 3.12 and later would give 1/3."""
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy)
    baseline = BaselineState()
    batch = [((0,), 1e16), ((1,), 1.0), ((0,), -1e16)]
    reinforce_step(policy, batch, baseline, adam)
    assert baseline.value == 0.0


def test_non_finite_reward_rejected():
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy)
    with pytest.raises(ValueError, match="non-finite"):
        reinforce_step(policy, [((0,), float("nan"))], BaselineState(), adam)


def test_reinforce_monotone_trend():
    """Two arms, reward 1 for arm 0 and 0 for arm 1: p(arm 0) trends up."""
    policy = policy_of([0.0, 0.0])
    adam = AdamState.for_policy(policy, lr=0.02)
    baseline = BaselineState()
    rng = np.random.default_rng(0)
    probs = [policy.probs[0, 0]]
    for _ in range(400):
        dv = sample(policy, rng)
        policy = reinforce_step(policy, [(dv, 1.0 if dv[0] == 0 else 0.0)], baseline, adam)
        probs.append(policy.probs[0, 0])
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.95


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    policy = policy_of(rng.standard_normal(4), rng.standard_normal(7))
    batch = []
    for _ in range(6):
        batch.append((sample(policy, rng), float(rng.uniform(-1, 1))))
    baseline_value = 0.13
    analytic = reinforce_gradient(policy, batch, baseline_value)
    h = 1e-5
    worst = 0.0
    for d, i in zip(*np.nonzero(policy.mask)):
        def perturbed(delta):
            logits = policy.logits.copy()
            logits[d, i] += delta
            return ref.objective(logits, batch, baseline_value)

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
    assert np.allclose(policy_of(logits).probs, policy_of(shifted).probs)
    assert most_likely(policy_of(logits)) == most_likely(policy_of(shifted))
    a = sample(policy_of(logits), np.random.default_rng(9))
    b = sample(policy_of(shifted), np.random.default_rng(9))
    assert a == b


def test_update_direction_invariant_to_advantage_scale():
    """Positive rescaling of all advantages must not flip any update sign."""
    rng = np.random.default_rng(3)
    policy = policy_of(rng.standard_normal(4), rng.standard_normal(5))
    batch = []
    for _ in range(4):
        batch.append((sample(policy, rng), float(rng.uniform(0, 1))))
    baseline_value = 0.4

    def step_delta(scale):
        scaled = [(dv, baseline_value + scale * (r - baseline_value)) for dv, r in batch]
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
    assert np.exp(policy.logp).sum(axis=1) == pytest.approx([1.0, 1.0])


def test_padded_slots_never_sampled_or_updated():
    policy = policy_of([0.0, 0.0], [0.0] * 5)
    adam = AdamState.for_policy(policy, lr=0.5)
    baseline = BaselineState()
    rng = np.random.default_rng(4)
    for _ in range(200):
        dv = sample(policy, rng)
        assert dv[0] in (0, 1)
        policy = reinforce_step(policy, [(dv, float(dv[0]))], baseline, adam)
    assert np.all(policy.logits[0, 2:] == -np.inf)
    assert np.all(policy.probs[0, 2:] == 0.0)
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
        dv = sample(policy, rng)
        assert dv == ref.sample(rows, rng_ref)
        batch.append((dv, rew))
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


@settings(max_examples=60, deadline=None)
@given(
    rows=ragged_rows(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(2, 6),
    samples_per_step=st.integers(1, 4),
    lr=st.sampled_from([5e-3, 0.02, 0.5]),
)
def test_array_trajectory_matches_loop_reference(rows, seed, steps, samples_per_step, lr):
    """Several sample-update steps: the updated policy's shared softmax pass
    serves its entropy and the next step's draws and gradient.

    Draws and logits are bit-identical to the loop reference; entropy is summed
    in another order there (and uses ``math.log``), so it agrees to 1e-12.
    """
    policy = CategoricalPolicy.from_rows(rows)
    mask = policy.mask
    adam, baseline = AdamState.for_policy(policy, lr=lr), BaselineState()
    m_ref = [np.zeros_like(row) for row in rows]
    v_ref = [np.zeros_like(row) for row in rows]
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rewards = np.random.default_rng([seed, 1]).uniform(-1, 1, (steps, samples_per_step))
    for step in range(1, steps + 1):
        batch, step_rewards = [], rewards[step - 1].tolist()
        for rew in step_rewards:
            dv = sample(policy, rng)
            assert dv == ref.sample(rows, rng_ref)
            batch.append((dv, rew))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        used = baseline.value
        if used is None:  # the first batch's mean, as reinforce_step computes it
            used = 0.0
            for rew in step_rewards:
                used += rew
            used /= len(step_rewards)
        policy = reinforce_step(policy, batch, baseline, adam)
        rows = ref.adam_apply(rows, ref.reinforce_gradient(rows, batch, used),
                              m_ref, v_ref, step, lr=lr)
        assert np.array_equal(policy.logits[mask], np.concatenate(rows))
        assert np.all(policy.logits[~mask] == -np.inf)
        assert np.array_equal(policy.mask, mask)
        assert abs(entropy(policy) - ref.entropy(rows)) <= 1e-12
        assert most_likely(policy) == ref.most_likely(rows)


@settings(max_examples=40, deadline=None)
@given(lr=st.floats())
@example(lr=math.nan)
@example(lr=math.inf)
@example(lr=-math.inf)
@example(lr=0.0)
def test_adam_needs_finite_positive_lr(lr):
    if math.isfinite(lr) and lr > 0:
        assert AdamState(lr=lr).lr == lr
    else:
        with pytest.raises(ValueError, match="lr"):
            AdamState(lr=lr)


@settings(max_examples=40, deadline=None)
@given(
    rows=ragged_rows(),
    seed=st.integers(0, 2**32 - 1),
    lr=st.sampled_from([math.inf, -math.inf, math.nan]),
)
def test_update_to_non_finite_logits_raises(rows, seed, lr):
    """An Adam step with a non-finite lr (set past the constructor's check)
    leaves a row without a finite max; the update's softmax pass rejects it."""
    policy = CategoricalPolicy.from_rows(rows)
    adam, baseline = AdamState.for_policy(policy), BaselineState(value=0.0)
    adam.lr = lr
    dv = sample(policy, np.random.default_rng(seed))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="logits must be finite"):
        reinforce_step(policy, [(dv, 1.0)], baseline, adam)
    assert baseline.value == 0.0  # the failed update did not move the baseline


def test_sample_clamps_to_the_carried_last_slot():
    """A draw that rounds up to the row total lands on each row's last real
    slot, which the policy carries with its mask and an update passes on."""

    class RoundsUp:  # u = 1.0: the extreme a rounded-up u * total reaches
        def random(self, n):
            return np.ones(n)

    policy = policy_of([0.0, 1.0, 2.0], [0.5], [1.0, 0.0, 0.0, 0.0, 0.0])
    assert [np.flatnonzero(row).tolist() for row in policy.last] == [[2], [0], [4]]
    assert sample(policy, RoundsUp()) == (2, 0, 4)
    updated = reinforce_step(policy, [((0, 0, 1), 1.0)], BaselineState(value=0.0),
                             AdamState.for_policy(policy))
    assert updated.last is policy.last
    assert sample(updated, RoundsUp()) == (2, 0, 4)


def test_huge_lr_overflow_is_named_by_entropy():
    """lr 1e308 is finite, but one step moves the logits to about +-1e308, so
    their spread overflows and a real slot's log-probability becomes -inf."""
    policy = policy_of([0.0, 0.0], [0.0, 0.0, 0.0])
    adam, baseline = AdamState.for_policy(policy, lr=1e308), BaselineState(value=0.0)
    with np.errstate(all="ignore"):
        updated = reinforce_step(policy, [((0, 1), 1.0)], baseline, adam)
        with pytest.raises(ValueError, match=r"entropy is nan: .*\(is lr too large\?\)"):
            entropy(updated)
