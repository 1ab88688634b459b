"""Search drivers: reproducibility, exhaustive baselines, ablations."""

import dataclasses
import json

import numpy as np
import pytest

from hwnas.arch import BUILTIN_LAYOUTS, functional_signature, toy2_layout
from hwnas.controller import RewardConfig, reward
from hwnas.cost import BUILTIN_DEVICES, simulate_latency
from hwnas.search import (
    CapacityOracle,
    LinearFeatureOracle,
    SearchConfig,
    _Evaluator,
    ablation_report,
    arch_hash,
    exhaustive_best,
    median_madds,
    pareto_front,
    random_search_baseline,
    regular_conv_fractions,
    resolve_budget,
    reward_iter,
    run_search,
    write_log,
)
from hwnas.space import EnumerationCapError, build_space, decode, enumerate_space
from strategies import make_layout

CPU = BUILTIN_DEVICES["cpu_sim"]
ACCEL = BUILTIN_DEVICES["accel_sim"]


@pytest.fixture
def toy_space():
    return build_space("ibn", "neutral", toy2_layout())


def test_search_config_validation():
    with pytest.raises(ValueError, match="steps"):
        SearchConfig(steps=0)
    with pytest.raises(ValueError, match="samples_per_step"):
        SearchConfig(steps=1, samples_per_step=0)
    with pytest.raises(ValueError, match="noise_mode"):
        SearchConfig(steps=1, noise_mode="nope")


def test_single_step_search(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    net, log = run_search(toy_space, oracle, CPU, SearchConfig(steps=1, seed=0))
    assert len(log.steps) == 1
    assert log.final_reward == pytest.approx(
        reward(log.final_quality, log.final_latency_ms,
               RewardConfig(tau=log.tau, budget_ms=log.budget_ms))
    )


def test_search_reproducible(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 0, noise_sigma=0.02)
    cfg = SearchConfig(steps=40, seed=9)
    net_a, log_a = run_search(toy_space, oracle, CPU, cfg)
    net_b, log_b = run_search(toy_space, oracle, CPU, cfg)
    assert net_a == net_b
    assert log_a == log_b


def test_pinned_trajectory_toy2(toy_space):
    """Criterion-4 landscape, seed 0: the final architecture and reward are pinned."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, seed=1)
    budget = resolve_budget(toy_space, CPU, seed=1)
    cfg = SearchConfig(steps=5000, tau=-2.0, budget_ms=budget, seed=0, lr=0.02)
    _, log = run_search(toy_space, oracle, CPU, cfg)
    assert log.final_dv == (1, 2, 1)
    assert log.final_reward == 0.8259119835933514


def test_pinned_trajectory_default_iid():
    """Nine-block layout with per-evaluation noise: pins the controller alone."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    oracle = CapacityOracle(median_madds(space, 0), noise_sigma=0.01)
    cfg = SearchConfig(steps=300, seed=3, lr=0.05, noise_mode="iid")
    _, log = run_search(space, oracle, ACCEL, cfg)
    assert log.final_dv == (5, 0, 5, 6, 15, 10, 6, 15, 5, 10, 1, 7, 6,
                            3, 4, 5, 6, 6, 14, 10, 1, 6, 14, 2, 13, 0)
    assert log.final_reward == 0.7203041559157259


def test_hash_mode_repeats_noise_per_architecture(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 0, noise_sigma=0.05)
    cfg = SearchConfig(steps=200, seed=3)
    _, log = run_search(toy_space, oracle, CPU, cfg)
    by_dv = {}
    for rec in log.steps:
        if rec.dv in by_dv:
            assert rec.quality == by_dv[rec.dv]
        else:
            by_dv[rec.dv] = rec.quality
    assert len(by_dv) < len(log.steps)  # some architecture resampled


def test_hash_mode_noise_independent_of_evaluation_order(toy_space):
    """An architecture's noise depends on (seed, architecture) only."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, 0, noise_sigma=0.05)
    noisy_cpu = dataclasses.replace(CPU, noise_sigma=0.05)
    dvs = list(enumerate_space(toy_space))[:20]
    forward = _Evaluator(toy_space, oracle, noisy_cpu, 7, "hash")
    backward = _Evaluator(toy_space, oracle, noisy_cpu, 7, "hash")
    ahead = {dv: forward.evaluate(dv) for dv in dvs}
    behind = {dv: backward.evaluate(dv) for dv in reversed(dvs)}
    assert ahead == behind
    assert len({q for q, _ in ahead.values()}) == len(dvs)  # distinct noise per arch
    other_seed = _Evaluator(toy_space, oracle, noisy_cpu, 8, "hash")
    assert all(other_seed.evaluate(dv) != ahead[dv] for dv in dvs)


def test_iid_mode_draws_fresh_noise(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 0, noise_sigma=0.05)
    cfg = SearchConfig(steps=200, seed=3, noise_mode="iid")
    _, log = run_search(toy_space, oracle, CPU, cfg)
    qualities = {}
    fresh = False
    for rec in log.steps:
        if rec.dv in qualities and rec.quality != qualities[rec.dv]:
            fresh = True
            break
        qualities[rec.dv] = rec.quality
    assert fresh


def test_search_with_fitted_model_latency_source(toy_space):
    from hwnas.cost import fit, generate_benchmarks, predict

    records = generate_benchmarks(toy_space, CPU, 300, np.random.default_rng(0))
    model = fit(records, toy_space)
    oracle = LinearFeatureOracle.random_for_space(toy_space, 1)
    cfg = SearchConfig(steps=120, tau=-2.0, seed=4, lr=0.02)
    net_a, log_a = run_search(toy_space, oracle, model, cfg)
    net_b, log_b = run_search(toy_space, oracle, model, cfg)
    assert net_a == net_b and log_a == log_b
    assert log_a.latency_source.startswith("model:")
    assert log_a.final_latency_ms == pytest.approx(predict(model, net_a))
    # the model tracks the simulator, so budgets agree closely too
    assert resolve_budget(toy_space, model, 4) == pytest.approx(
        resolve_budget(toy_space, CPU, 4), rel=1e-3
    )


def test_search_aborts_with_step_index(toy_space):
    class FailingOracle:
        descriptor = "failing"

        def __init__(self):
            self.calls = 0

        def evaluate(self, net, rng):
            self.calls += 1
            if self.calls > 5:
                raise RuntimeError("oracle backend down")
            return 0.5

    cfg = SearchConfig(steps=50, seed=0, budget_ms=1.0)
    with pytest.raises(RuntimeError, match=r"aborted at step \d+: oracle backend down"):
        run_search(toy_space, FailingOracle(), CPU, cfg)


def test_arch_hash_stable(toy_space):
    assert arch_hash((0, 0, 0)) == arch_hash((0, 0, 0))
    assert arch_hash((0, 0, 0)) == arch_hash(tuple(np.zeros(3, dtype=np.int64)))
    assert arch_hash((0, 0, 0)) != arch_hash((1, 0, 0))
    assert arch_hash((1, 23)) != arch_hash((12, 3))
    digests = {arch_hash(dv) for dv in enumerate_space(toy_space)}
    assert len(digests) == 112
    assert all(0 <= h < 2**64 for h in digests)


def test_exhaustive_best_single_decision():
    layout = make_layout(32, 16, [(16, 1, 2)])
    space = build_space("ibn", "neutral", layout)
    oracle = LinearFeatureOracle.random_for_space(space, 1)
    budget = resolve_budget(space, CPU, 0)
    rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
    best_net, best_reward = exhaustive_best(space, oracle, CPU, rcfg)
    rewards = {
        dv: rew for dv, _, _, _, rew in reward_iter(space, oracle, CPU, rcfg)
    }
    assert best_reward == max(rewards.values())
    # lexicographic tie-break: the first enumerated maximizer wins
    first_argmax = next(dv for dv in enumerate_space(space) if rewards[dv] == best_reward)
    assert decode(space, first_argmax) == best_net


def test_exhaustive_dominant_penalty_returns_budget_exact(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    target = decode(toy_space, (2, 1, 4))
    budget = simulate_latency(CPU, target)
    rcfg = RewardConfig(tau=-1e6, budget_ms=budget)
    best_net, _ = exhaustive_best(toy_space, oracle, CPU, rcfg)
    deviations = [
        abs(lat / budget - 1.0)
        for _, _, _, lat, _ in reward_iter(toy_space, oracle, CPU, rcfg)
    ]
    assert abs(simulate_latency(CPU, best_net) / budget - 1.0) == pytest.approx(
        min(deviations), abs=1e-12
    )


def test_reward_table_spot_checks(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 2)
    budget = resolve_budget(toy_space, CPU, 2)
    rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
    rows = list(reward_iter(toy_space, oracle, CPU, rcfg))
    assert len(rows) == 112
    for dv, net, quality, latency, rew in rows[:: len(rows) // 5][:5]:
        assert net == decode(toy_space, dv)
        assert quality == oracle.evaluate(net, None)
        assert latency == simulate_latency(CPU, net)
        assert rew == pytest.approx(quality - 0.3 * abs(latency / budget - 1.0))


def test_exhaustive_cap(toy_space):
    oracle = CapacityOracle(scale_madds=1.0)
    rcfg = RewardConfig(tau=-0.3, budget_ms=1.0)
    with pytest.raises(EnumerationCapError):
        exhaustive_best(toy_space, oracle, CPU, rcfg, cap=10)


def test_random_search_baseline(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 4)
    budget = resolve_budget(toy_space, CPU, 4)
    rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
    net1, rew1 = random_search_baseline(toy_space, oracle, CPU, rcfg, 1,
                                        np.random.default_rng(0))
    assert rew1 <= exhaustive_best(toy_space, oracle, CPU, rcfg)[1]
    _, rew_many = random_search_baseline(toy_space, oracle, CPU, rcfg, 400,
                                         np.random.default_rng(0))
    assert rew_many == pytest.approx(exhaustive_best(toy_space, oracle, CPU, rcfg)[1])
    with pytest.raises(ValueError):
        random_search_baseline(toy_space, oracle, CPU, rcfg, 0, np.random.default_rng(0))


def test_controller_beats_random_baseline_median(toy_space):
    """Final controller reward at least matches the median best-of-n random search."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, 1)
    budget = resolve_budget(toy_space, CPU, 1)
    rcfg = RewardConfig(tau=-2.0, budget_ms=budget)
    controller_rewards = []
    random_rewards = []
    for seed in range(10):
        cfg = SearchConfig(steps=800, tau=-2.0, budget_ms=budget, seed=seed, lr=0.02)
        _, log = run_search(toy_space, oracle, CPU, cfg)
        controller_rewards.append(log.final_reward)
        _, rew = random_search_baseline(toy_space, oracle, CPU, rcfg, 800,
                                        np.random.default_rng([seed, 10]))
        random_rewards.append(rew)
    assert np.median(controller_rewards) >= np.median(random_rewards) - 1e-9


def test_controller_finds_exhaustive_argmax(toy_space):
    """Scaled-down controller optimality check (full version in acceptance)."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, 1)
    budget = resolve_budget(toy_space, CPU, 1)
    rcfg = RewardConfig(tau=-2.0, budget_ms=budget)
    best_net, _ = exhaustive_best(toy_space, oracle, CPU, rcfg)
    hits = 0
    for seed in range(3):
        cfg = SearchConfig(steps=1500, tau=-2.0, budget_ms=budget, seed=seed, lr=0.02)
        net, _ = run_search(toy_space, oracle, CPU, cfg)
        hits += functional_signature(net) == functional_signature(best_net)
    assert hits == 3


def test_subsumption_of_exhaustive_rewards():
    layout = toy2_layout()
    spaces = {v: build_space(v, "neutral", layout)
              for v in ("ibn", "ibn_fused", "ibn_fused_tucker")}
    big = spaces["ibn_fused_tucker"]
    for device in (CPU, ACCEL):
        budget = resolve_budget(big, device, 0)
        rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
        for oracle in (
            CapacityOracle(scale_madds=median_madds(big, 0)),
            LinearFeatureOracle.random_for_space(big, 0),
        ):
            rewards = {
                name: exhaustive_best(sp, oracle, device, rcfg)[1]
                for name, sp in spaces.items()
            }
            assert rewards["ibn_fused_tucker"] >= rewards["ibn_fused"] >= rewards["ibn"]


def test_regular_conv_fractions(toy_space):
    all_ibn = decode(toy_space, (0, 0, 3))
    assert regular_conv_fractions(all_ibn) == (0.0, 0.0)
    big = build_space("ibn_fused", "neutral", toy2_layout())
    mixed = decode(big, (4, 0, 3))  # fused early, ibn late
    assert regular_conv_fractions(mixed) == (0.5, 1.0)


def test_ablation_report_structure():
    layout = toy2_layout()
    spaces = [(v, build_space(v, "neutral", layout)) for v in ("ibn", "ibn_fused")]
    rows = ablation_report(spaces, [CPU, ACCEL], tau=-0.3, seed=0)
    assert len(rows) == 4
    assert {(r.space, r.device) for r in rows} == {
        ("ibn", "cpu_sim"), ("ibn_fused", "cpu_sim"),
        ("ibn", "accel_sim"), ("ibn_fused", "accel_sim"),
    }
    for row in rows:
        assert row.latency_ms > 0 and row.madds > 0 and row.params > 0
        assert 0.0 <= row.frac_regular_all <= 1.0
        assert 0.0 <= row.frac_regular_early <= 1.0


def test_ablation_requires_shared_layout():
    a = build_space("ibn", "neutral", toy2_layout())
    b = build_space("ibn", "neutral", make_layout(32, 16, [(16, 1, 2)]))
    with pytest.raises(ValueError, match="share one layout"):
        ablation_report([("a", a), ("b", b)], [CPU])


def test_pareto_front():
    points = [(1.0, 0.2), (2.0, 0.5), (3.0, 0.4), (1.5, 0.1), (4.0, 0.9)]
    front = pareto_front(points)
    assert front == [(1.0, 0.2), (2.0, 0.5), (4.0, 0.9)]


def test_write_log(tmp_path, toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    _, log = run_search(toy_space, oracle, CPU, SearchConfig(steps=5, seed=0))
    path = tmp_path / "search.ndjson"
    write_log(log, path, meta={"tool": "test"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "meta" and lines[0]["tool"] == "test"
    assert [l["type"] for l in lines[1:-1]] == ["step"] * 5
    assert lines[-1]["type"] == "final"
    assert lines[-1]["reward"] == pytest.approx(log.final_reward)


def test_capacity_oracle_properties(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0),
                            early_regular_bonus=0.1)
    rng = np.random.default_rng(0)
    small = decode(toy_space, (0, 0, 0))
    large = decode(toy_space, (3, 3, 6))
    assert 0.0 <= oracle.evaluate(small, rng) <= 1.0
    assert oracle.evaluate(large, None) > oracle.evaluate(small, None)


def test_linear_oracle_in_range(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 7, noise_sigma=0.3)
    rng = np.random.default_rng(1)
    for dv in list(enumerate_space(toy_space))[:30]:
        q = oracle.evaluate(decode(toy_space, dv), rng)
        assert 0.0 <= q <= 1.0
