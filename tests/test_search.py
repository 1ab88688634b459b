"""Search drivers: reproducibility, exhaustive baselines, ablations."""

import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from hwnas.analysis import network_cost, space_buckets, space_table
from hwnas.arch import BUILTIN_LAYOUTS, functional_signature, iter_layers, toy2_layout
from hwnas.controller import RewardConfig, reward
from hwnas.cost import BUILTIN_DEVICES, LatencyModel, fit, generate_benchmarks, simulate_latency
from hwnas.search import (
    AblationRow,
    CapacityOracle,
    LinearFeatureOracle,
    SearchConfig,
    SearchLog,
    StepRecord,
    _Evaluator,
    _regular_fractions,
    ablation_report,
    arch_hash,
    exhaustive_best,
    median_madds,
    pareto_front,
    random_search_baseline,
    resolve_budget,
    run_search,
    write_log,
)
from hwnas.space import (
    ADAPTATIONS,
    VARIANTS,
    EnumerationCapError,
    build_space,
    decode,
    enumerate_space,
    random_sample,
    space_size,
)
import reference_log
from reference_oracles import capacity_score, linear_score, model_latency, simulator_latency
from strategies import make_layout, spaces

CPU = BUILTIN_DEVICES["cpu_sim"]
ACCEL = BUILTIN_DEVICES["accel_sim"]


@pytest.fixture
def toy_space():
    return build_space("ibn", "neutral", toy2_layout())


def reference_qualities(space, oracle) -> dict:
    """Every vector's noiseless quality, from its decoded network by ``reference_oracles``."""
    score = capacity_score if isinstance(oracle, CapacityOracle) else linear_score
    return {dv: score(oracle, decode(space, dv)) for dv in enumerate_space(space)}


def reference_latencies(space, source) -> dict:
    """Every vector's noiseless latency, from its decoded network by ``reference_oracles``."""
    latency = model_latency if isinstance(source, LatencyModel) else simulator_latency
    return {dv: latency(source, decode(space, dv)) for dv in enumerate_space(space)}


def reference_reward(quality, latency, rcfg):
    return quality + rcfg.tau * abs(latency / rcfg.budget_ms - 1.0)


def reference_rows(space, oracle, source, rcfg):
    """(dv, quality, latency, reward) of every vector, in enumeration order."""
    qualities, latencies = reference_qualities(space, oracle), reference_latencies(space, source)
    return [(dv, qualities[dv], lat, reference_reward(qualities[dv], lat, rcfg))
            for dv, lat in latencies.items()]


def first_best(rows):
    """The first row of the highest reward, its last field."""
    best = rows[0]
    for row in rows:
        if row[-1] > best[-1]:
            best = row
    return best


def test_search_config_validation():
    with pytest.raises(ValueError, match="steps"):
        SearchConfig(steps=0)
    with pytest.raises(ValueError, match="samples_per_step"):
        SearchConfig(steps=1, samples_per_step=0)


@settings(max_examples=40, deadline=None)
@given(lr=st.floats())
@example(lr=math.nan)
@example(lr=math.inf)
@example(lr=-math.inf)
@example(lr=0.0)
def test_search_config_needs_finite_positive_lr(lr):
    if math.isfinite(lr) and lr > 0:
        assert SearchConfig(steps=1, lr=lr).lr == lr
    else:
        with pytest.raises(ValueError, match="lr"):
            SearchConfig(steps=1, lr=lr)


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
    """Criterion-4 landscape, seed 0: the final architecture and reward and
    every step (entropy included) are pinned."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, seed=1)
    budget = resolve_budget(toy_space, CPU, seed=1)
    cfg = SearchConfig(steps=5000, tau=-2.0, budget_ms=budget, seed=0, lr=0.02)
    _, log = run_search(toy_space, oracle, CPU, cfg)
    assert log.final_dv == (1, 2, 1)
    assert log.final_reward == 0.8259119835933514
    digest = hashlib.sha256(repr(log.steps).encode()).hexdigest()
    assert digest == "e5c7439081e134104d244225281331a081e190c56b168301ed9e71c1141bad5d"


def test_pinned_trajectory_default_hash():
    """The search_default benchmark setting, seed 0: per-architecture noise on both sides."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    device = dataclasses.replace(ACCEL, noise_sigma=0.01)
    oracle = CapacityOracle(median_madds(space, 0), noise_sigma=0.01)
    budget = resolve_budget(space, device, 0)
    cfg = SearchConfig(steps=300, tau=-0.3, budget_ms=budget, seed=0, lr=5e-3)
    _, log = run_search(space, oracle, device, cfg)
    assert log.final_dv == (5, 4, 5, 2, 0, 7, 4, 10, 15, 7, 6, 9, 7,
                            3, 5, 7, 7, 4, 11, 4, 6, 6, 7, 6, 5, 2)
    assert log.final_reward == -0.06426783665271796
    digest = hashlib.sha256(repr(log.steps).encode()).hexdigest()
    assert digest == "bd129a63697b19018f07a62059ab992449d83c481e9f16c844081f00d7d07246"


def test_pinned_trajectory_default_heavy_simulator_noise():
    """As above at simulator noise 0.3: noise factors down to 0.08 occur and are
    used as drawn, so keeping latencies positive moves no positive result."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    device = dataclasses.replace(ACCEL, noise_sigma=0.3)
    oracle = CapacityOracle(median_madds(space, 0), noise_sigma=0.01)
    budget = resolve_budget(space, device, 0)
    cfg = SearchConfig(steps=300, tau=-0.3, budget_ms=budget, seed=1, lr=5e-3)
    _, log = run_search(space, oracle, device, cfg)
    assert log.final_reward == 0.4768512004048508
    digest = hashlib.sha256(repr(log.steps).encode()).hexdigest()
    assert digest == "172c1a9c77ca62cf17fdb9a76a15ad77101912055048d4fbf7cbfbed74615228"


def test_pinned_trajectory_default_batch_of_three():
    """Three samples per step on the nine-block layout: the gradient sums a
    batch and each 16-wide row reaches numpy's pairwise summation."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    device = dataclasses.replace(ACCEL, noise_sigma=0.01)
    oracle = CapacityOracle(median_madds(space, 0), noise_sigma=0.01)
    budget = resolve_budget(space, device, 0)
    cfg = SearchConfig(steps=300, samples_per_step=3, tau=-0.3, budget_ms=budget,
                       seed=2, lr=5e-3)
    _, log = run_search(space, oracle, device, cfg)
    assert log.final_dv == (5, 4, 5, 6, 10, 5, 6, 7, 7, 5, 6, 13, 7,
                            7, 6, 7, 3, 6, 3, 5, 5, 5, 7, 5, 7, 5)
    assert log.final_reward == -0.4887847019539239
    digest = hashlib.sha256(repr(log.steps).encode()).hexdigest()
    assert digest == "f9cb5d4e2c443146512da0a120cefe66680d1b40c5eb39ab0f1818e1586327ca"


@pytest.mark.parametrize("samples_per_step", [1, 3])
def test_controller_seams_are_called_per_sample_and_per_step(toy_space, monkeypatch,
                                                             samples_per_step):
    """The benchmark tracer patches these names in ``hwnas.search`` and reads its
    cache hit ratio from the ``sample`` count, so the loop must call each of
    them through the module, per sample or per step."""
    import hwnas.search as search_module

    calls = dict.fromkeys(("sample", "reward", "reinforce_step", "entropy", "most_likely"), 0)

    def counting(name):
        inner = getattr(search_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(search_module, name, counting(name))
    steps = 25
    cfg = SearchConfig(steps=steps, samples_per_step=samples_per_step, seed=0, budget_ms=1.0)
    run_search(toy_space, CapacityOracle(median_madds(toy_space, 0)), CPU, cfg)
    samples = steps * samples_per_step
    # reward also scores the final architecture once, noiselessly
    assert calls == {"sample": samples, "reward": samples + 1, "reinforce_step": steps,
                     "entropy": steps, "most_likely": 1}


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
    forward = _Evaluator(toy_space, oracle, noisy_cpu, 7)
    backward = _Evaluator(toy_space, oracle, noisy_cpu, 7)
    ahead = {dv: forward.evaluate(dv) for dv in dvs}
    behind = {dv: backward.evaluate(dv) for dv in reversed(dvs)}
    assert ahead == behind
    assert len({q for q, _ in ahead.values()}) == len(dvs)  # distinct noise per arch
    other_seed = _Evaluator(toy_space, oracle, noisy_cpu, 8)
    assert all(other_seed.evaluate(dv) != ahead[dv] for dv in dvs)


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
    assert log_a.final_latency_ms == pytest.approx(predict(model, network_cost(net_a)))
    assert log_a.final_reward == 0.5161117302688815
    digest = hashlib.sha256(repr(log_a.steps).encode()).hexdigest()
    assert digest == "484de9a355997b6ecaefcfb496908666123f7ba88431f3a2ec4a8d454274f9ff"
    # the model tracks the simulator, so budgets agree closely too
    assert resolve_budget(toy_space, model, 4) == pytest.approx(
        resolve_budget(toy_space, CPU, 4), rel=1e-3
    )


def test_search_aborts_with_step_index(toy_space):
    """The message names the step and the decision vector being scored."""

    class FailingOracle:
        descriptor = "failing"

        def __init__(self):
            self.calls = 0
            self.failed_on = None

        def evaluate(self, cost, rng):
            self.calls += 1
            if self.calls > 5:
                self.failed_on = cost
                raise RuntimeError("oracle backend down")
            return 0.5

    for samples_per_step in (1, 3):
        cfg = SearchConfig(steps=50, samples_per_step=samples_per_step, seed=0, budget_ms=1.0)
        oracle = FailingOracle()
        with pytest.raises(RuntimeError,
                           match=r"aborted at step \d+: oracle backend down") as err:
            run_search(toy_space, oracle, CPU, cfg)
        named = re.search(r" \(decision vector \(([\d, ]+)\)\)$", str(err.value))
        dv = tuple(int(i) for i in named.group(1).split(","))
        assert space_table(toy_space).price(dv) == oracle.failed_on


def test_search_with_huge_lr_aborts_naming_the_cause(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    cfg = SearchConfig(steps=5, seed=0, lr=1e308, budget_ms=1.0)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match=r"aborted at step \d+: entropy is nan: .*lr too large"):
        run_search(toy_space, oracle, CPU, cfg)


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
    rows = reference_rows(space, oracle, CPU, rcfg)
    assert best_reward == max(rew for *_, rew in rows)
    # lexicographic tie-break: the first enumerated maximizer wins
    first_argmax = next(dv for dv, *_, rew in rows if rew == best_reward)
    assert decode(space, first_argmax) == best_net


def test_drivers_keep_the_first_of_tied_rewards(toy_space):
    """Equal weights and no penalty tie every architecture at reward 0.5."""
    oracle = LinearFeatureOracle({b: 0.5 for b in space_buckets(toy_space)})
    rcfg = RewardConfig(tau=0.0, budget_ms=1.0)
    assert {rew for *_, rew in reference_rows(toy_space, oracle, CPU, rcfg)} == {0.5}
    net, rew = exhaustive_best(toy_space, oracle, CPU, rcfg)
    assert (net, rew) == (decode(toy_space, (0, 0, 0)), 0.5)
    first_draw = random_sample(toy_space, np.random.default_rng(3))
    net, rew = random_search_baseline(toy_space, oracle, CPU, rcfg, 50,
                                      np.random.default_rng(3))
    assert first_draw != (0, 0, 0)
    assert (net, rew) == (decode(toy_space, first_draw), 0.5)


def test_exhaustive_dominant_penalty_returns_budget_exact(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    target = decode(toy_space, (2, 1, 4))
    budget = simulate_latency(CPU, target)
    rcfg = RewardConfig(tau=-1e6, budget_ms=budget)
    best_net, _ = exhaustive_best(toy_space, oracle, CPU, rcfg)
    deviations = [abs(lat / budget - 1.0)
                  for _, _, lat, _ in reference_rows(toy_space, oracle, CPU, rcfg)]
    assert abs(simulate_latency(CPU, best_net) / budget - 1.0) == pytest.approx(
        min(deviations), abs=1e-12
    )


def test_reward_table_spot_checks(toy_space):
    """The noiseless score of every vector: the table's cost, and the reference's quality,
    latency and reward of the decoded network."""
    oracle = LinearFeatureOracle.random_for_space(toy_space, 2)
    budget = resolve_budget(toy_space, CPU, 2)
    rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
    rows = reference_rows(toy_space, oracle, CPU, rcfg)
    assert len(rows) == 112
    scorer = _Evaluator(toy_space, oracle, CPU)
    for dv, quality, latency, rew in rows:
        cost = space_table(toy_space).price(dv)
        assert scorer.score(dv, rcfg) == (cost, quality, latency, rew)
        assert latency == simulate_latency(CPU, decode(toy_space, dv))
        assert rew == reward(quality, latency, rcfg)


NOISY_ACCEL = dataclasses.replace(ACCEL, noise_sigma=0.05)


@settings(max_examples=40, deadline=None)
@given(space=spaces(small_menus=True, max_blocks=3), seed=st.integers(0, 2**16))
def test_noiseless_drivers_pick_what_the_per_network_reference_picks(space, seed):
    """The exhaustive and random-search bests and the default budget, priced from the
    table's latency column, against the reference scores of the decoded networks. With
    more than one block, first layers read ``c_in``-multiplier cells, which toy2 lacks."""
    assume(space_size(space) <= 1000)  # each vector is scored 6 times by reference, 8 exhaustively
    records = generate_benchmarks(space, NOISY_ACCEL, 40, np.random.default_rng(seed))
    model = fit(records, space, ridge_lambda=1e-3)
    oracles = (CapacityOracle(median_madds(space, seed)),
               LinearFeatureOracle.random_for_space(space, seed))
    qualities = [reference_qualities(space, oracle) for oracle in oracles]
    for source in (CPU, ACCEL, NOISY_ACCEL, model):
        latencies = reference_latencies(space, source)
        assume(min(latencies.values()) > 0)  # a fitted model may predict below zero
        rng = np.random.default_rng([seed, 0xB0])  # the stream resolve_budget draws from
        budget = float(np.median([latencies[random_sample(space, rng)] for _ in range(16)]))
        assert resolve_budget(space, source, seed, samples=16) == budget
        rcfg = RewardConfig(tau=-0.3, budget_ms=budget)
        rng = np.random.default_rng(seed)
        draws = [random_sample(space, rng) for _ in range(len(latencies) // 4 + 1)]
        for oracle, quality in zip(oracles, qualities):
            def best(vectors):
                rows = [(dv, reference_reward(quality[dv], latencies[dv], rcfg))
                        for dv in vectors]
                dv, rew = first_best(rows)
                return decode(space, dv), rew

            assert exhaustive_best(space, oracle, source, rcfg) == best(latencies)
            assert random_search_baseline(space, oracle, source, rcfg, len(draws),
                                          np.random.default_rng(seed)) == best(draws)


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
    all_ibn = space_table(toy_space).price((0, 0, 3))
    assert _regular_fractions(all_ibn.ops) == (0.0, 0.0)
    big = build_space("ibn_fused", "neutral", toy2_layout())
    mixed = space_table(big).price((4, 0, 3))  # fused early, ibn late
    assert mixed.ops == ("fused", "ibn")
    assert _regular_fractions(mixed.ops) == (0.5, 1.0)
    # the early half of an odd count is its first ceil(n/2) layers
    assert _regular_fractions(("tucker", "ibn", "ibn")) == (1 / 3, 0.5)


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


@pytest.mark.parametrize("adaptation", ADAPTATIONS)
def test_ablation_rows_match_the_decoded_best_networks(adaptation):
    """Each row equals the exhaustive best's network priced and simulated again."""
    layout = toy2_layout()
    spaces = [(v, build_space(v, adaptation, layout)) for v in VARIANTS]
    rows = ablation_report(spaces, [CPU, ACCEL], tau=-0.3, seed=5)
    biggest = spaces[-1][1]
    oracle = CapacityOracle(scale_madds=median_madds(biggest, 5))
    expected = []
    for device in (CPU, ACCEL):
        rcfg = RewardConfig(tau=-0.3, budget_ms=resolve_budget(biggest, device, 5))
        for name, space in spaces:
            net, rew = exhaustive_best(space, oracle, device, rcfg)
            cost = network_cost(net)
            ops = [layer.kind.op for _, _, layer in iter_layers(net)]
            expected.append(AblationRow(name, device.name, rew, simulate_latency(device, net),
                                        cost.total_madds, cost.total_params,
                                        *_regular_fractions(ops)))
    assert rows == expected


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = FINITE | FINITE.map(np.float64)  # oracles may return numpy floats


@st.composite
def search_logs(draw) -> SearchLog:
    vectors = st.lists(st.integers(0, 2**70), max_size=30).map(tuple)
    steps = draw(st.lists(st.builds(StepRecord, st.integers(0, 10**6), vectors, *[NUMBERS] * 5),
                          max_size=8))
    return SearchLog(draw(st.integers(0, 2**32)), draw(FINITE), draw(FINITE), "capacity",
                     "simulator:accel_sim", tuple(steps), draw(vectors),
                     *[draw(FINITE) for _ in range(3)])


@settings(max_examples=300, deadline=None)
@given(log=search_logs())
def test_write_log_writes_what_the_dict_writer_wrote(log):
    """Every line, step records included, byte for byte as json.dumps of the record's dict."""
    with tempfile.TemporaryDirectory() as tmp:
        write_log(log, Path(tmp) / "log.ndjson", meta={"tool": "test"})
        reference_log.write_log(log, Path(tmp) / "reference.ndjson", meta={"tool": "test"})
        assert (Path(tmp) / "log.ndjson").read_bytes() == (
            Path(tmp) / "reference.ndjson").read_bytes()


def test_capacity_oracle_properties(toy_space):
    oracle = CapacityOracle(scale_madds=median_madds(toy_space, 0))
    rng = np.random.default_rng(0)
    small = space_table(toy_space).price((0, 0, 0))
    large = space_table(toy_space).price((3, 3, 6))
    assert 0.0 <= oracle.evaluate(small, rng) <= 1.0
    assert oracle.evaluate(large, None) > oracle.evaluate(small, None)


def test_linear_oracle_in_range(toy_space):
    oracle = LinearFeatureOracle.random_for_space(toy_space, 7, noise_sigma=0.3)
    rng = np.random.default_rng(1)
    for dv in list(enumerate_space(toy_space))[:30]:
        q = oracle.evaluate(space_table(toy_space).price(dv), rng)
        assert 0.0 <= q <= 1.0
