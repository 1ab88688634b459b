"""Acceptance suite: one test per criterion, each printing its pass line.

Experiment configuration is pinned here: toy layout ``toy2`` (one block, two
searchable layers, 40-wide stem), built-in device profiles, seeds as stated
in each test. Every tolerance is asserted at the stated value, and wall-clock
budgets are enforced.
"""

import dataclasses
import time

import numpy as np
import pytest

from hwnas.analysis import network_cost
from hwnas.arch import derive_shapes, functional_signature, iter_layers, toy2_layout
from hwnas.controller import (
    CategoricalPolicy,
    RewardConfig,
    reinforce_gradient,
    sample,
)
from hwnas.cost import (
    BUILTIN_DEVICES,
    fit,
    generate_benchmarks,
    r2,
    simulate_groups,
)
from hwnas.search import (
    LinearFeatureOracle,
    SearchConfig,
    ablation_report,
    exhaustive_best,
    resolve_budget,
    run_search,
)
from hwnas.space import build_space, decode, random_sample
import reference_controller as ref
from bruteforce import brute_layer, brute_network
from strategies import make_layout

CPU = BUILTIN_DEVICES["cpu_sim"]
ACCEL = BUILTIN_DEVICES["accel_sim"]


def report(criterion: str, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_cost_model_fidelity():
    """Fit on 2,000 noisy records; held-out r^2 >= 0.99 in under a minute."""
    start = time.time()
    space = build_space("ibn_fused_tucker", "neutral", toy2_layout())
    device = dataclasses.replace(ACCEL, noise_sigma=0.01)
    train = generate_benchmarks(space, device, 2000, np.random.default_rng(1))
    holdout = generate_benchmarks(space, device, 500, np.random.default_rng(2))
    model = fit(train, space)
    holdout_r2 = r2(model, holdout)
    elapsed = time.time() - start
    assert holdout_r2 >= 0.99
    assert elapsed < 60.0
    report("1 cost-model fidelity", elapsed, f"holdout r2 = {holdout_r2:.5f}")


def test_criterion_2_analyzer_oracle_equivalence():
    """MAdds/params of 100 random architectures match brute force exactly."""
    start = time.time()
    layouts = [
        toy2_layout(),
        make_layout(32, 24, [(16, 2, 2), (48, 1, 2)]),
        make_layout(31, 16, [(24, 1, 1)]),
    ]
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        for layout in layouts:
            for variant, adaptation in (
                ("ibn_fused_tucker", "neutral"),
                ("ibn_fused_tucker", "cpu"),
                ("ibn_fused", "dsp"),
            ):
                space = build_space(variant, adaptation, layout)
                net = decode(space, random_sample(space, rng))
                cost = network_cost(net)
                assert (cost.total_madds, cost.total_params) == brute_network(net)
                # per-layer agreement, not just totals
                sizes = derive_shapes(net)  # layer i reads a sizes[i] input
                for (_, _, layer), size, priced in zip(
                    iter_layers(net), sizes, cost.layers[1:]
                ):
                    assert (priced.madds, priced.params) == brute_layer(layer, size, size)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("2 analyzer oracle equivalence", elapsed, f"{checked} architectures, exact")


def test_criterion_3_depthwise_regular_calibration():
    """A regular conv with 7x the MAdds runs 3x (+-1%) faster on accel_sim."""
    start = time.time()
    madds = 10**6
    depthwise = simulate_groups(ACCEL, ((("depthwise_conv", madds),),))
    regular = simulate_groups(ACCEL, ((("regular_conv", 7 * madds),),))
    ratio = depthwise / regular
    elapsed = time.time() - start
    assert abs(ratio - 3.0) <= 0.03
    assert elapsed < 1.0
    report("3 depthwise/regular calibration", elapsed, f"speedup ratio = {ratio:.4f}")


def test_criterion_4_controller_optimality():
    """Controller recovers the exhaustive argmax in >= 9/10 seeds at 5k steps.

    Fixed noiseless landscape: 112-architecture space, quality from a seeded
    per-bucket linear oracle, budget at the median sampled latency, tau -2.
    """
    start = time.time()
    space = build_space("ibn", "neutral", toy2_layout())
    oracle = LinearFeatureOracle.random_for_space(space, seed=1)
    budget = resolve_budget(space, CPU, seed=1)
    reward_cfg = RewardConfig(tau=-2.0, budget_ms=budget)
    best_net, best_reward = exhaustive_best(space, oracle, CPU, reward_cfg)

    matches = 0
    budget_hits = 0
    for seed in range(10):
        cfg = SearchConfig(steps=5000, tau=-2.0, budget_ms=budget, seed=seed, lr=0.02)
        net, log = run_search(space, oracle, CPU, cfg)
        if functional_signature(net) == functional_signature(best_net):
            matches += 1
        if abs(log.final_latency_ms / budget - 1.0) <= 0.10:
            budget_hits += 1
    elapsed = time.time() - start
    assert matches >= 9
    assert budget_hits >= 9
    assert elapsed < 300.0
    report(
        "4 controller optimality",
        elapsed,
        f"{matches}/10 argmax matches, {budget_hits}/10 within 10% of budget "
        f"(best reward {best_reward:.4f})",
    )


def test_criterion_5_reinforce_gradient_check():
    """Analytic REINFORCE gradient vs central differences, <= 1e-4."""
    start = time.time()
    rng = np.random.default_rng(7)
    policy = CategoricalPolicy.from_rows(
        [rng.standard_normal(4), rng.standard_normal(7), rng.standard_normal(3)]
    )
    batch = []
    for _ in range(8):
        batch.append((sample(policy, rng), float(rng.uniform(-1, 1))))
    baseline_value = 0.2
    analytic = reinforce_gradient(policy, batch, baseline_value)
    h = 1e-5
    worst = 0.0
    for d, i in zip(*np.nonzero(policy.mask)):  # real slots only
        def objective_at(delta):
            logits = policy.logits.copy()
            logits[d, i] += delta
            return ref.objective(logits, batch, baseline_value)

        fd = (objective_at(h) - objective_at(-h)) / (2 * h)
        worst = max(worst, abs(fd - analytic[d, i]))
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 1.0
    report("5 REINFORCE gradient check", elapsed, f"max abs error = {worst:.2e}")


def test_criterion_6_tucker_decomposition():
    """Full-rank exactness, sequence equivalence, rank monotonicity."""
    from hwnas.tucker import apply_conv, apply_sequence, rel_error, tucker2

    start = time.time()
    rng = np.random.default_rng(3)
    kernel = rng.standard_normal((3, 3, 8, 8))

    full = tucker2(kernel, 8, 8)
    full_err = rel_error(kernel, full)
    assert full_err <= 1e-10

    image = rng.standard_normal((8, 8, 8))
    direct = apply_conv(kernel, image)
    seq = apply_sequence(full, image)
    seq_err = float(np.max(np.abs(direct - seq)) / np.max(np.abs(direct)))
    assert seq_err <= 1e-6

    errors = {
        ranks: rel_error(kernel, tucker2(kernel, *ranks))
        for ranks in ((8, 8), (4, 4), (1, 1))
    }
    assert errors[(8, 8)] <= errors[(4, 4)] <= errors[(1, 1)]
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        "6 tucker decomposition",
        elapsed,
        f"full-rank err {full_err:.1e}, sequence err {seq_err:.1e}, monotone",
    )


@pytest.fixture(scope="module")
def ablation_rows():
    layout = toy2_layout()
    spaces = [
        (v, build_space(v, "neutral", layout))
        for v in ("ibn", "ibn_fused", "ibn_fused_tucker")
    ]
    start = time.time()
    per_seed = [
        ablation_report(spaces, [CPU, ACCEL], tau=-0.3, seed=seed) for seed in range(5)
    ]
    return per_seed, time.time() - start


def test_criterion_7_qualitative_ablation(ablation_rows):
    """Regular convs pay off on the accelerator, stay neutral on the CPU."""
    per_seed, build_elapsed = ablation_rows
    start = time.time()

    def cell(rows, space, device):
        return next(r for r in rows if r.space == space and r.device == device)

    accel_gap = [
        cell(rows, "ibn_fused_tucker", "accel_sim").reward
        - cell(rows, "ibn", "accel_sim").reward
        for rows in per_seed
    ]
    cpu_gap = [
        cell(rows, "ibn_fused_tucker", "cpu_sim").reward
        - cell(rows, "ibn", "cpu_sim").reward
        for rows in per_seed
    ]
    accel_early = np.mean(
        [cell(rows, "ibn_fused_tucker", "accel_sim").frac_regular_early for rows in per_seed]
    )
    cpu_early = np.mean(
        [cell(rows, "ibn_fused_tucker", "cpu_sim").frac_regular_early for rows in per_seed]
    )

    # accelerator: the enlarged space strictly wins, in aggregate and per seed
    assert np.mean(accel_gap) > 0
    assert all(gap > 0 for gap in accel_gap)
    # accelerator winners lean on regular convs early, CPU winners need not
    assert accel_early > cpu_early
    # CPU: quality-neutral, reward gap inside the 0.05 noise band
    assert abs(np.mean(cpu_gap)) <= 0.05

    elapsed = build_elapsed + time.time() - start
    assert elapsed < 600.0
    report(
        "7 qualitative ablation",
        elapsed,
        f"accel gap {np.mean(accel_gap):+.4f}, cpu gap {np.mean(cpu_gap):+.4f}, "
        f"early regular-conv fraction {accel_early:.2f} (accel) vs {cpu_early:.2f} (cpu)",
    )


def test_criterion_8_subsumption(ablation_rows):
    """Exhaustive-best rewards are ordered with space inclusion everywhere."""
    per_seed, _ = ablation_rows
    start = time.time()
    checked = 0
    for rows in per_seed:
        for device in ("cpu_sim", "accel_sim"):
            rewards = {r.space: r.reward for r in rows if r.device == device}
            assert (
                rewards["ibn_fused_tucker"] >= rewards["ibn_fused"] >= rewards["ibn"]
            )
            checked += 1
    elapsed = time.time() - start
    report("8 subsumption", elapsed, f"{checked} (seed, device) triples ordered")
