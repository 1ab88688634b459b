"""Device simulators and the linear latency model."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import reference_ridge as ref
from hwnas.analysis import (OP_CLASSES, ArchCost, LayerCost, _layer_table, net_feature_counts,
                            network_cost, space_buckets)
from hwnas.arch import BUILTIN_LAYOUTS, OPS, ParseError, toy2_layout
from hwnas.cli import main
from hwnas.cost import (
    BUILTIN_DEVICES,
    BenchmarkRecord,
    DeviceSimulator,
    MAX_LATENCY_MS,
    FitError,
    LatencyModel,
    UnknownBucketError,
    coverage,
    fit,
    generate_benchmarks,
    latency_of,
    load_benchmarks,
    load_device,
    load_model,
    predict,
    r2,
    save_benchmarks,
    save_device,
    save_model,
    simulate_latency,
    space_line,
)
from hwnas.space import build_space, decode, kind_atoms_for, random_sample
from strategies import make_layout


@pytest.fixture
def toy_space():
    return build_space("ibn_fused_tucker", "neutral", toy2_layout())


def hand_built(*units) -> ArchCost:
    """The cost of one hand-built layer per tuple of ``(op class, madds)`` units."""
    return ArchCost(tuple(LayerCost(layer, sum(m for _, m in layer), 0, "test", f"layer{i}")
                          for i, layer in enumerate(units)))


def test_simulate_groups_arithmetic():
    dev = DeviceSimulator("unit", 1.0, 1.0, 2.0, 1.0, overhead_ms=0.1)
    assert latency_of(dev, hand_built((("pointwise_conv", 10**6),))) == pytest.approx(2.1)


def test_simulate_overhead_per_layer():
    dev = DeviceSimulator("unit", 1.0, 1.0, 1.0, 1.0, overhead_ms=0.5)
    cost = hand_built((("pointwise_conv", 0),), (("pointwise_conv", 0),))
    assert latency_of(dev, cost) == pytest.approx(1.0)


def test_accel_depthwise_regular_calibration():
    dev = BUILTIN_DEVICES["accel_sim"]
    madds = 10**6
    dep = latency_of(dev, hand_built((("depthwise_conv", madds),)))
    reg = latency_of(dev, hand_built((("regular_conv", 7 * madds),)))
    assert dep / reg == pytest.approx(3.0)


def test_addends_rate_each_unit_in_order():
    dev = DeviceSimulator("unit", 1.5, 21.0, 0.25, 50.0, overhead_ms=3.0)
    units = (("pointwise_conv", 12345), ("depthwise_conv", 678), ("regular_conv", 9 * 10**6),
             ("se_block", 4321), ("pointwise_conv", 1))
    layer = hand_built(units).layers[0]
    assert dev.addends(layer) == tuple(getattr(dev, op_class) * madds / 1e6
                                       for op_class, madds in units)
    assert dev.addends(hand_built(()).layers[0]) == ()


@pytest.mark.parametrize("use_se", [False, True], ids=["plain", "se"])
@pytest.mark.parametrize("op", OPS)
def test_every_op_class_the_analyzer_emits_has_a_rate(op, use_se):
    """The analyzer's formula table is the one source of units, and the simulators rate
    exactly ``OP_CLASSES``, so no unit can carry an op class a simulator lacks."""
    kinds = [kind for kind in kind_atoms_for("ibn_fused_tucker", "neutral") if kind.op == op]
    assert kinds
    emitted = {op_class for kind in kinds for op_class, _, _ in _layer_table(kind, 40, 16, use_se)}
    assert emitted <= set(OP_CLASSES)
    assert ("se_block" in emitted) == use_se


def test_dsp_profile_shares_accel_rates():
    # dsp_sim differs from accel_sim only in pairing with the kernel-5-free space
    accel, dsp = BUILTIN_DEVICES["accel_sim"], BUILTIN_DEVICES["dsp_sim"]
    for cls in ("regular_conv", "depthwise_conv", "pointwise_conv", "se_block"):
        assert getattr(dsp, cls) == getattr(accel, cls)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.05, 0.5, 2.0]))
def test_simulate_noise_keeps_positive_factors_and_redraws_the_rest(seed, sigma):
    """A first factor 1 + eps > 0 scales the exact total as drawn, so every
    latency that was positive stays bit-identical; any other factor is redrawn."""
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=sigma)
    groups = ((("regular_conv", 3 * 10**6),),
              (("depthwise_conv", 10**5), ("pointwise_conv", 2 * 10**6)))
    exact = latency_of(dev, hand_built(*groups))
    factor = 1.0 + np.random.default_rng(seed).normal(0.0, sigma)
    noisy = latency_of(dev, hand_built(*groups), np.random.default_rng(seed))
    if factor > 0:
        assert noisy == exact * factor
    else:
        assert noisy > 0


def test_generate_benchmarks_positive_under_heavy_noise(toy_space):
    dev = dataclasses.replace(BUILTIN_DEVICES["cpu_sim"], noise_sigma=0.5)
    records = generate_benchmarks(toy_space, dev, 200, np.random.default_rng(0))
    assert len(records) == 200
    assert all(rec.latency_ms > 0 for rec in records)


def test_simulate_noise_deterministic_per_seed(toy_space):
    dev = dataclasses.replace(BUILTIN_DEVICES["cpu_sim"], noise_sigma=0.05)
    net = decode(toy_space, random_sample(toy_space, np.random.default_rng(0)))
    a = simulate_latency(dev, net, np.random.default_rng(11))
    b = simulate_latency(dev, net, np.random.default_rng(11))
    c = simulate_latency(dev, net, np.random.default_rng(12))
    assert a == b
    assert a != c
    assert simulate_latency(dev, net) == simulate_latency(dev, net, None)


def test_negative_rates_rejected():
    with pytest.raises(ValueError, match=r"must be in \[0, 1e6\]"):
        DeviceSimulator("bad", -1.0, 1.0, 1.0, 1.0)


def test_a_device_that_prices_only_squeeze_excite_is_rejected():
    with pytest.raises(ValueError, match="se_only: regular_conv, depthwise_conv, pointwise_conv "
                                         "and overhead_ms are all 0"):
        DeviceSimulator("se_only", 0.0, 0.0, 0.0, 1.0)
    DeviceSimulator("overhead_only", 0.0, 0.0, 0.0, 0.0, overhead_ms=1e-9)
    DeviceSimulator("pointwise_only", 0.0, 0.0, 1e-9, 0.0)


def test_benchmark_record_requires_positive_latency(toy_space):
    net = decode(toy_space, random_sample(toy_space, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="positive"):
        BenchmarkRecord(net, 0.0, network_cost(net))


@pytest.mark.parametrize("field_name", OP_CLASSES + ("overhead_ms", "noise_sigma"))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_device_values_must_be_finite(field_name, value):
    values = dict(regular_conv=1.0, depthwise_conv=1.0, pointwise_conv=1.0, se_block=1.0)
    with pytest.raises(ValueError, match=rf"{field_name} must be in \[0, 1e6\]"):
        DeviceSimulator("bad", **{**values, field_name: value})


@pytest.mark.parametrize("field_name", OP_CLASSES + ("overhead_ms", "noise_sigma"))
def test_device_values_are_at_most_a_million(field_name):
    """Past the bound a finite rate could still price a latency or a budget at inf."""
    values = dict(regular_conv=1.0, depthwise_conv=1.0, pointwise_conv=1.0, se_block=1.0)
    DeviceSimulator("edge", **{**values, field_name: 1e6})
    with pytest.raises(ValueError, match=rf"{field_name} must be in \[0, 1e6\], got 1e\+308"):
        DeviceSimulator("bad", **{**values, field_name: 1e308})


def test_nan_device_profile_fails_bench_generate(tmp_path, capsys):
    profile = tmp_path / "device.json"
    profile.write_text('{"name": "nanny", "regular_conv": 1.0, "depthwise_conv": NaN, '
                       '"pointwise_conv": 1.0, "se_block": 1.0}')
    out = tmp_path / "bench.csv"
    code = main(["bench", "generate", "--layout", "toy2", "--device", str(profile),
                 "-n", "3", "-o", str(out)])
    assert code == 1
    assert "depthwise_conv must be in [0, 1e6], got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("latency", [math.nan, math.inf])
def test_benchmark_record_rejects_non_finite_latency(toy_space, latency):
    net = decode(toy_space, random_sample(toy_space, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="finite positive"):
        BenchmarkRecord(net, latency, network_cost(net))


def test_benchmark_record_latency_is_at_most_the_bound(toy_space):
    """Past the bound the fit's squares could overflow and write a NaN r^2."""
    net = decode(toy_space, random_sample(toy_space, np.random.default_rng(0)))
    BenchmarkRecord(net, MAX_LATENCY_MS, network_cost(net))
    with pytest.raises(ValueError, match=r"at most 1e\+100, got 1e\+200"):
        BenchmarkRecord(net, 1e200, network_cost(net))


@pytest.mark.parametrize("layout", ["toy2", "default"])
def test_generate_benchmarks_matches_decoded_simulation(layout):
    """Latencies priced from the unit table are bit-identical to simulating the
    decoded network, with the same draws from the generator in the same order."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS[layout]())
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=0.01)
    records = generate_benchmarks(space, dev, 30, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for record in records:
        net = decode(space, random_sample(space, rng))
        assert record.net == net
        assert record.latency_ms == simulate_latency(dev, net, rng)


def test_generate_benchmarks_latencies_are_pinned():
    """300 ``default`` records with a per-layer overhead and noise: the overhead is
    charged once per layer, so the pin checks the layer count as well as the draws."""
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], overhead_ms=0.5, noise_sigma=0.01)
    records = generate_benchmarks(space, dev, 300, np.random.default_rng(4))
    assert hashlib.sha256(repr([r.latency_ms for r in records]).encode()).hexdigest() == (
        "e019c181f7da80324d5da58c2824c67ca32d4ed1b58c94736757b602c4e28fbe")


def test_generate_benchmarks_reproducible(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    a = generate_benchmarks(toy_space, dev, 50, np.random.default_rng(4))
    b = generate_benchmarks(toy_space, dev, 50, np.random.default_rng(4))
    c = generate_benchmarks(toy_space, dev, 50, np.random.default_rng(5))
    assert a == b
    assert a != c
    assert all(r.latency_ms > 0 for r in a)
    with pytest.raises(ValueError):
        generate_benchmarks(toy_space, dev, 0, np.random.default_rng(0))


def test_fit_noiseless_is_exact(toy_space):
    dev = BUILTIN_DEVICES["accel_sim"]
    records = generate_benchmarks(toy_space, dev, 600, np.random.default_rng(1))
    model = fit(records, toy_space)
    assert model.train_r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_predict_matches_simulator_on_fresh_samples(toy_space):
    dev = BUILTIN_DEVICES["accel_sim"]
    records = generate_benchmarks(toy_space, dev, 1500, np.random.default_rng(1))
    # the 1e-6 default ridge trades a ~1e-6 ms bias for guaranteed solvability;
    # shrink it to expose the exact noiseless solution
    model = fit(records, toy_space, ridge_lambda=1e-8)
    rng = np.random.default_rng(99)
    for _ in range(200):
        net = decode(toy_space, random_sample(toy_space, rng))
        predicted = predict(model, network_cost(net))
        assert predicted == pytest.approx(simulate_latency(dev, net), abs=1e-6)


def test_fit_deterministic_bit_for_bit(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 300, np.random.default_rng(2))
    m1 = fit(records, toy_space)
    m2 = fit(records, toy_space)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.intercept == m2.intercept
    assert m1.train_r2 == m2.train_r2


def test_fit_duplicates_equal_weighted_fit(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    base = generate_benchmarks(toy_space, dev, 40, np.random.default_rng(3))
    lam = 1e-6
    duplicated = fit(base + base[:10], toy_space, ridge_lambda=lam)

    buckets = space_buckets(toy_space)
    index = {b: i for i, b in enumerate(buckets)}
    x = np.zeros((40, len(buckets) + 1))
    y = np.zeros(40)
    weights = np.ones(40)
    weights[:10] = 2.0
    for row, rec in enumerate(base):
        for bucket, count in net_feature_counts(rec.net).items():
            x[row, index[bucket]] = count
        x[row, -1] = 1.0
        y[row] = rec.latency_ms
    wmat = x.T * weights
    normal = wmat @ x
    normal[: len(buckets), : len(buckets)] += lam * np.eye(len(buckets))
    beta = np.linalg.solve(normal, wmat @ y)
    # identical systems up to float summation order
    assert duplicated.weights == pytest.approx(beta[:-1], rel=1e-6, abs=1e-7)
    assert duplicated.intercept == pytest.approx(beta[-1], rel=1e-6)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1e-9])
def test_fit_rejects_a_negative_or_non_finite_ridge(toy_space, lam):
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 50,
                                  np.random.default_rng(0))
    with pytest.raises(FitError, match=f"ridge_lambda must be a finite number >= 0, got {lam}"):
        fit(records, toy_space, ridge_lambda=lam)


def test_fit_singular_without_ridge(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    # the constant stem bucket is exactly collinear with the intercept
    records = generate_benchmarks(toy_space, dev, 50, np.random.default_rng(0))
    with pytest.raises(FitError, match="ridge_lambda > 0"):
        fit(records, toy_space, ridge_lambda=0.0)


@settings(max_examples=25, deadline=None)
@given(variant=st.sampled_from(["ibn", "ibn_fused_tucker"]), data=st.data())
def test_fit_without_ridge_rejects_records_up_to_buckets(variant, data):
    """Centered rows sum to zero, so n <= d records leave the unpenalized
    system singular whatever the data; it is rejected before solving."""
    space = build_space(variant, "neutral", toy2_layout())
    n = data.draw(st.integers(2, len(space_buckets(space))), label="records")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    records = generate_benchmarks(space, BUILTIN_DEVICES["accel_sim"], n,
                                  np.random.default_rng(seed))
    with pytest.raises(FitError, match="ridge_lambda > 0"):
        fit(records, space, ridge_lambda=0.0)


@pytest.mark.parametrize("variant, n, branch", [
    ("ibn", 200, "primal"),  # 33 buckets: more records than buckets
    ("ibn_fused_tucker", 80, "dual"),  # 129 buckets: fewer records than buckets
    ("ibn_fused_tucker", 128, "dual"),  # one record short of the buckets
])
def test_fit_matches_augmented_normal_equations(variant, n, branch):
    """Both branches of the smaller-Gram solve give the reference's model.

    At lambda 1e-6 the reference's augmented normal matrix has a condition
    number near 1e10, so the two solutions may differ by ~1e-7 of the largest
    weight. Predictions on the training networks depend only on
    well-determined combinations of the weights and agree to 1e-9; on fresh
    networks, where the dual-branch model extrapolates (some predictions there
    are near zero or negative), they agree to 1e-6 ms.
    """
    space = build_space(variant, "neutral", toy2_layout())
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=0.01)
    records = generate_benchmarks(space, dev, n, np.random.default_rng(5))
    model = fit(records, space)
    assert (n < len(model.buckets)) == (branch == "dual")
    weights, intercept = ref.fit(records, model.buckets, 1e-6)
    assert np.max(np.abs(model.weights - weights)) <= 1e-6 * np.max(np.abs(weights))
    assert model.intercept == pytest.approx(intercept, rel=1e-6)
    fresh = generate_benchmarks(space, dev, 100, np.random.default_rng(6))
    for sample, tolerance in ((records, dict(rel=1e-9)), (fresh, dict(abs=1e-6))):
        x, _ = ref.feature_matrix(sample, model.buckets)
        predicted = np.array([predict(model, r.cost) for r in sample])
        assert predicted == pytest.approx(x @ weights + intercept, **tolerance)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 128), used=st.integers(1, 127), seed=st.integers(0, 2**32 - 1))
@example(n=2, used=1, seed=0)
@example(n=3, used=5, seed=0)
@example(n=128, used=127, seed=0)  # 128 records of 129 buckets, none unused
def test_dual_fit_matches_augmented_normal_equations_on_any_counts(n, used, seed):
    """The dual branch against the reference on count matrices over toy2's
    129 ibn_fused_tucker buckets, at the tolerances of the test above.

    Column 0 is 1 in every record, as the stem bucket is. Column 1 reaches
    ``n`` entries through repeats while missing from some records: 2 in each
    of the first ``n // 2`` records, and 1 in the last when ``n`` is odd.
    Each record adds 1 to 20 layers drawn from the next ``used`` columns, so
    buckets repeat within records; the other columns are unused. Layers come
    in a shuffled order, so a record's repeats are not adjacent.

    Both fits take lambda 1e-3. The reference's normal equations lose about
    as many digits as their condition number, near (largest singular value)^2
    / lambda; at the default 1e-6 some near-square random count matrices take
    them below the weight tolerance, which sampled architectures do not.
    """
    space = build_space("ibn_fused_tucker", "neutral", toy2_layout())
    buckets = space_buckets(space)
    rng = np.random.default_rng(seed)
    x = np.zeros((n, len(buckets)), dtype=np.intp)
    x[:, 0] = 1
    x[:n // 2, 1] = 2
    x[n - 1, 1] += n % 2
    for row in x:
        np.add.at(row, 2 + rng.integers(0, used, rng.integers(1, 21)), 1)
    y = (x @ rng.uniform(0.5, 2.0, len(buckets)) + 5.0) * rng.normal(1.0, 0.01, n)
    records = []
    for counts, latency in zip(x, y):
        keys = [buckets[col] for col in rng.permutation(np.repeat(np.arange(len(buckets)),
                                                                  counts))]
        layers = tuple(LayerCost((), 0, 0, "test", key) for key in keys)
        records.append(BenchmarkRecord(None, float(latency), ArchCost(layers)))
    model = fit(records, space, ridge_lambda=1e-3)
    weights, intercept = ref.solve(x.astype(np.float64), y, 1e-3)
    assert np.max(np.abs(model.weights - weights)) <= 1e-6 * np.max(np.abs(weights))
    assert model.intercept == pytest.approx(intercept, rel=1e-6)
    assert np.all(model.weights[2 + used:] == 0.0)
    predicted = np.array([predict(model, r.cost) for r in records])
    assert predicted == pytest.approx(x @ weights + intercept, rel=1e-9)
    assert model.train_r2 == pytest.approx(r2(model, records), abs=1e-9)


@pytest.mark.parametrize("n, mib", [(400, 32), (1600, 56)])
def test_fit_memory_stays_below_a_dense_normal_matrix(n, mib):
    """Records of default's 3,537 buckets: the dual system is n x n.

    One dense buckets x buckets matrix alone would take 95 MiB, and a dense
    records x buckets feature matrix 11 MiB at 400 records and 43 MiB at
    1,600. The fit forms neither: beside the integer and float Gram matrices
    (20 MiB each at 1,600) it holds index arrays over about 1.0M pairs of
    layers that share a bucket. numpy reports its buffers to tracemalloc.
    """
    space = build_space("ibn_fused_tucker", "neutral", BUILTIN_LAYOUTS["default"]())
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=0.01)
    records = generate_benchmarks(space, dev, n, np.random.default_rng(0))
    tracemalloc.start()
    try:
        fit(records, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_fit_needs_two_records(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 1, np.random.default_rng(0))
    with pytest.raises(FitError, match="at least 2"):
        fit(records, toy_space)


@pytest.mark.parametrize("n", [2, 200], ids=["dual", "primal"])
def test_fit_on_one_repeated_architecture_predicts_the_mean(toy_space, n):
    """Every bucket is then constant, and the dual branch once failed on integer sums."""
    net = decode(toy_space, random_sample(toy_space, np.random.default_rng(0)))
    records = [BenchmarkRecord(net, 1.0 + i % 2, network_cost(net)) for i in range(n)]
    model = fit(records, toy_space)
    assert not model.weights.any() and model.intercept == 1.5


@pytest.mark.parametrize("field, value", [("weights", [math.inf]), ("intercept", math.nan),
                                          ("train_r2", math.nan), ("holdout_r2", -math.inf)])
def test_save_model_refuses_a_non_finite_number(tmp_path, toy_space, field, value):
    """load_model would reject the file, so no file is written."""
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 50,
                                  np.random.default_rng(0))
    model = fit(records, toy_space)
    if field == "weights":
        model.weights[:1] = value
    else:
        setattr(model, field, value)
    with pytest.raises(FitError, match=f"the fitted {field} is not finite"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_predict_is_linear_in_counts(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 80, np.random.default_rng(2))
    model = fit(records, toy_space)
    index = {b: i for i, b in enumerate(model.buckets)}
    rng = np.random.default_rng(12)
    for _ in range(20):
        net = decode(toy_space, random_sample(toy_space, rng))
        counts = net_feature_counts(net)
        manual = model.intercept + sum(
            model.weights[index[b]] * c for b, c in counts.items()
        )
        assert predict(model, network_cost(net)) == pytest.approx(manual, rel=1e-12)


def test_predict_unknown_bucket_names_it(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 60, np.random.default_rng(1))
    model = fit(records, toy_space)
    foreign_layout = make_layout(32, 24, [(64, 1, 2)])
    foreign_space = build_space("ibn", "neutral", foreign_layout)
    net = decode(foreign_space, (0, 3))
    with pytest.raises(UnknownBucketError, match=r"stem\|3\|24"):
        predict(model, network_cost(net))


def test_r2_degenerate_conventions():
    layout = make_layout(32, 16, [(16, 1, 2)])
    space = build_space("ibn", "neutral", layout)
    net = decode(space, (0, 0))
    buckets = tuple(sorted(net_feature_counts(net)))
    model = LatencyModel(
        buckets=buckets,
        weights=np.zeros(len(buckets)),
        intercept=2.5,
        ridge_lambda=0.0,
        train_r2=1.0,
    )
    constant = [BenchmarkRecord(net, 2.5, network_cost(net))] * 2
    assert r2(model, constant) == 1.0  # SStot = 0, SSres = 0
    wrong = dataclasses.replace(model, intercept=3.0)
    assert r2(wrong, constant) == 0.0  # SStot = 0, SSres > 0


def test_r2_perfect_predictions(toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 200, np.random.default_rng(6))
    model = fit(records, toy_space, ridge_lambda=1e-10)
    assert r2(model, records) == pytest.approx(1.0, abs=1e-9)


def test_model_file_round_trip(tmp_path, toy_space):
    dev = BUILTIN_DEVICES["accel_sim"]
    records = generate_benchmarks(toy_space, dev, 100, np.random.default_rng(0))
    model = fit(records, toy_space, space_ref="toy")
    model.holdout_r2 = 0.999
    path = tmp_path / "model.json"
    save_model(model, path, meta={"tool": "test"})
    loaded = load_model(path)
    assert loaded.buckets == model.buckets
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.intercept == model.intercept
    assert loaded.holdout_r2 == model.holdout_r2
    assert loaded.space_ref == "toy"


def test_model_file_with_truncated_weights_rejected_at_load(tmp_path, toy_space):
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 50,
                                  np.random.default_rng(0))
    path = tmp_path / "model.json"
    save_model(fit(records, toy_space), path)
    doc = json.loads(path.read_text())
    n = len(doc["buckets"])
    doc["weights"] = doc["weights"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{n - 1} weights for {n} buckets"):
        load_model(path)


def _raises_one_line(load, path, *parts):
    """``load(path)`` raises one line that names the file and each of ``parts``."""
    with pytest.raises(ParseError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}") and "\n" not in message
    for part in parts:
        assert part in message


@pytest.mark.parametrize("edit, parts", [
    (lambda doc: doc.pop("weights"), ["missing field(s) weights"]),
    (lambda doc: doc.update(extra=1), ["unknown field(s) extra"]),
    (lambda doc: doc.update(weights="0.5"), ["weights: expected a list"]),
    (lambda doc: doc["weights"].__setitem__(2, "x"), ["weights[2]: expected a number"]),
    (lambda doc: doc["buckets"].__setitem__(0, 7), ["buckets[0]: expected a string"]),
    (lambda doc: doc.update(intercept=None), ["intercept: expected a number"]),
    (lambda doc: doc.update(holdout_r2="high"), ["holdout_r2: expected a number"]),
    (lambda doc: doc.update(space_ref=3), ["space_ref: expected a string"]),
    (lambda doc: "nope", ["invalid JSON at line 1 column 1: Expecting value"]),
    (lambda doc: "{", ["invalid JSON at line 1 column 2: Expecting property name"]),
])
def test_malformed_model_file_names_file_and_field(tmp_path, toy_space, edit, parts):
    """``edit`` changes the document in place or returns the file's new text."""
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 20,
                                  np.random.default_rng(0))
    path = tmp_path / "model.json"
    save_model(fit(records, toy_space), path)
    doc = json.loads(path.read_text())
    text = edit(doc)
    path.write_text(text if isinstance(text, str) else json.dumps(doc))
    _raises_one_line(load_model, path, *parts)


@pytest.mark.parametrize("field, value", [
    ("weights", math.nan), ("intercept", math.inf), ("lambda", -math.inf),
    ("train_r2", math.nan), ("holdout_r2", math.inf),
])
def test_model_file_with_a_non_finite_number_names_the_field(tmp_path, toy_space, field, value):
    """json reads NaN and Infinity: an infinite intercept would predict inf."""
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 20,
                                  np.random.default_rng(0))
    path = tmp_path / "model.json"
    model = fit(records, toy_space)
    model.holdout_r2 = 0.5
    save_model(model, path)
    doc = json.loads(path.read_text())
    if field == "weights":
        doc["weights"][0], field = value, "weights[0]"
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    _raises_one_line(load_model, path, f"{field}: expected a finite number, got {value}")


def test_model_file_that_is_not_an_object_is_named(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[2]")
    _raises_one_line(load_model, path, "expected an object, got list")


@pytest.mark.parametrize("text, parts", [
    ('{"name": "d", "regular_conv": 1, "depthwise_conv": 1, "pointwise_conv": 1, '
     '"se_block": 1, "colour": "red"}', ["unknown field(s) colour"]),
    ('{"name": "d", "regular_conv": 1, "depthwise_conv": 1, "pointwise_conv": 1}',
     ["missing field(s) se_block"]),
    ('{"name": "d", "regular_conv": "fast", "depthwise_conv": 1, "pointwise_conv": 1, '
     '"se_block": 1}', ["regular_conv: expected a number, got 'fast'"]),
    ('{"name": 5, "regular_conv": 1, "depthwise_conv": 1, "pointwise_conv": 1, '
     '"se_block": 1}', ["name: expected a string"]),
    ('{"name": "d", "regular_conv": 1, "depthwise_conv": 1, "pointwise_conv": 1, '
     '"se_block": 1, "overhead_ms": -1}', ["overhead_ms must be in [0, 1e6]"]),
    ('[1, 2]', ["expected an object, got list"]),
    ("nope", ["invalid JSON at line 1 column 1: Expecting value"]),
    ("{", ["invalid JSON at line 1 column 2: Expecting property name"]),
], ids=["unknown_key", "no_se_block", "string_rate", "number_name", "negative_overhead",
        "list", "nope", "unclosed"])
def test_malformed_device_file_names_file_and_field(tmp_path, text, parts):
    path = tmp_path / "device.json"
    path.write_text(text)
    _raises_one_line(load_device, path, *parts)


def test_device_file_round_trip(tmp_path):
    dev = DeviceSimulator("custom", 1.5, 2.5, 0.5, 9.0, overhead_ms=0.25, noise_sigma=0.02)
    path = tmp_path / "device.json"
    save_device(dev, path)
    assert load_device(path) == dev


TOY_REF = "ibn_fused_tucker/neutral/toy2"


def strip_vectors(csv_path):
    """Rewrite a benchmark CSV in the two-column format: no vector column, no space line."""
    lines = [line if line.startswith("#") else ",".join(line.split(",")[:2])
             for line in csv_path.read_text().splitlines() if not line.startswith("# space:")]
    csv_path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("row, parts", [
    ("archs/arch_00000.json", ["line 4: expected the fields arch_file,latency_ms, got 1"]),
    ("archs/arch_00000.json,1.0,2.0", ["line 4: expected the fields", "got 3"]),
    ("archs/arch_00000.json,abc", ["line 4: latency_ms:", "'abc'"]),
    ("archs/arch_00000.json,-1", ["line 4: latency_ms: latency must be a finite positive"]),
    ("archs/renamed.json,1.0",
     ["line 4: ", "renamed.json: document: missing field(s) stem_channels"]),
], ids=["one_field", "three_fields", "not_a_number", "negative", "arch_missing_field"])
def test_malformed_benchmark_row_names_file_line_and_field(tmp_path, toy_space, row, parts):
    """Rows of the two-column format, which is still read."""
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 1,
                                  np.random.default_rng(0))
    csv_path = tmp_path / "bench.csv"
    save_benchmarks(records, csv_path, tmp_path / "archs", meta_lines=["test run"])
    strip_vectors(csv_path)
    arch_text = (tmp_path / "archs" / "arch_00000.json").read_text()
    (tmp_path / "archs" / "renamed.json").write_text(
        arch_text.replace('"stem_channels"', '"stem_width"'))
    csv_path.write_text(csv_path.read_text() + row + "\n")
    _raises_one_line(lambda path: load_benchmarks(path, toy_space, TOY_REF), csv_path, *parts)


def test_benchmark_csv_round_trip(tmp_path, toy_space):
    dev = BUILTIN_DEVICES["cpu_sim"]
    records = generate_benchmarks(toy_space, dev, 12, np.random.default_rng(9))
    csv_path = tmp_path / "bench.csv"
    save_benchmarks(records, csv_path, tmp_path / "archs",
                    meta_lines=["test run", space_line(toy_space, TOY_REF)])
    loaded = load_benchmarks(csv_path, toy_space, TOY_REF)
    assert [decode(toy_space, r.dv) for r in loaded] == [r.net for r in records]
    assert [r.latency_ms for r in loaded] == pytest.approx(
        [r.latency_ms for r in records], rel=1e-8
    )


@pytest.mark.parametrize("csv_name, arch_dir, first", [
    ("bench.csv", "archs", "archs/arch_00000.json"),
    ("bench.csv", ".", "arch_00000.json"),
    ("sub/bench.csv", "archs", "{tmp}/archs/arch_00000.json"),
], ids=["under", "beside", "elsewhere"])
def test_benchmark_rows_name_arch_files_relative_to_the_csv(tmp_path, toy_space, csv_name,
                                                            arch_dir, first):
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 2,
                                  np.random.default_rng(0))
    csv_path = tmp_path / csv_name
    csv_path.parent.mkdir(exist_ok=True)
    save_benchmarks(records, csv_path, tmp_path / arch_dir)
    names = [row.split(",")[0] for row in csv_path.read_text().splitlines()[1:]]
    first = first.format(tmp=tmp_path)
    assert names == [first, first.replace("arch_00000", "arch_00001")]
    assert all((csv_path.parent / name).is_file() for name in names)


def _vector_csv(tmp_path, space, rows=(), ref=TOY_REF):
    """A 3-record vector CSV of ``space``, named ``ref`` (no space line if None),
    plus ``rows``; returns its path."""
    records = generate_benchmarks(space, BUILTIN_DEVICES["cpu_sim"], 3, np.random.default_rng(0))
    csv_path = tmp_path / "bench.csv"
    save_benchmarks(records, csv_path, tmp_path / "archs",
                    meta_lines=[] if ref is None else [space_line(space, ref)])
    csv_path.write_text(csv_path.read_text() + "".join(row + "\n" for row in rows))
    return csv_path


def test_vector_rows_are_priced_without_opening_architecture_files(tmp_path, toy_space):
    records = generate_benchmarks(toy_space, BUILTIN_DEVICES["cpu_sim"], 12,
                                  np.random.default_rng(9))
    csv_path = tmp_path / "bench.csv"
    save_benchmarks(records, csv_path, tmp_path / "archs",
                    meta_lines=[space_line(toy_space, TOY_REF)])
    for path in (tmp_path / "archs").iterdir():
        path.unlink()
    loaded = load_benchmarks(csv_path, toy_space, TOY_REF)
    assert [r.net for r in loaded] == [None] * 12
    assert [r.dv for r in loaded] == [r.dv for r in records]
    assert [r.cost for r in loaded] == [r.cost for r in records]


@pytest.mark.parametrize("row, parts", [
    ("archs/x.json,1.0,0 1", ["line 6: vector: decision vector has 2 entries, space has 3"]),
    ("archs/x.json,1.0,0 1 7", ["line 6: vector: decision 2 (b0.multiplier): index 7 out of"]),
    ("archs/x.json,1.0,0 -1 0", ["line 6: vector: decision 1 (b0.l1.kind): index -1 out of"]),
    ("archs/x.json,1.0,0 1.5 0", ["line 6: vector: expected integers, got '0 1.5 0'"]),
    ("archs/x.json,1.0,0 one 0", ["line 6: vector: expected integers, got '0 one 0'"]),
    ("archs/x.json,1.0", ["line 6: expected the fields arch_file,latency_ms,vector, got 2"]),
    ("archs/x.json,abc,0 1 0", ["line 6: latency_ms:", "'abc'"]),
], ids=["short", "out_of_range", "negative", "float", "word", "two_fields", "bad_latency"])
def test_malformed_vector_row_names_file_and_line(tmp_path, toy_space, row, parts):
    csv_path = _vector_csv(tmp_path, toy_space, [row])
    _raises_one_line(lambda path: load_benchmarks(path, toy_space, TOY_REF), csv_path, *parts)


@pytest.mark.parametrize("ref", ["ibn/neutral/toy2", TOY_REF, None],
                         ids=["other_space", "other_space_same_name", "no_space_line"])
def test_vectors_from_another_space_are_rejected(tmp_path, toy_space, ref):
    """ibn vectors have the length of ibn_fused_tucker ones and would price
    silently; the space's digest tells them apart, whatever the name."""
    ibn = build_space("ibn", "neutral", toy2_layout())
    csv_path = _vector_csv(tmp_path, ibn, ref=ref)
    named = "(none named)" if ref is None else space_line(ibn, ref)[len("space: "):]
    expected = space_line(toy_space, TOY_REF)[len("space: "):]
    _raises_one_line(lambda path: load_benchmarks(path, toy_space, TOY_REF), csv_path,
                     f"its vectors are from space {named}, not {expected}")


def test_vectors_of_the_same_space_under_another_name_are_read(tmp_path, toy_space):
    csv_path = _vector_csv(tmp_path, toy_space, ref="./spaces/toy.json")
    assert len(load_benchmarks(csv_path, toy_space, TOY_REF)) == 3


def test_fit_from_vectors_matches_fit_from_files(tmp_path):
    """Both row kinds give the same index arrays, so the same model bit for bit."""
    space = build_space("ibn_fused_tucker", "neutral", toy2_layout())
    dev = dataclasses.replace(BUILTIN_DEVICES["accel_sim"], noise_sigma=0.01)
    records = generate_benchmarks(space, dev, 300, np.random.default_rng(4))
    csv_path = tmp_path / "bench.csv"
    save_benchmarks(records, csv_path, tmp_path / "archs", meta_lines=[space_line(space, TOY_REF)])
    from_vectors = load_benchmarks(csv_path, space, TOY_REF)
    strip_vectors(csv_path)
    from_files = load_benchmarks(csv_path, space, TOY_REF)
    assert all(r.net is None for r in from_vectors) and all(r.dv is None for r in from_files)
    assert [r.cost for r in from_files] == [r.cost for r in from_vectors]
    a, b = fit(from_vectors[:200], space), fit(from_files[:200], space)
    assert np.array_equal(a.weights, b.weights)
    assert (a.intercept, a.train_r2) == (b.intercept, b.train_r2)
    assert coverage(a, from_vectors[:200]) == coverage(b, from_files[:200])
    assert r2(a, from_vectors[200:]) == r2(b, from_files[200:])
