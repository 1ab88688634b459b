"""CLI subcommands: delegation, determinism, output stamping, error paths."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hwnas.analysis import network_cost
from hwnas.arch import default_layout, functional_signature, load_file, save_file, toy2_layout
from hwnas.cli import _enum_cap, build_parser, main
from hwnas.cost import (BUILTIN_DEVICES, fit, generate_benchmarks, load_model, save_model,
                        space_line)
from hwnas.search import (CapacityOracle, SearchConfig, median_madds, run_search,
                          write_log)
from hwnas.space import (DEFAULT_COMPRESSIONS, DEFAULT_EXPANSIONS, DEFAULT_KERNELS,
                         DEFAULT_MULTIPLIERS, build_space, decode, random_sample)
from hwnas.tucker import save_kernel
from strategies import make_layout


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_arch(tmp_path, name="arch.json"):
    space = build_space("ibn_fused_tucker", "neutral", toy2_layout())
    net = decode(space, (9, 2, 3))
    path = tmp_path / name
    save_file(net, path)
    return net, path


def test_space_size_toy2(capsys):
    code, out, _ = run(["space", "size", "--variant", "ibn", "--layout", "toy2"], capsys)
    assert code == 0
    assert out.strip() == "112"


def test_space_size_layout_file(tmp_path, capsys):
    path = tmp_path / "toy2.json"
    save_file(toy2_layout(), path)
    code, out, _ = run(["space", "size", "--variant", "ibn", "--layout", str(path)], capsys)
    assert code == 0 and out.strip() == "112"


def test_space_size_one_layer_tucker_variant(tmp_path, capsys):
    layout = make_layout(32, 16, [(16, 1, 2)])
    path = tmp_path / "layout.json"
    save_file(layout, path)
    code, out, _ = run(
        ["space", "size", "--variant", "ibn_fused_tucker", "--layout", str(path)], capsys
    )
    assert code == 0 and out.strip() == "112"


def test_space_inspect(capsys):
    code, out, _ = run(["space", "inspect", "--variant", "ibn_fused", "--adaptation",
                        "dsp", "--layout", "toy2"], capsys)
    assert code == 0
    assert "variant: ibn_fused" in out
    assert "size: 112" in out  # 4 * 4 * 7 after dropping kernel 5
    assert "  [0] b0.l0.kind (4): ibn_k3_s4, ibn_k3_s8, fused_k3_s4, fused_k3_s8\n" in out
    assert "  [2] b0.multiplier (7): 0.5, 0.625, 0.75, 1, 1.25, 1.5, 2\n" in out


def test_space_enumerate(tmp_path, capsys):
    out_path = tmp_path / "dvs.csv"
    code, _, _ = run(["space", "enumerate", "--variant", "ibn", "--layout", "toy2",
                      "-o", str(out_path)], capsys)
    assert code == 0
    rows = [r for r in csv.reader(out_path.open()) if not r[0].startswith("#")]
    assert len(rows) == 113  # header + 112 vectors


def test_enumerate_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAS_ENUM_CAP", "50")
    code, _, err = run(["space", "enumerate", "--variant", "ibn", "--layout", "toy2",
                        "-o", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert err.startswith("error: EnumerationCapError:")


def test_enumerate_cap_env_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAS_ENUM_CAP", "abc")
    code, _, err = run(["space", "enumerate", "--variant", "ibn", "--layout", "toy2",
                        "-o", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert err == "error: ValueError: NAS_ENUM_CAP must be an integer >= 1, got 'abc'\n"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10**12).map(str))
def test_enum_cap_env_accepts_positive_integers(text):
    with mock.patch.dict(os.environ, {"NAS_ENUM_CAP": text}):
        assert _enum_cap(file_cap=7) == int(text)


@settings(max_examples=80, deadline=None)
@given(st.integers(max_value=0).map(str)
       | st.from_regex(r"\A[a-zA-Z_.,]*\Z")
       | st.floats().filter(lambda x: not x.is_integer()).map(repr))
def test_enum_cap_env_rejects_other_values(text):
    with mock.patch.dict(os.environ, {"NAS_ENUM_CAP": text}):
        with pytest.raises(ValueError, match="NAS_ENUM_CAP must be an integer >= 1"):
            _enum_cap()


def parse_error(argv) -> str:
    """The last stderr line of an argument rejected at parse time (exit code 2)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    return err.getvalue().splitlines()[-1]


def number_texts(rejected=None):
    """Texts a guard rejects: the non-finite floats, drawn as their only reprs
    ('nan', 'inf', '-inf'), non-numbers, and the finite floats ``rejected``
    holds for."""
    texts = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1,5", "0x1"])
    if rejected is None:
        return texts
    return st.floats(allow_nan=False, allow_infinity=False).filter(rejected).map(repr) | texts


SEARCH_COMMANDS = (["search", "run", "--log", "x.ndjson"], ["search", "exhaustive"])


@settings(max_examples=80, deadline=None)
@given(text=number_texts(lambda x: not (math.isfinite(x) and x > 0)),
       command=st.sampled_from(SEARCH_COMMANDS))
def test_budget_not_positive_rejected_at_parse(text, command):
    line = parse_error(command + [f"--budget={text}"])
    assert line.endswith(f"argument --budget: must be a positive number of ms, got {text!r}")


@settings(max_examples=80, deadline=None)
@given(budget=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
       command=st.sampled_from(SEARCH_COMMANDS))
def test_budget_positive_accepted(budget, command):
    assert build_parser().parse_args(command + [f"--budget={budget!r}"]).budget == budget


@settings(max_examples=80, deadline=None)
@given(text=number_texts(lambda x: not (math.isfinite(x) and x >= 0)),
       command=st.sampled_from(SEARCH_COMMANDS))
def test_oracle_noise_negative_or_not_finite_rejected_at_parse(text, command):
    line = parse_error(command + [f"--oracle-noise={text}"])
    assert line.endswith(f"argument --oracle-noise: must be a finite number >= 0, got {text!r}")


@settings(max_examples=80, deadline=None)
@given(sigma=st.floats(min_value=0, allow_infinity=False),
       command=st.sampled_from(SEARCH_COMMANDS))
def test_oracle_noise_finite_nonnegative_accepted(sigma, command):
    args = build_parser().parse_args(command + [f"--oracle-noise={sigma!r}"])
    assert args.oracle_noise == sigma


@settings(max_examples=80, deadline=None)
@given(text=number_texts(), command=st.sampled_from(SEARCH_COMMANDS))
def test_early_bonus_not_finite_rejected_at_parse(text, command):
    line = parse_error(command + [f"--early-bonus={text}"])
    assert line.endswith(f"argument --early-bonus: must be a finite number, got {text!r}")


@settings(max_examples=80, deadline=None)
@given(bonus=st.floats(allow_nan=False, allow_infinity=False),
       command=st.sampled_from(SEARCH_COMMANDS))
def test_early_bonus_finite_accepted(bonus, command):
    assert build_parser().parse_args(command + [f"--early-bonus={bonus!r}"]).early_bonus == bonus


TAU_COMMANDS = SEARCH_COMMANDS + (["search", "ablation", "-o", "x.csv"],)


@settings(max_examples=80, deadline=None)
@given(text=number_texts(lambda x: x > 0), command=st.sampled_from(TAU_COMMANDS))
def test_tau_positive_or_not_finite_rejected_at_parse(text, command):
    line = parse_error(command + [f"--tau={text}"])
    assert line.endswith(f"argument --tau: must be a finite number <= 0, got {text!r}")


@settings(max_examples=80, deadline=None)
@given(tau=st.floats(max_value=0, allow_infinity=False), command=st.sampled_from(TAU_COMMANDS))
def test_tau_finite_nonpositive_accepted(tau, command):
    assert build_parser().parse_args(command + [f"--tau={tau!r}"]).tau == tau


FIT_ARGS = ["cost", "fit", "--bench", "bench.csv", "-o", "model.json"]


@settings(max_examples=80, deadline=None)
@given(number_texts(lambda x: not 0 <= x < 1))
def test_holdout_frac_outside_unit_interval_rejected(text):
    line = parse_error(FIT_ARGS + [f"--holdout-frac={text}"])
    assert line.endswith(f"argument --holdout-frac: must be in [0, 1), got {text!r}")


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0, max_value=1, exclude_max=True))
def test_holdout_frac_in_unit_interval_accepted(frac):
    assert build_parser().parse_args(FIT_ARGS + [f"--holdout-frac={frac!r}"]).holdout_frac == frac


@settings(max_examples=80, deadline=None)
@given(number_texts(lambda x: not (math.isfinite(x) and x >= 0)))
def test_ridge_lambda_negative_or_not_finite_rejected_at_parse(text):
    line = parse_error(FIT_ARGS + [f"--ridge-lambda={text}"])
    assert line.endswith(f"argument --ridge-lambda: must be a finite number >= 0, got {text!r}")


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0, allow_infinity=False))
def test_ridge_lambda_finite_nonnegative_accepted(lam):
    assert build_parser().parse_args(FIT_ARGS + [f"--ridge-lambda={lam!r}"]).ridge_lambda == lam


@pytest.mark.parametrize("text", ["0", "nan", "-1", "inf", "-0.0", "abc"])
def test_lr_not_finite_positive_rejected_at_parse(text):
    line = parse_error(["search", "run", "--log", "x.ndjson", "--lr", text])
    assert line.endswith(f"argument --lr: must be a finite number > 0, got {text!r}")


def test_lr_defaults_to_the_search_config_default():
    args = build_parser().parse_args(["search", "run", "--log", "x.ndjson"])
    assert args.lr == SearchConfig(steps=1).lr == 5e-3


def test_search_run_lr_reaches_the_controller(tmp_path, capsys):
    """``--lr 0.05`` logs the steps of ``run_search`` at ``SearchConfig(lr=0.05)``."""
    cli_log, api_log = tmp_path / "cli.ndjson", tmp_path / "api.ndjson"
    code, _, _ = run(["search", "run", "--variant", "ibn", "--layout", "toy2", "--steps", "40",
                      "--seed", "3", "--lr", "0.05", "--log", str(cli_log)], capsys)
    assert code == 0
    space = build_space("ibn", "neutral", toy2_layout())
    oracle = CapacityOracle(scale_madds=median_madds(space, 3))
    cfg = SearchConfig(steps=40, seed=3, lr=0.05)
    _, log = run_search(space, oracle, BUILTIN_DEVICES["cpu_sim"], cfg)
    write_log(log, api_log)
    _, default_log = run_search(space, oracle, BUILTIN_DEVICES["cpu_sim"],
                                SearchConfig(steps=40, seed=3))
    steps = [[line for line in path.read_text().splitlines() if '"type": "step"' in line]
             for path in (cli_log, api_log)]
    assert len(steps[0]) == 40 and steps[0] == steps[1]
    assert log.steps != default_log.steps  # the rate changes the trajectory


def test_analyze_matches_network_cost(tmp_path, capsys):
    net, path = write_arch(tmp_path)
    out_path = tmp_path / "table.csv"
    code, _, _ = run(["analyze", "--arch", str(path), "-o", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# hwnas 0.1.0")
    assert any("invocation:" in line for line in lines[:3])
    rows = [r for r in csv.reader(out_path.open()) if r and not r[0].startswith("#")]
    totals = rows[-1]
    cost = network_cost(net)
    assert totals[0] == "total"
    assert int(totals[-2]) == cost.total_madds
    assert int(totals[-1]) == cost.total_params


def test_analyze_table_is_pinned(tmp_path, capsys):
    """Every cell of the analyze table, h_out/w_out included, for one default network
    with squeeze-excite and stride-2 layers of all three kinds."""
    space = build_space("ibn_fused_tucker", "cpu", default_layout())
    net = decode(space, random_sample(space, np.random.default_rng(3)))
    path = tmp_path / "arch.json"
    save_file(net, path)
    out_path = tmp_path / "table.csv"
    code, _, _ = run(["analyze", "--arch", str(path), "-o", str(out_path)], capsys)
    assert code == 0
    rows = [line for line in out_path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 1 + 17 + 1  # header, stem, layers, total
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "dcf03b530656659ca144ffcea7b307bde07edf98b6ab70df0c7a8d73e80566fe")


def test_export_dot(tmp_path, capsys):
    _, path = write_arch(tmp_path)
    out_path = tmp_path / "net.dot"
    code, _, _ = run(["export", "dot", "--arch", str(path), "-o", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("// hwnas 0.1.0")
    assert "digraph network" in text and "Tucker" in text


def test_bench_fit_eval_pipeline(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    code, out, _ = run(
        ["bench", "generate", "--variant", "ibn_fused_tucker", "--layout", "toy2",
         "--device", "accel_sim", "-n", "600", "--seed", "3", "-o", str(bench)],
        capsys,
    )
    assert code == 0 and "600 benchmark records" in out

    model_path = tmp_path / "model.json"
    code, out, err = run(
        ["cost", "fit", "--variant", "ibn_fused_tucker", "--layout", "toy2",
         "--bench", str(bench), "--seed", "1", "-o", str(model_path)],
        capsys,
    )
    assert code == 0 and not err
    assert "on 480 records (3.72 records per weight)" in out
    model = load_model(model_path)
    assert model.train_r2 > 0.999999
    assert model.holdout_r2 is not None and model.holdout_r2 > 0.99

    net, arch_path = write_arch(tmp_path)
    code, out, _ = run(["cost", "eval", "--model", str(model_path),
                        "--arch", str(arch_path)], capsys)
    assert code == 0
    from hwnas.cost import BUILTIN_DEVICES, simulate_latency

    assert float(out.strip()) == pytest.approx(
        simulate_latency(BUILTIN_DEVICES["accel_sim"], net), rel=1e-4
    )


def test_bench_deterministic_per_seed(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path in (a, b):
        code, _, _ = run(
            ["bench", "generate", "--variant", "ibn", "--layout", "toy2",
             "-n", "20", "--seed", "5", "-o", str(out_path)],
            capsys,
        )
        assert code == 0
    def latencies(path):
        rows = [r for r in csv.reader(path.open()) if r and not r[0].startswith("#")]
        return [r[1] for r in rows[1:]]

    assert latencies(a) == latencies(b)


def test_bench_generate_toy2_is_pinned(tmp_path, capsys):
    """20 ``toy2`` records at seed 0: CSV data rows, vectors and decoded networks are pinned.

    A change to the sampling stream or to the pricing shows here, and each
    vector decodes to its row's architecture. The bytes of the architecture
    files are deliberately not pinned; any JSON layout reads.
    """
    bench = tmp_path / "b.csv"
    code, _, _ = run(["bench", "generate", "--layout", "toy2", "-n", "20", "--seed", "0",
                      "-o", str(bench)], capsys)
    assert code == 0
    text = bench.read_text()
    space = build_space("ibn", "neutral", toy2_layout())
    assert f"# {space_line(space, 'ibn/neutral/toy2')}\n" in text
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    signatures = [functional_signature(load_file(tmp_path / row[0])) for row in rows[1:]]
    assert len(signatures) == 20
    # the arch_file,latency_ms columns, as the two-column format wrote them
    assert hashlib.sha256("".join(",".join(row[:2]) + "\n" for row in rows).encode()
                          ).hexdigest() == (
        "782b06cd7b431758a16dd04c116accbdc6696d8b083d95f8eabaa201f066909a")
    assert hashlib.sha256(repr(signatures).encode()).hexdigest() == (
        "963462739fdba5baafcac26f559c02ff7652b9b46da9641a31b5e964ce93a020")
    vectors = [tuple(map(int, row[2].split())) for row in rows[1:]]
    assert [functional_signature(decode(space, dv)) for dv in vectors] == signatures
    assert hashlib.sha256(repr(vectors).encode()).hexdigest() == (
        "2738cd3a96f216f9949aed8f3c50deaed4fe5a24dcccda198688bbd2ea0ed9a8")


def test_search_run_outputs(tmp_path, capsys):
    log = tmp_path / "log.ndjson"
    best = tmp_path / "best.json"
    dot = tmp_path / "best.dot"
    svg = tmp_path / "scatter.svg"
    code, out, _ = run(
        ["search", "run", "--variant", "ibn", "--layout", "toy2", "--device", "cpu_sim",
         "--oracle", "linear", "--tau", "-2.0", "--steps", "60", "--seed", "7",
         "--log", str(log), "--best", str(best), "--dot", str(dot), "--svg", str(svg)],
        capsys,
    )
    assert code == 0 and "final reward" in out
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[0]["type"] == "meta" and lines[0]["seed"] == 7
    assert "invocation" in lines[0]
    assert len(lines) == 62  # meta + 60 steps + final
    loaded = load_file(best)
    assert loaded.blocks  # decodes and validates
    assert dot.read_text().startswith("// hwnas")
    assert svg.read_text().startswith("<!-- hwnas")
    assert "<svg" in svg.read_text()


def test_cost_fit_warns_when_it_interpolates(tmp_path, capsys):
    """Fewer training records than buckets fit the training data exactly, so
    a train r2 of 1.000000 says nothing; only the holdout r2 measures the model."""
    bench = tmp_path / "bench.csv"
    space_args = ["--variant", "ibn_fused_tucker", "--layout", "toy2"]
    run(["bench", "generate", *space_args, "--device", "accel_sim", "-n", "100",
         "--seed", "3", "-o", str(bench)], capsys)
    code, out, err = run(["cost", "fit", *space_args, "--bench", str(bench),
                          "-o", str(tmp_path / "model.json")], capsys)
    assert code == 0
    assert "fitted 129 buckets on 80 records (0.62 records per weight); train r2 1.000000" in out
    assert err.startswith("warning: train r2 1.000000 from fewer records than buckets")


def test_cost_fit_prices_vectors_without_architecture_files(tmp_path, capsys):
    """A vector CSV fits after its architecture directory is deleted, to the
    model its two-column copy (read from the files) gives."""
    space_args = ["--variant", "ibn_fused_tucker", "--layout", "toy2"]
    bench, two_column = tmp_path / "bench.csv", tmp_path / "two_column.csv"
    code, _, _ = run(["bench", "generate", *space_args, "--device", "accel_sim", "-n", "300",
                      "--seed", "3", "-o", str(bench)], capsys)
    assert code == 0
    two_column.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                                  for line in bench.read_text().splitlines()))
    models = []
    for csv_path in (two_column, bench):
        if csv_path == bench:
            shutil.rmtree(tmp_path / "bench_archs")
        model_path = tmp_path / f"{csv_path.stem}.model.json"
        code, out, err = run(["cost", "fit", *space_args, "--bench", str(csv_path),
                              "-o", str(model_path)], capsys)
        assert code == 0, err
        assert "the training records touch 95.3% of the buckets" in out
        models.append(load_model(model_path))
    a, b = models
    assert np.array_equal(a.weights, b.weights)
    assert (a.intercept, a.train_r2) == (b.intercept, b.train_r2)
    assert abs(a.holdout_r2 - b.holdout_r2) <= 1e-12


def test_cost_fit_rejects_vectors_from_another_space(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    run(["bench", "generate", "--variant", "ibn", "--layout", "toy2", "-n", "20",
         "-o", str(bench)], capsys)
    code, _, err = run(["cost", "fit", "--variant", "ibn_fused_tucker", "--layout", "toy2",
                        "--bench", str(bench), "-o", str(tmp_path / "model.json")], capsys)
    assert code == 1
    ibn, tucker = (build_space(variant, "neutral", toy2_layout())
                   for variant in ("ibn", "ibn_fused_tucker"))
    assert err == (f"error: ParseError: {bench}: its vectors are from space "
                   f"{space_line(ibn, 'ibn/neutral/toy2')[7:]}, "
                   f"not {space_line(tucker, 'ibn_fused_tucker/neutral/toy2')[7:]}\n")


def test_cost_fit_knows_a_space_file_by_its_content(tmp_path, capsys, monkeypatch):
    """The same space file named another way is accepted; one edited in place
    after ``bench generate`` (same vector length, other atoms) is not."""
    monkeypatch.chdir(tmp_path)
    doc = {"variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
           "multiplier_menu": [1.0], "kernel_menu": [3, 5], "expansion_menu": [4.0],
           "compression_menu": [0.25], "enumeration_cap": 100}
    (tmp_path / "space.json").write_text(json.dumps(doc))
    code, _, _ = run(["bench", "generate", "--space", "space.json", "-n", "20",
                      "-o", "bench.csv"], capsys)
    assert code == 0
    fit_argv = ["cost", "fit", "--space", "./space.json", "--bench", "bench.csv",
                "-o", "model.json"]
    code, _, err = run(fit_argv, capsys)
    assert code == 0, err
    (tmp_path / "space.json").write_text(json.dumps({**doc, "expansion_menu": [6.0]}))
    code, _, err = run(fit_argv, capsys)
    assert code == 1
    assert err.startswith("error: ParseError: bench.csv: its vectors are from space space.json ")
    assert "not ./space.json " in err and err.count("\n") == 1


def test_search_run_with_fitted_model(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    model = tmp_path / "model.json"
    log = tmp_path / "run.ndjson"
    for argv in (
        ["bench", "generate", "--variant", "ibn", "--layout", "toy2",
         "--device", "cpu_sim", "-n", "200", "--seed", "0", "-o", str(bench)],
        ["cost", "fit", "--variant", "ibn", "--layout", "toy2",
         "--bench", str(bench), "-o", str(model)],
        ["search", "run", "--variant", "ibn", "--layout", "toy2",
         "--model", str(model), "--steps", "40", "--seed", "1", "--log", str(log)],
    ):
        code, _, err = run(argv, capsys)
        assert code == 0, err
    meta = json.loads(log.read_text().splitlines()[0])
    assert meta["latency_source"].startswith("model:")


def fit_model_on(tmp_path, capsys, space_args):
    """Generate 60 records on ``space_args`` and fit a model; returns its path."""
    bench, model = tmp_path / "bench.csv", tmp_path / "model.json"
    for argv in (["bench", "generate", *space_args, "--device", "accel_sim", "-n", "60",
                  "-o", str(bench)],
                 ["cost", "fit", *space_args, "--bench", str(bench), "-o", str(model)]):
        code, _, err = run(argv, capsys)
        assert code == 0, err
    return model


@pytest.mark.parametrize("command", [["run", "--steps", "5", "--log", "{tmp}/run.ndjson"],
                                     ["exhaustive"]], ids=["run", "exhaustive"])
def test_search_rejects_a_model_fitted_on_another_space(tmp_path, capsys, command):
    """The bucket key carries no squeeze-excite, so a cpu model would price a
    neutral space's layers silently; the space digest tells the two apart."""
    cpu = ["--variant", "ibn", "--adaptation", "cpu", "--layout", "toy2"]
    model = fit_model_on(tmp_path, capsys, cpu)
    neutral = ["--variant", "ibn", "--adaptation", "neutral", "--layout", "toy2"]
    argv = ["search", *[a.format(tmp=tmp_path) for a in command], *neutral, "--model", str(model)]
    code, out, err = run(argv, capsys)
    spaces = [space_line(build_space("ibn", adaptation, toy2_layout()), f"ibn/{adaptation}/toy2")
              for adaptation in ("cpu", "neutral")]
    assert code == 1 and not out
    assert err == (f"error: ParseError: {model}: it was fitted on space {spaces[0][7:]}, "
                   f"not {spaces[1][7:]}\n")


def test_search_accepts_a_model_of_the_same_space_named_by_a_file(tmp_path, capsys):
    model = fit_model_on(tmp_path, capsys,
                         ["--variant", "ibn", "--adaptation", "cpu", "--layout", "toy2"])
    doc = {"variant": "ibn", "adaptation": "cpu", "layout_ref": "toy2",
           "multiplier_menu": list(DEFAULT_MULTIPLIERS), "kernel_menu": list(DEFAULT_KERNELS),
           "expansion_menu": list(DEFAULT_EXPANSIONS),
           "compression_menu": list(DEFAULT_COMPRESSIONS), "enumeration_cap": 1000}
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(doc))
    code, _, err = run(["search", "run", "--space", str(space_path), "--model", str(model),
                        "--steps", "5", "--log", str(tmp_path / "run.ndjson")], capsys)
    assert code == 0, err


def test_search_run_deterministic(tmp_path, capsys):
    logs = []
    for name in ("l1.ndjson", "l2.ndjson"):
        path = tmp_path / name
        code, _, _ = run(
            ["search", "run", "--variant", "ibn", "--layout", "toy2",
             "--steps", "30", "--seed", "11", "--log", str(path)],
            capsys,
        )
        assert code == 0
        logs.append([line for line in path.read_text().splitlines()[1:]])
    assert logs[0] == logs[1]


def test_search_exhaustive(tmp_path, capsys):
    best = tmp_path / "best.json"
    code, out, _ = run(
        ["search", "exhaustive", "--variant", "ibn", "--layout", "toy2",
         "--device", "accel_sim", "--seed", "2", "--best", str(best)],
        capsys,
    )
    assert code == 0
    assert "over 112 architectures" in out
    assert load_file(best).blocks


def test_search_ablation(tmp_path, capsys):
    report = tmp_path / "ablation.csv"
    code, out, _ = run(
        ["search", "ablation", "--layout", "toy2", "--variants", "ibn,ibn_fused_tucker",
         "--devices", "cpu_sim,accel_sim", "--seed", "0", "-o", str(report)],
        capsys,
    )
    assert code == 0
    rows = [r for r in csv.reader(report.open()) if r and not r[0].startswith("#")]
    assert rows[0] == ["space", "device", "reward", "latency_ms", "madds", "params",
                       "frac_regular_all", "frac_regular_early"]
    assert len(rows) == 5


def test_decomp_demo(tmp_path, capsys):
    kernel_path = tmp_path / "kernel.bin"
    save_kernel(np.random.default_rng(0).standard_normal((3, 3, 4, 4)), kernel_path)
    out_path = tmp_path / "table.csv"
    code, _, _ = run(["decomp", "demo", "--kernel", str(kernel_path),
                      "-o", str(out_path)], capsys)
    assert code == 0
    rows = [r for r in csv.reader(out_path.open()) if r and not r[0].startswith("#")]
    assert rows[0] == ["rank_in", "rank_out", "rel_error", "madds_ratio"]
    assert len(rows) == 17  # header + 4x4 rank grid
    assert float(rows[-1][2]) <= 1e-10


def test_missing_file_is_one_line_error(tmp_path, capsys):
    code, _, err = run(["analyze", "--arch", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert err.startswith("error: FileNotFoundError:")
    assert err.count("\n") == 1


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["space", "size", "--nonsense", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, argv", [
    ("--arch", ["analyze"]),
    ("--space", ["space", "inspect"]),
    ("--model", ["cost", "eval", "--arch", "{arch}"]),
    ("--device", ["bench", "generate", "-n", "1", "-o", "{tmp}/b.csv"]),
    ("--kernel", ["decomp", "demo"]),
], ids=["arch", "space", "model", "device", "kernel"])
def test_file_that_is_not_json_is_named(tmp_path, capsys, flag, argv):
    _, arch = write_arch(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    argv = [a.format(arch=arch, tmp=tmp_path) for a in argv] + [flag, str(bad)]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err == (f"error: ParseError: {bad}: invalid JSON at line 1 column 1: "
                   "Expecting value\n")


@pytest.mark.parametrize("command", [["analyze"], ["export", "dot", "-o", "{tmp}/a.dot"]],
                         ids=["analyze", "dot"])
@pytest.mark.parametrize("field", ["multiplier", "expansion"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_width_or_ratio_is_a_violation(tmp_path, capsys, command, field, value):
    path = tmp_path / "arch.json"
    save_file(toy2_layout(), path)  # IBN layers: both fields present
    doc = json.loads(path.read_text())
    block = doc["blocks"][0]
    (block if field == "multiplier" else block["layers"][0])[field] = value
    path.write_text(json.dumps(doc))
    argv = [a.format(tmp=tmp_path) for a in command] + ["--arch", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith(f"error: InvalidArchitectureError: {path}: block 0")
    assert field in err and err.count("\n") == 1


def test_corrupt_arch_file_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"input_resolution": 32}')
    code, _, err = run(["analyze", "--arch", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error: ParseError:")


@pytest.mark.parametrize("stale", [
    {"channel_bands": False},  # a file written before the version field
    {"version": 1},
    {"version": "2"},
    {"version": 2},  # a file whose space_ref lacks the space's digest
])
def test_cost_eval_rejects_a_model_file_of_another_version(tmp_path, capsys, stale):
    space = build_space("ibn_fused_tucker", "neutral", toy2_layout())
    records = generate_benchmarks(space, BUILTIN_DEVICES["cpu_sim"], 50, np.random.default_rng(0))
    model_path = tmp_path / "model.json"
    save_model(fit(records, space), model_path)
    doc = json.loads(model_path.read_text())
    del doc["version"]
    model_path.write_text(json.dumps({**doc, **stale}))
    _, arch_path = write_arch(tmp_path)
    code, out, err = run(["cost", "eval", "--model", str(model_path), "--arch", str(arch_path)],
                         capsys)
    assert code == 1 and not out
    assert err == (f"error: ValueError: {model_path}: model file version "
                   f"{stale.get('version')!r}, expected 3; refit it with 'hwnas cost fit'\n")
