"""CLI subcommands: delegation, determinism, output stamping, error paths."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from hwnas.analysis import network_cost
from hwnas.arch import (MAX_RESOLUTION, default_layout, functional_signature, load_file,
                        save_file, serialize, toy2_layout)
from hwnas.cli import build_parser, main
from hwnas.cost import (BUILTIN_DEVICES, fit, generate_benchmarks, load_model, save_model,
                        space_id, space_line)
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


def test_enumerate_cap_env(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
        "multiplier_menu": list(DEFAULT_MULTIPLIERS), "kernel_menu": list(DEFAULT_KERNELS),
        "expansion_menu": list(DEFAULT_EXPANSIONS), "compression_menu": [0.25],
        "enumeration_cap": 50}))
    code, _, err = run(["space", "enumerate", "--space", str(path),
                        "-o", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert err.startswith("error: EnumerationCapError:")


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


@pytest.mark.parametrize("option", [["--noise-mode", "iid"], ["--early-bonus", "0.1"]])
def test_removed_search_options_are_unrecognized(option):
    assert parse_error(SEARCH_COMMANDS[0] + option) == (
        f"hwnas: error: unrecognized arguments: {' '.join(option)}")


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


RUN_ARGS = ["search", "run", "--log", "x.ndjson"]
GENERATE_ARGS = ["bench", "generate", "-n", "2", "-o", "b.csv"]
DEMO_ARGS = ["decomp", "demo", "--kernel", "k.bin"]


@pytest.mark.parametrize("command, flag, value, minimum", [
    (RUN_ARGS, "--seed", "-1", 0),
    (["search", "exhaustive"], "--seed", "-1", 0),
    (["search", "ablation", "-o", "x.csv"], "--seed", "-1", 0),
    (GENERATE_ARGS, "--seed", "-1", 0),
    (FIT_ARGS, "--seed", "1.5", 0),
    (RUN_ARGS, "--steps", "0", 1),
    (RUN_ARGS, "--samples-per-step", "-3", 1),
    (["bench", "generate", "-o", "b.csv"], "-n", "0", 1),
    (["bench", "generate", "-o", "b.csv"], "--num", "abc", 1),
    (DEMO_ARGS, "--height", "0", 1),
    (DEMO_ARGS, "--width", "nan", 1),
])
def test_a_bad_integer_is_rejected_at_parse_naming_its_flag(command, flag, value, minimum):
    name = "-n/--num" if flag in ("-n", "--num") else flag
    assert parse_error(command + [flag, value]).endswith(
        f"argument {name}: must be an integer >= {minimum}, got {value!r}")


ABLATION_ARGS = ["search", "ablation", "-o", "x.csv"]


@pytest.mark.parametrize("command, flag, value", [
    (["space", "size"], "--space", ""),
    (["space", "inspect"], "--layout", ""),
    (["space", "enumerate"], "-o", ""),
    (["analyze"], "--arch", ""),
    (["analyze", "--arch", "a.json"], "--out", ""),
    (["export", "dot"], "--arch", ""),
    (["export", "dot", "--arch", "a.json"], "-o", ""),
    (GENERATE_ARGS, "--device", ""),
    (GENERATE_ARGS, "--arch-dir", ""),
    (["bench", "generate", "-n", "2"], "--out", ""),
    (["cost", "fit", "-o", "m.json"], "--bench", ""),
    (["cost", "fit", "--bench", "b.csv"], "-o", ""),
    (["cost", "eval", "--arch", "a.json"], "--model", ""),
    (["cost", "eval", "--model", "m.json"], "--arch", ""),
    (RUN_ARGS, "--model", ""),
    (RUN_ARGS, "--device", ""),
    (RUN_ARGS, "--space", ""),
    (RUN_ARGS, "--best", ""),
    (RUN_ARGS, "--dot", ""),
    (RUN_ARGS, "--svg", ""),
    (["search", "run"], "--log", ""),
    (["search", "exhaustive"], "--model", ""),
    (["search", "exhaustive"], "--device", ""),
    (["search", "exhaustive"], "--best", ""),
    (ABLATION_ARGS, "--layout", ""),
    (ABLATION_ARGS, "--devices", ""),
    (ABLATION_ARGS, "--devices", "cpu_sim,"),
    (ABLATION_ARGS, "--devices", "cpu_sim,,accel_sim"),
    (["search", "ablation"], "-o", ""),
    (DEMO_ARGS[:2], "--kernel", ""),
    (DEMO_ARGS, "-o", ""),
])
def test_an_empty_path_or_name_is_rejected_at_parse_naming_its_flag(command, flag, value):
    name = "-o/--out" if flag in ("-o", "--out") else flag
    assert parse_error(command + [flag, value]).endswith(
        f"argument {name}: a path or name must not be empty, got ''")


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
    files are pinned too: ``serialize`` must keep writing them as one dump of
    the whole document would.
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
        "770898fa26667788db5cb2c503ac0d57575835421a9154b9c87758a4e7b3f35b")
    vectors = [tuple(map(int, row[2].split())) for row in rows[1:]]
    assert [functional_signature(decode(space, dv)) for dv in vectors] == signatures
    assert hashlib.sha256(repr(vectors).encode()).hexdigest() == (
        "2738cd3a96f216f9949aed8f3c50deaed4fe5a24dcccda198688bbd2ea0ed9a8")
    archs = b"".join((tmp_path / row[0]).read_bytes() for row in rows[1:])
    assert hashlib.sha256(archs).hexdigest() == (
        "7cfe5286d8363608760ddd4a254bcd532fe1f179cdced5ed5038b488c41c6ad2")


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


def test_search_run_with_a_huge_penalty_fails_naming_the_reward_bound(tmp_path, capsys):
    code, out, err = run(["search", "run", "--variant", "ibn", "--layout", "toy2", "--steps",
                          "3", "--tau=-1e300", "--log", str(tmp_path / "run.ndjson")], capsys)
    assert code == 1 and not out and err.count("\n") == 1
    assert err.startswith("error: RuntimeError: search aborted at step 0: ") and "1e+150" in err


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


ARCH_PAST = "InvalidArchitectureError: {path}: block 0"
EXPANSION_PAST = ("InvalidArchitectureError: {path}: atom ibn_k3_s1e+308: expansion 1e+308 "
                  "widens 40 channels past 1048576")
MULTIPLIER_PAST = "ValueError: {path}: multiplier menu: 1e+200 puts a block width past 1048576"
SEARCH_RUN = ["search", "run", "--steps", "5", "--log", "{tmp}/log.ndjson"]


@pytest.mark.parametrize("argv, field, value, message", [
    (["analyze"], "expansion", 1e308,
     ARCH_PAST + " layer 0: expansion 1e+308 widens 40 channels past 1048576"),
    (["export", "dot"], "multiplier", 1e200, ARCH_PAST + ": multiplier 1e+200 puts its width "
     "past 1048576"),
    (["analyze"], "base_channels", 10**400, ARCH_PAST + ": multiplier 1.0 puts its width past "
     "1048576"),
    (["space", "inspect"], "expansion_menu", [1e308], EXPANSION_PAST),
    (SEARCH_RUN, "expansion_menu", [1e308], EXPANSION_PAST),
    (["space", "inspect"], "multiplier_menu", [1e200], MULTIPLIER_PAST),
    (SEARCH_RUN, "multiplier_menu", [1e200], MULTIPLIER_PAST),
    (["search", "exhaustive"], "multiplier_menu", [1e200], MULTIPLIER_PAST),
], ids=["analyze", "dot", "analyze-base", "inspect-expansion", "run-expansion",
        "inspect-multiplier", "run-multiplier", "exhaustive-multiplier"])
def test_a_width_past_the_limit_is_reported(tmp_path, capsys, argv, field, value, message):
    path = tmp_path / "in.json"
    if field.endswith("_menu"):
        doc = {"variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
               "multiplier_menu": [1.0], "kernel_menu": [3], "expansion_menu": [4.0],
               "compression_menu": [0.25], "enumeration_cap": 100, field: value}
    else:
        save_file(toy2_layout(), path)
        doc = json.loads(path.read_text())
        block = doc["blocks"][0]
        (block["layers"][0] if field == "expansion" else block)[field] = value
    path.write_text(json.dumps(doc))
    flag = "--space" if field.endswith("_menu") else "--arch"
    code, _, err = run([a.format(tmp=tmp_path) for a in argv] + [flag, str(path)], capsys)
    assert (code, err) == (1, f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv", [
    ["space", "inspect", "--layout"],
    ["search", "run", "--steps", "3", "--log", "{tmp}/log.ndjson", "--layout"],
    ["search", "exhaustive", "--layout"],
    ["bench", "generate", "-n", "3", "-o", "{tmp}/b.csv", "--layout"],
    ["analyze", "--arch"],
], ids=["inspect", "run", "exhaustive", "generate", "analyze"])
def test_a_resolution_past_the_limit_is_reported(tmp_path, capsys, argv):
    """Sizes past the limit would push multiply-add counts past float range."""
    path = tmp_path / "layout.json"
    doc = json.loads(serialize(toy2_layout()))
    doc["input_resolution"] = 10**200
    path.write_text(json.dumps(doc))
    code, _, err = run([a.format(tmp=tmp_path) for a in argv] + [str(path)], capsys)
    assert (code, err) == (1, f"error: InvalidArchitectureError: {path}: input_resolution "
                              f"must be at most {MAX_RESOLUTION}, got {10**200}\n")


@pytest.mark.parametrize("argv", [
    ["space", "inspect", "--space"],
    ["search", "run", "--steps", "3", "--log", "{tmp}/log.ndjson", "--space"],
    ["bench", "generate", "-n", "3", "-o", "{tmp}/b.csv", "--space"],
    ["analyze", "--arch"],
], ids=["inspect", "run", "generate", "analyze"])
def test_a_kernel_past_the_limit_is_reported(tmp_path, capsys, argv):
    """Kernels past the limit would push multiply-add counts past float range."""
    kernel = 10**200 + 1
    path = tmp_path / "in.json"
    if argv[0] == "analyze":
        doc = json.loads(serialize(toy2_layout()))
        doc["blocks"][0]["layers"][0]["kernel"] = kernel
        where = "block 0 layer 0"
    else:
        doc = {"variant": "ibn", "adaptation": "neutral", "layout_ref": "toy2",
               "multiplier_menu": [1.0], "kernel_menu": [kernel], "expansion_menu": [4.0],
               "compression_menu": [0.25], "enumeration_cap": 100}
        where = f"atom ibn_k{kernel}_s4"
    path.write_text(json.dumps(doc))
    code, _, err = run([a.format(tmp=tmp_path) for a in argv] + [str(path)], capsys)
    assert (code, err) == (1, f"error: InvalidArchitectureError: {path}: {where}: kernel must "
                              f"be at most 1048576, got {kernel}\n")


# An integer literal past Python's 4,300-digit limit for int-from-text conversion.
# json.dumps cannot write one, so write_doc puts it in the file text in place of HUGE.
HUGE = "<a 5,001-digit integer>"
ODD_VALUES = [0, -1, math.nan, 1e308, 10**200, 10**200 + 1, 2**63, 10**400, "ibn", [0.5, 0.5],
              None, HUGE]
ARCH_DOCS = [json.loads(serialize(layout())) for layout in (toy2_layout, default_layout)]
SPACE_DOC = {"variant": "ibn_fused_tucker", "adaptation": "neutral", "layout_ref": "toy2",
             "multiplier_menu": [0.5, 1.0], "kernel_menu": [3, 5], "expansion_menu": [3.0, 6.0],
             "compression_menu": [0.25, 0.75], "enumeration_cap": 100}
DEVICE_DOC = dataclasses.asdict(BUILTIN_DEVICES["accel_sim"])


def fitted_model_doc() -> dict:
    """A model fitted on the CLI's default space, ibn/neutral/toy2, as its file holds it."""
    space = build_space("ibn", "neutral", toy2_layout())
    records = generate_benchmarks(space, BUILTIN_DEVICES["cpu_sim"], 40, np.random.default_rng(0))
    model = fit(records, space, space_ref=space_id(space, "ibn/neutral/toy2"))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.json")
        return json.loads((Path(tmp) / "model.json").read_text())


MODEL_DOC = fitted_model_doc()


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE), "9" * 5001))
    return path


def value_paths(value, at=()):
    """The key and index path of every value nested in a JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield at + (key,)
            yield from value_paths(item, at + (key,))


def with_value(doc, at: tuple, value):
    """A deep copy of ``doc`` with the value at path ``at`` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, key = at
    field = doc
    for parent in parents:
        field = field[parent]
    field[key] = value
    return doc


def assert_loads_or_fails_in_one_line(path: Path, commands, tmp: str) -> None:
    """Each command, its ``{tmp}`` filled in and ``path`` appended, exits 0 silently or
    exits 1 with one ``error:`` line naming ``path``."""
    for command in commands:
        argv = [a.format(tmp=tmp) for a in command] + [str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")
                                          and err.count("\n") == 1 and f"{path}: " in err), (
            argv, err)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_an_architecture_document_with_one_odd_field_loads_or_fails_in_one_line(data):
    """One field of the toy2 or default document, a container or a leaf, set to an odd
    value: ``analyze`` and ``export dot`` succeed, or exit 1 with one ``error:`` line
    naming the file."""
    doc = data.draw(st.sampled_from(ARCH_DOCS))
    doc = with_value(doc, data.draw(st.sampled_from(list(value_paths(doc)))),
                     data.draw(st.sampled_from(ODD_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(Path(tmp) / "arch.json", doc)
        assert_loads_or_fails_in_one_line(path, [["analyze", "--arch"],
                                                 ["export", "dot", "--arch"]], tmp)


SEARCH_TWO_STEPS = ["search", "run", "--steps", "2", "--log", "{tmp}/log.ndjson"]
GENERATE_TWO = ["bench", "generate", "-n", "2", "-o", "{tmp}/b.csv"]


@settings(max_examples=40, deadline=None)
@given(at=st.sampled_from(list(value_paths(SPACE_DOC))), value=st.sampled_from(ODD_VALUES))
@example(at=("enumeration_cap",), value=HUGE)
def test_a_space_document_with_one_odd_field_loads_or_fails_in_one_line(at, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(Path(tmp) / "space.json", with_value(SPACE_DOC, at, value))
        assert_loads_or_fails_in_one_line(path, [["space", "inspect", "--space"],
                                                 SEARCH_TWO_STEPS + ["--space"],
                                                 GENERATE_TWO + ["--space"]], tmp)


@settings(max_examples=40, deadline=None)
@given(at=st.sampled_from(list(value_paths(DEVICE_DOC))), value=st.sampled_from(ODD_VALUES))
@example(at=("regular_conv",), value=HUGE)
@example(at=("regular_conv",), value=1e308)
def test_a_device_document_with_one_odd_field_loads_or_fails_in_one_line(at, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(Path(tmp) / "device.json", with_value(DEVICE_DOC, at, value))
        assert_loads_or_fails_in_one_line(path, [SEARCH_TWO_STEPS + ["--device"],
                                                 GENERATE_TWO + ["--device"]], tmp)


@settings(max_examples=40, deadline=None)
@given(at=st.sampled_from(list(value_paths(MODEL_DOC))), value=st.sampled_from(ODD_VALUES))
@example(at=("intercept",), value=HUGE)
@example(at=("buckets", 0), value="ibn")
@example(at=("weights",), value=[0.5, 0.5])
def test_a_model_document_with_one_odd_field_loads_or_fails_in_one_line(at, value):
    with tempfile.TemporaryDirectory() as tmp:
        save_file(toy2_layout(), Path(tmp) / "arch.json")
        path = write_doc(Path(tmp) / "model.json", with_value(MODEL_DOC, at, value))
        assert_loads_or_fails_in_one_line(
            path, [["cost", "eval", "--arch", "{tmp}/arch.json", "--model"]], tmp)


def generated_csv(tmp: Path) -> Path:
    """Six ``toy2`` records at seed 0, with their architecture files."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", "generate", "-n", "6", "-o", str(tmp / "b.csv")]) == 0
    return tmp / "b.csv"


with tempfile.TemporaryDirectory() as _tmp:
    CSV_ROWS = list(csv.reader(generated_csv(Path(_tmp)).open(newline="")))
CSV_FIELDS = [(r, c) for r, row in enumerate(CSV_ROWS) for c in range(len(row))]
FIRST_LATENCY = (CSV_ROWS.index(["arch_file", "latency_ms", "vector"]) + 1, 1)


@settings(max_examples=40, deadline=None)
@given(at=st.sampled_from(CSV_FIELDS), value=st.sampled_from(ODD_VALUES))
@example(at=FIRST_LATENCY, value=1e200)
def test_a_benchmark_csv_with_one_odd_field_fits_or_fails_in_one_line(at, value):
    """One field of a benchmark CSV, a comment line included, set to an odd value:
    ``cost fit`` writes a model that ``load_model`` reads back, or exits 1 with one
    ``error:`` line naming the CSV. No overflow may warn on the way."""
    with tempfile.TemporaryDirectory() as tmp:
        path = generated_csv(Path(tmp))
        rows = list(csv.reader(path.open(newline="")))
        rows[at[0]][at[1]] = ("" if value is None else "9" * 5001 if value == HUGE
                              else str(value))
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        model = Path(tmp) / "m.json"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["cost", "fit", "--bench", str(path), "-o", str(model)])
        err = err.getvalue()
        if code == 0:
            load_model(model)
        else:
            assert (code == 1 and err.startswith("error: ") and err.count("\n") == 1
                    and str(path) in err), err


KERNEL_DOC = {"dims": [1, 1, 2, 2], "data": [0.5, -1.0, 2.0, 0.25]}
PAST_THE_NORM = [1e160, -1e160, 1e160, 1e160]  # the sum of their squares overflows


def write_bin_kernel(path: Path, doc) -> bool:
    """Write ``doc`` as a binary kernel file; False when its values have no binary form."""
    try:
        raw = struct.pack("<4I", *doc["dims"]) + np.array(doc["data"], "<f8").tobytes()
    except (struct.error, TypeError, ValueError, OverflowError):
        return False
    path.write_bytes(raw)
    return True


@settings(max_examples=40, deadline=None)
@given(at=st.sampled_from(list(value_paths(KERNEL_DOC))), value=st.sampled_from(ODD_VALUES))
@example(at=("data",), value=PAST_THE_NORM)
@example(at=("dims",), value=[2, 2, 1, 1])
def test_a_kernel_file_with_one_odd_field_tabulates_or_fails_in_one_line(at, value):
    """One field of a ``.json`` kernel, and of its ``.bin`` form where it has one, set to an
    odd value: ``decomp demo`` writes a table without ``nan``, or exits 1 with one ``error:``
    line naming the file."""
    doc = with_value(KERNEL_DOC, at, value)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_doc(Path(tmp) / "kernel.json", doc)]
        if write_bin_kernel(Path(tmp) / "kernel.bin", doc):
            paths.append(Path(tmp) / "kernel.bin")
        for path in paths:
            table = Path(tmp) / "table.csv"
            table.unlink(missing_ok=True)
            assert_loads_or_fails_in_one_line(
                path, [["decomp", "demo", "-o", str(table), "--kernel"]], tmp)
            assert not table.exists() or "nan" not in table.read_text()


@pytest.mark.parametrize("name, doc, command", [
    ("arch.json", {**ARCH_DOCS[0], "stem_channels": HUGE}, ["analyze", "--arch"]),
    ("space.json", {**SPACE_DOC, "enumeration_cap": HUGE}, ["space", "inspect", "--space"]),
    ("device.json", {**DEVICE_DOC, "regular_conv": HUGE}, GENERATE_TWO + ["--device"]),
    ("model.json", {**MODEL_DOC, "intercept": HUGE},
     ["cost", "eval", "--arch", "{tmp}/arch.json", "--model"]),
    ("kernel.json", {"dims": [1, 1, 1, 1], "data": [HUGE]}, ["decomp", "demo", "--kernel"]),
], ids=["arch", "space", "device", "model", "kernel"])
def test_an_integer_literal_past_the_digit_limit_is_reported_with_the_file(
        tmp_path, capsys, name, doc, command):
    save_file(toy2_layout(), tmp_path / "arch.json")
    path = write_doc(tmp_path / name, doc)
    code, _, err = run([a.format(tmp=tmp_path) for a in command] + [str(path)], capsys)
    assert code == 1
    assert err.startswith(f"error: ParseError: {path}: Exceeds the limit") and err.count("\n") == 1


def test_a_document_with_the_stored_depth_stride_and_taps_is_rejected(tmp_path, capsys):
    """Documents once stored each block's depth and first stride and the C4/C5 taps,
    all of which follow from the layers; one such file fails naming the file and its
    first unknown field."""
    doc = json.loads(serialize(default_layout()))
    for block in doc["blocks"]:
        block.update(num_layers=len(block["layers"]), first_stride=block["layers"][0]["stride"])
    doc["endpoints"] = {"c4": 5, "c5": 8}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["analyze", "--arch", str(path)], capsys)
    assert (code, err) == (1, f"error: ParseError: {path}: document: unknown field(s) "
                              "endpoints\n")


@pytest.mark.parametrize("command", [["analyze", "--arch", "{old}"],
                                     ["export", "dot", "--arch", "{old}"],
                                     ["cost", "fit", "--bench", "{csv}", "-o", "{tmp}/m.json"]],
                         ids=["analyze", "dot", "fit"])
@pytest.mark.parametrize("stored", [{"activation": "relu6"}, {"residual": False},
                                    {"activation": "relu6", "residual": False}],
                         ids=["activation", "residual", "both"])
def test_a_document_with_a_stored_activation_or_residual_is_rejected(
        tmp_path, capsys, command, stored):
    """Layers once stored their activation and whether they add their input, both of
    which follow from ``se``, the stride and the widths; such a file fails naming the
    file and the layer's unknown fields, read directly or from a two-column CSV."""
    doc = json.loads(serialize(toy2_layout()))
    for block in doc["blocks"]:
        for layer in block["layers"]:
            layer.update(stored)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    csv_path = tmp_path / "b.csv"
    csv_path.write_text(f"arch_file,latency_ms\n{old},1.5\n{old},2.5\n")
    argv = [a.format(old=old, csv=csv_path, tmp=tmp_path) for a in command]
    code, out, err = run(argv, capsys)
    where = f"{csv_path}, line 2: {old}" if command[0] == "cost" else f"{old}"
    assert (code, out, err) == (1, "", f"error: ParseError: {where}: document.blocks[0]."
                                       f"layers[0]: unknown field(s) {', '.join(stored)}\n")


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


def test_search_names_a_model_file_that_lacks_a_bucket_of_the_space(tmp_path, capsys):
    doc = json.loads(json.dumps(MODEL_DOC))
    missing, doc["buckets"][0] = doc["buckets"][0], "renamed|8|8"
    path = write_doc(tmp_path / "model.json", doc)
    for command in (["run", "--steps", "2", "--log", str(tmp_path / "run.ndjson")],
                    ["run", "--steps", "2", "--budget", "1", "--log", str(tmp_path / "run.ndjson")],
                    ["exhaustive"]):
        code, out, err = run(["search", *command, "--model", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: UnknownBucketError: {path}: unknown feature bucket: {missing}\n"


@pytest.mark.parametrize("command, says", [
    (["run", "--steps", "2", "--log", "{tmp}/run.ndjson"], "the median latency of 256"),
    (["exhaustive"], "the median latency of 256"),
    (["exhaustive", "--budget", "5"], "latency must be positive"),
], ids=["run", "exhaustive", "exhaustive-budget"])
def test_a_model_that_prices_below_zero_is_named(tmp_path, capsys, command, says):
    """A model whose intercept puts every latency below zero: the default budget names the
    model and asks for --budget, and with a budget the first network it prices is named."""
    doc = dict(MODEL_DOC, intercept=MODEL_DOC["intercept"] - 1e4)
    path = write_doc(tmp_path / "neg.json", doc)
    code, out, err = run(["search", *[a.format(tmp=tmp_path) for a in command],
                          "--model", str(path)], capsys)
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"error: ValueError: {path}: ") and says in err
    if "--budget" in command:
        assert re.search(r" \(decision vector \(\d+, \d+, \d+\)\)$", err.strip())
    else:
        assert "model:ibn/neutral/toy2 " in err and err.strip().endswith("with --budget")


@pytest.mark.parametrize("command", [SEARCH_TWO_STEPS, GENERATE_TWO], ids=["search", "generate"])
def test_a_device_that_prices_nothing_is_named(tmp_path, capsys, command):
    zero = dict(DEVICE_DOC, regular_conv=0, depthwise_conv=0, pointwise_conv=0, overhead_ms=0)
    path = write_doc(tmp_path / "zero.json", zero)
    code, out, err = run([a.format(tmp=tmp_path) for a in command] + ["--device", str(path)],
                         capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ParseError: {path}: accel_sim: regular_conv, depthwise_conv, "
                   "pointwise_conv and overhead_ms are all 0, which prices most networks at 0 ms\n")
