"""Command-line entry point.

Subcommands cover every workflow: space inspection and enumeration, exact
cost analysis, benchmark simulation, latency-model fitting and evaluation,
controller and ablation searches, decomposition demos and DOT export.

Every run is seeded through ``--seed`` and every emitted file embeds the tool
version and the exact invocation (``# ...`` comment lines in CSV/DOT/SVG, a
``_meta`` block in JSON documents, a meta record in search logs). Exit code
is 0 on success; failures print one ``error: <Kind>: <message>`` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .arch import (BUILTIN_LAYOUTS, IMAGE_CHANNELS, STEM_KERNEL, STEM_STRIDE, derive_shapes,
                   export_dot, iter_layers, load_file, save_file)
from .analysis import network_cost
from .controller import RewardConfig
from .cost import (
    BUILTIN_DEVICES,
    UnknownBucketError,
    check_space,
    coverage,
    fit,
    generate_benchmarks,
    load_benchmarks,
    load_device,
    load_model,
    predict,
    r2,
    save_benchmarks,
    save_model,
    space_id,
    space_line,
)
from .search import (
    ABLATION_COLUMNS,
    CapacityOracle,
    LinearFeatureOracle,
    SearchConfig,
    ablation_report,
    exhaustive_best,
    median_madds,
    pareto_front,
    resolve_budget,
    run_search,
    write_log,
)
from .space import (
    ADAPTATIONS,
    DEFAULT_ENUM_CAP,
    VARIANTS,
    build_space,
    enumerate_space,
    load_space_file,
    resolve_layout,
    space_size,
)
from .tucker import error_rank_table, load_kernel

PROG = "hwnas"

# argv of the current run, stashed by main() so emitted files can embed the
# exact invocation even when the CLI is driven programmatically
_ARGV: list[str] | None = None


def _invocation() -> str:
    argv = sys.argv[1:] if _ARGV is None else _ARGV
    return " ".join([PROG] + argv)


def _meta_lines(seed: int | None = None) -> list[str]:
    lines = [f"{PROG} {__version__}", f"invocation: {_invocation()}"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def _meta_dict(seed: int | None = None) -> dict:
    meta = {"tool": f"{PROG} {__version__}", "invocation": _invocation()}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _number_arg(ok, rule: str, kind=float):
    """argparse type: a ``kind`` (float or int) for which ``ok`` holds, else a one-line error."""

    def parse(text: str) -> float | int:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_seed = _number_arg(lambda x: x >= 0, "an integer >= 0", int)
_count = _number_arg(lambda x: x >= 1, "an integer >= 1", int)
_budget_ms = _number_arg(lambda x: math.isfinite(x) and x > 0, "a positive number of ms")
_holdout_frac = _number_arg(lambda x: 0 <= x < 1, "in [0, 1)")
_nonnegative = _number_arg(lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
_tau = _number_arg(lambda x: math.isfinite(x) and x <= 0, "a finite number <= 0")
_lr = _number_arg(lambda x: math.isfinite(x) and x > 0, "a finite number > 0")


def _path(text: str) -> str:
    """argparse type: a file path or a name, which must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError(f"a path or name must not be empty, got {text!r}")
    return text


@contextmanager
def _naming(path: str | None, kind: type[Exception]):
    """Prefix ``path``, when there is one, to the message of a ``kind`` error raised inside."""
    try:
        yield
    except kind as exc:
        exc.args = (f"{path}: {exc}",) if path else exc.args
        raise


def _add_space_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--space", type=_path, help="space file (overrides the flags below)")
    parser.add_argument("--variant", choices=VARIANTS, default="ibn")
    parser.add_argument("--adaptation", choices=ADAPTATIONS, default="neutral")
    parser.add_argument("--layout", type=_path, default="toy2",
                        help=f"layout file or built-in name ({', '.join(BUILTIN_LAYOUTS)})")


def _resolve_space(args) -> tuple:
    """Returns (space, enumeration cap)."""
    if args.space:
        return load_space_file(args.space)
    layout = resolve_layout(args.layout)
    return build_space(args.variant, args.adaptation, layout), DEFAULT_ENUM_CAP


def _space_ref(args) -> str:
    """The space benchmark CSVs and model files name: ``variant/adaptation/layout`` or a file."""
    return args.space or f"{args.variant}/{args.adaptation}/{args.layout}"


def _resolve_device(name_or_path: str):
    if name_or_path in BUILTIN_DEVICES:
        return BUILTIN_DEVICES[name_or_path]
    return load_device(name_or_path)


def _write_csv(path: str | None, header: list[str], rows: list[list],
               seed: int | None = None) -> None:
    """Write a CSV with its meta lines to ``path``, else print the plain rows."""
    if not path:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
        return
    buf = io.StringIO()
    for line in _meta_lines(seed):
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _resolve_source(args, space):
    """The model at ``--model``, which must be fitted on ``space``, else ``--device``."""
    if not args.model:
        return _resolve_device(args.device)
    model = load_model(args.model)
    check_space(model.space_ref, space, _space_ref(args), f"{args.model}: it was fitted on")
    return model


def _emit(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# space
# ---------------------------------------------------------------------------

def cmd_space_size(args) -> int:
    space, _ = _resolve_space(args)
    print(space_size(space))
    return 0


def cmd_space_inspect(args) -> int:
    space, cap = _resolve_space(args)
    print(f"variant: {space.variant}")
    print(f"adaptation: {space.adaptation}")
    print(f"decisions: {len(space.decisions)}")
    print(f"size: {space_size(space)}")
    print(f"enumeration_cap: {cap}")
    for i, d in enumerate(space.decisions):
        if d.layer is None:
            atoms = ", ".join(f"{m:g}" for m in d.choices)
        else:
            atoms = ", ".join(a.atom_id for a in d.choices)
        print(f"  [{i}] {d.name} ({len(d.choices)}): {atoms}")
    return 0


def cmd_space_enumerate(args) -> int:
    space, cap = _resolve_space(args)
    rows = [[i, *dv] for i, dv in enumerate(enumerate_space(space, cap))]
    _write_csv(args.out, ["index"] + [d.name for d in space.decisions], rows)
    return 0


# ---------------------------------------------------------------------------
# analyze / export
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    net = load_file(args.arch)
    cost = network_cost(net)
    header = ["block", "layer", "kind", "kernel", "config", "c_in", "c_out",
              "stride", "h_out", "w_out", "madds", "params"]
    sizes = derive_shapes(net)
    stem = cost.layers[0]
    rows = [
        ["stem", "", "conv", STEM_KERNEL, "", IMAGE_CHANNELS, net.stem_channels, STEM_STRIDE,
         sizes[0], sizes[0], stem.madds, stem.params]
    ]
    for (bi, li, layer), size, priced in zip(iter_layers(net), sizes[1:], cost.layers[1:]):
        kind = layer.kind
        config = (
            f"{kind.input_compression:g}-{kind.output_compression:g}"
            if kind.op == "tucker"
            else f"e{kind.expansion:g}"
        )
        rows.append(
            [bi, li, kind.op, kind.kernel, config, layer.c_in, layer.c_out,
             layer.stride, size, size, priced.madds, priced.params]
        )
    rows.append(["total", "", "", "", "", "", "", "", "", "", cost.total_madds,
                 cost.total_params])
    _write_csv(args.out, header, rows)
    return 0


def cmd_export_dot(args) -> int:
    net = load_file(args.arch)
    text = export_dot(net)
    stamped = "".join(f"// {line}\n" for line in _meta_lines()) + text
    _emit(args.out, stamped)
    return 0


# ---------------------------------------------------------------------------
# bench / cost
# ---------------------------------------------------------------------------

def cmd_bench_generate(args) -> int:
    space, _ = _resolve_space(args)
    device = _resolve_device(args.device)
    rng = np.random.default_rng(args.seed)
    records = generate_benchmarks(space, device, args.num, rng)
    arch_dir = args.arch_dir or str(Path(args.out).with_suffix("")) + "_archs"
    meta_lines = _meta_lines(args.seed) + [space_line(space, _space_ref(args))]
    save_benchmarks(records, args.out, arch_dir, meta_lines=meta_lines)
    print(f"wrote {len(records)} benchmark records to {args.out}")
    return 0


def cmd_cost_fit(args) -> int:
    space, _ = _resolve_space(args)
    space_ref = _space_ref(args)
    records = load_benchmarks(args.bench, space, space_ref)
    holdout_n = int(len(records) * args.holdout_frac)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(records))
    holdout = [records[i] for i in order[:holdout_n]]
    train = [records[i] for i in order[holdout_n:]]
    model = fit(train, space, args.ridge_lambda, space_id(space, space_ref))
    if holdout:
        model.holdout_r2 = r2(model, holdout)
    save_model(model, args.out, meta=_meta_dict(args.seed))
    holdout_txt = "n/a" if model.holdout_r2 is None else f"{model.holdout_r2:.6f}"
    train_txt = f"{model.train_r2:.6f}"
    print(
        f"fitted {len(model.buckets)} buckets on {len(train)} records "
        f"({len(train) / len(model.buckets):.3g} records per weight); "
        f"train r2 {train_txt}, holdout r2 {holdout_txt}; "
        f"the training records touch {coverage(model, train):.1%} of the buckets"
    )
    if len(train) < len(model.buckets) and train_txt == "1.000000":
        print(f"warning: train r2 {train_txt} from fewer records than buckets: the model "
              "interpolates its training data, so only the holdout r2 measures it",
              file=sys.stderr)
    return 0


def cmd_cost_eval(args) -> int:
    model = load_model(args.model)
    net = load_file(args.arch)
    with _naming(args.model, UnknownBucketError):  # a layer the model never saw
        print(f"{predict(model, network_cost(net)):.6f}")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _svg_scatter(points: list[tuple[float, float]], budget: float | None = None) -> str:
    """Static reward-vs-latency scatter with the Pareto front highlighted."""
    width, height, margin = 640, 480, 50
    lats = [p[0] for p in points]
    rews = [p[1] for p in points]
    lo_x, hi_x = min(lats), max(lats)
    lo_y, hi_y = min(rews), max(rews)
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0

    def sx(x: float) -> float:
        return margin + (x - lo_x) / span_x * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - lo_y) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">latency (ms)</text>',
        f'<text x="14" y="{height / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2})">reward</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{lo_x:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="11">{hi_x:.3g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{lo_y:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{hi_y:.3g}</text>',
    ]
    if budget is not None and lo_x <= budget <= hi_x:
        parts.append(
            f'<line x1="{sx(budget):.1f}" y1="{margin}" x2="{sx(budget):.1f}" '
            f'y2="{height - margin}" stroke="gray" stroke-dasharray="4,3"/>'
        )
    for lat, rew in points:
        parts.append(
            f'<circle cx="{sx(lat):.1f}" cy="{sy(rew):.1f}" r="2.5" '
            f'fill="steelblue" fill-opacity="0.45"/>'
        )
    front = pareto_front(points)
    if len(front) > 1:
        path = " ".join(f"{sx(lat):.1f},{sy(rew):.1f}" for lat, rew in front)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="crimson" stroke-width="1.5"/>'
        )
    for lat, rew in front:
        parts.append(
            f'<circle cx="{sx(lat):.1f}" cy="{sy(rew):.1f}" r="3.5" fill="crimson"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _make_oracle(args, space, seed: int):
    if args.oracle == "linear":
        return LinearFeatureOracle.random_for_space(space, seed, args.oracle_noise)
    return CapacityOracle(scale_madds=median_madds(space, seed), noise_sigma=args.oracle_noise)


def _add_oracle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--oracle", choices=("capacity", "linear"), default="capacity")
    parser.add_argument("--oracle-noise", type=_nonnegative, default=0.0)


def cmd_search_run(args) -> int:
    space, _ = _resolve_space(args)
    source = _resolve_source(args, space)
    oracle = _make_oracle(args, space, args.seed)
    cfg = SearchConfig(
        steps=args.steps,
        samples_per_step=args.samples_per_step,
        tau=args.tau,
        budget_ms=args.budget,
        seed=args.seed,
        lr=args.lr,
    )
    with _naming(args.model, ValueError):  # an unknown bucket or a latency below zero
        net, log = run_search(space, oracle, source, cfg)
    write_log(log, args.log, meta=_meta_dict(args.seed))
    if args.best:
        save_file(net, args.best, meta=_meta_dict(args.seed))
    if args.dot:
        stamped = "".join(f"// {line}\n" for line in _meta_lines(args.seed))
        Path(args.dot).write_text(stamped + export_dot(net), encoding="utf-8")
    if args.svg:
        points = [(r.latency_ms, r.reward) for r in log.steps]
        stamped = f"<!-- {'; '.join(_meta_lines(args.seed))} -->\n"
        Path(args.svg).write_text(stamped + _svg_scatter(points, log.budget_ms),
                                  encoding="utf-8")
    print(
        f"final reward {log.final_reward:.6f}, latency {log.final_latency_ms:.4f} ms "
        f"(budget {log.budget_ms:.4f} ms), quality {log.final_quality:.6f}, "
        f"{len(log.steps)} steps"
    )
    return 0


def cmd_search_ablation(args) -> int:
    layout = resolve_layout(args.layout)
    spaces = [
        (variant, build_space(variant, args.adaptation, layout))
        for variant in args.variants.split(",")
    ]
    devices = [_resolve_device(d) for d in args.devices]
    rows = ablation_report(spaces, devices, tau=args.tau, seed=args.seed)
    csv_rows = [
        [r.space, r.device, f"{r.reward:.6f}", f"{r.latency_ms:.6f}", r.madds,
         r.params, f"{r.frac_regular_all:.4f}", f"{r.frac_regular_early:.4f}"]
        for r in rows
    ]
    _write_csv(args.out, list(ABLATION_COLUMNS), csv_rows, args.seed)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def cmd_search_exhaustive(args) -> int:
    space, cap = _resolve_space(args)
    source = _resolve_source(args, space)
    oracle = _make_oracle(args, space, args.seed)
    with _naming(args.model, ValueError):  # an unknown bucket or a latency below zero
        budget = args.budget if args.budget else resolve_budget(space, source, args.seed)
        reward_cfg = RewardConfig(tau=args.tau, budget_ms=budget)
        net, rew = exhaustive_best(space, oracle, source, reward_cfg, cap)
    if args.best:
        save_file(net, args.best, meta=_meta_dict(args.seed))
    print(f"best reward {rew:.6f} over {space_size(space)} architectures")
    return 0


# ---------------------------------------------------------------------------
# decomp
# ---------------------------------------------------------------------------

def cmd_decomp_demo(args) -> int:
    kernel = load_kernel(args.kernel)
    rows = error_rank_table(kernel, height=args.height, width=args.width)
    header = ["rank_in", "rank_out", "rel_error", "madds_ratio"]
    csv_rows = [[r1, r2_, f"{err:.6e}", f"{ratio:.6f}"] for r1, r2_, err, ratio in rows]
    _write_csv(args.out, header, csv_rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Hardware-aware architecture search over mobile conv layer families.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="inspect, size or enumerate a space")
    space_sub = p_space.add_subparsers(dest="subcommand", required=True)
    for name, func in (
        ("size", cmd_space_size),
        ("inspect", cmd_space_inspect),
        ("enumerate", cmd_space_enumerate),
    ):
        p = space_sub.add_parser(name)
        _add_space_args(p)
        if name == "enumerate":
            p.add_argument("-o", "--out", type=_path, help="CSV output path (default stdout)")
        p.set_defaults(func=func)

    p = sub.add_parser("analyze", help="per-layer madds/params table for an architecture")
    p.add_argument("--arch", type=_path, required=True)
    p.add_argument("-o", "--out", type=_path, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench", help="simulated benchmark generation")
    bench_sub = p_bench.add_subparsers(dest="subcommand", required=True)
    p = bench_sub.add_parser("generate")
    _add_space_args(p)
    p.add_argument("--device", type=_path, default="cpu_sim",
                   help="built-in name or device profile file")
    p.add_argument("-n", "--num", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", type=_path, required=True, help="benchmark CSV path")
    p.add_argument("--arch-dir", type=_path, help="directory for architecture files")
    p.set_defaults(func=cmd_bench_generate)

    p_cost = sub.add_parser("cost", help="latency model fitting and evaluation")
    cost_sub = p_cost.add_subparsers(dest="subcommand", required=True)
    p = cost_sub.add_parser("fit")
    _add_space_args(p)
    p.add_argument("--bench", type=_path, required=True, help="benchmark CSV")
    p.add_argument("--ridge-lambda", type=_nonnegative, default=1e-6)
    p.add_argument("--holdout-frac", type=_holdout_frac, default=0.2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", type=_path, required=True, help="model file path")
    p.set_defaults(func=cmd_cost_fit)
    p = cost_sub.add_parser("eval")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--arch", type=_path, required=True)
    p.set_defaults(func=cmd_cost_eval)

    p_search = sub.add_parser("search", help="controller, exhaustive and ablation runs")
    search_sub = p_search.add_subparsers(dest="subcommand", required=True)
    p = search_sub.add_parser("run")
    _add_space_args(p)
    _add_oracle_args(p)
    p.add_argument("--device", type=_path, default="cpu_sim")
    p.add_argument("--model", type=_path, help="fitted latency model (overrides --device)")
    p.add_argument("--budget", type=_budget_ms, help="latency budget in ms (default: median)")
    p.add_argument("--tau", type=_tau, default=-0.3)
    p.add_argument("--steps", type=_count, default=5000)
    p.add_argument("--samples-per-step", type=_count, default=1)
    p.add_argument("--lr", type=_lr, default=SearchConfig.lr, help="controller Adam step size")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--log", type=_path, required=True, help="search log path (ndjson)")
    p.add_argument("--best", type=_path, help="write the final architecture here")
    p.add_argument("--dot", type=_path, help="write the final architecture's DOT here")
    p.add_argument("--svg", type=_path, help="write a reward/latency scatter here")
    p.set_defaults(func=cmd_search_run)
    p = search_sub.add_parser("exhaustive")
    _add_space_args(p)
    _add_oracle_args(p)
    p.add_argument("--device", type=_path, default="cpu_sim")
    p.add_argument("--model", type=_path, help="fitted latency model (overrides --device)")
    p.add_argument("--budget", type=_budget_ms)
    p.add_argument("--tau", type=_tau, default=-0.3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--best", type=_path, help="write the best architecture here")
    p.set_defaults(func=cmd_search_exhaustive)
    p = search_sub.add_parser("ablation")
    p.add_argument("--layout", type=_path, default="toy2")
    p.add_argument("--adaptation", choices=ADAPTATIONS, default="neutral")
    p.add_argument("--variants", default="ibn,ibn_fused,ibn_fused_tucker")
    p.add_argument("--devices", type=lambda text: [_path(d) for d in text.split(",")],
                   default="cpu_sim,accel_sim")
    p.add_argument("--tau", type=_tau, default=-0.3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", type=_path, required=True, help="report CSV path")
    p.set_defaults(func=cmd_search_ablation)

    p_decomp = sub.add_parser("decomp", help="kernel decomposition demo")
    decomp_sub = p_decomp.add_subparsers(dest="subcommand", required=True)
    p = decomp_sub.add_parser("demo")
    p.add_argument("--kernel", type=_path, required=True,
                   help="kernel tensor file (.bin or .json)")
    p.add_argument("--height", type=_count, default=14)
    p.add_argument("--width", type=_count, default=14)
    p.add_argument("-o", "--out", type=_path, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_decomp_demo)

    p_export = sub.add_parser("export", help="visualization exports")
    export_sub = p_export.add_subparsers(dest="subcommand", required=True)
    p = export_sub.add_parser("dot")
    p.add_argument("--arch", type=_path, required=True)
    p.add_argument("-o", "--out", type=_path, help="output path (default stdout)")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _ARGV
    _ARGV = None if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module errors as one parsable line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
