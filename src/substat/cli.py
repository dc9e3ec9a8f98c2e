"""Command-line front end.

Subcommands: simulate, estimate-intensity, fit-subspace, select-bandwidth,
experiment, ingest, apply.  Every subcommand accepts --seed, --threads,
--config and --out; a config file holds ``key = value`` lines whose keys
match the option names (underscores), with command-line values taking
precedence.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .estimate import (
    BandwidthSelectionError,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    _pick_bandwidth,
    bandwidth_cv_scores,
    fit_theta,
)
from .experiments import ExperimentPlan, run_table1, run_table2, write_result_csv
from .geometry import Subspace, Window
from .io import (
    DEFAULT_GRID_RESOLUTION,
    DEFAULT_IGNORABLE_GAIN,
    DataError,
    RegionSpec,
    export_intensity_grid,
    export_pattern_csv,
    ingest_csv,
    run_application_pipeline,
)
from .kernels import QuadratureError
from .render import render_grid_svg
from .simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    simulate_poisson_beta,
    simulate_thomas,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _region(text: str) -> RegionSpec:
    parts = _floats(text)
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("region needs four numbers: x_min,x_max,y_min,y_max")
    return RegionSpec(*parts)


def load_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    common.add_argument("--threads", type=int, default=None, help="worker threads, 0 = auto")
    common.add_argument("--config", default=None, help="key = value file supplying defaults")
    common.add_argument("--out", default=None, help="output file path")

    parser = _Parser(prog="substat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", parents=[common], help="draw a seeded point pattern")
    p.add_argument("--process", choices=("poisson", "thomas"), default=None)
    p.add_argument("--a", type=float, default=None, help="Beta shape parameter, >= 1")
    p.add_argument("--z", type=float, default=None, help="horizontal window extent")
    p.add_argument("--gamma", type=float, default=None, help="mean offspring per parent")
    p.add_argument("--sigma", type=float, default=None, help="offspring displacement scale")
    p.add_argument("--buffer", type=float, default=None, help="parent strip buffer")
    p.add_argument("--stream", type=int, default=None, help="stream index under the seed")

    p = sub.add_parser("ingest", parents=[common], help="load and canonicalize a point CSV")
    p.add_argument("--data", default=None, help="input x,y CSV")
    p.add_argument("--region", type=_region, default=None, help="x_min,x_max,y_min,y_max")

    p = sub.add_parser("estimate-intensity", parents=[common], help="export an intensity grid")
    p.add_argument("--data", default=None)
    p.add_argument("--region", type=_region, default=None)
    p.add_argument("--estimator", choices=("substationary", "kernel2d", "stationary"), default=None)
    p.add_argument("--theta-deg", type=float, default=None, help="subspace angle in degrees")
    p.add_argument("--h", type=float, default=None, help="bandwidth")
    p.add_argument("--resolution", type=int, default=None, help="grid resolution")
    p.add_argument("--svg", default=None, help="also render the grid to this SVG path")

    p = sub.add_parser("fit-subspace", parents=[common], help="fit the invariance direction")
    p.add_argument("--data", default=None)
    p.add_argument("--region", type=_region, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--search-halfwidth", type=float, default=None, help="restrict search, degrees")

    p = sub.add_parser("select-bandwidth", parents=[common], help="cross-validated bandwidth choice")
    p.add_argument("--data", default=None)
    p.add_argument("--region", type=_region, default=None)
    p.add_argument("--theta-deg", type=float, default=None)
    p.add_argument("--candidates", type=_floats, default=None, help="comma-separated bandwidths")

    p = sub.add_parser("experiment", parents=[common], help="run a replication sweep")
    p.add_argument("target", choices=("table1", "table2"))
    p.add_argument("--process", choices=("poisson", "thomas"), default=None)
    p.add_argument("--a-values", type=_floats, default=None)
    p.add_argument("--z-values", type=_floats, default=None)
    p.add_argument("--h-values", type=_floats, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--search-halfwidth", type=float, default=None)

    p = sub.add_parser("apply", parents=[common], help="fit directions across bandwidths")
    p.add_argument("--data", default=None)
    p.add_argument("--region", type=_region, default=None)
    p.add_argument("--h-values", type=_floats, default=None)
    p.add_argument("--threshold", type=float, default=None, help="ignorable likelihood gain")
    p.add_argument("--grid-dir", default=None, help="directory for per-bandwidth grids")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--search-halfwidth", type=float, default=None)

    return parser


def _opt(args, cfg: dict, name: str, conv, default=None, required: bool = False):
    value = getattr(args, name, None)
    if value is None and name in cfg:
        raw = cfg[name]
        try:
            value = conv(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"config key {name!r}: {exc}")
    if value is None:
        if required:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"missing required option {flag} (or config key '{name}')")
        value = default
    return value


def _load_pattern(args, cfg):
    data = _opt(args, cfg, "data", str, required=True)
    region = _opt(args, cfg, "region", _region, required=True)
    return ingest_csv(data, region)


def _cmd_simulate(args, cfg) -> int:
    process = _opt(args, cfg, "process", str, required=True)
    a = _opt(args, cfg, "a", float, required=True)
    z = _opt(args, cfg, "z", float, required=True)
    seed = _opt(args, cfg, "seed", int, 0)
    stream_index = _opt(args, cfg, "stream", int, 0)
    out = _opt(args, cfg, "out", str, required=True)
    base = PoissonBetaModel(a, Window(z, 1.0))
    stream = RngStream(seed, stream_index)
    metadata = {"process": process, "a": repr(a), "z": repr(z), "seed": seed, "stream": stream_index}
    if process == "thomas":
        gamma = _opt(args, cfg, "gamma", float, 5.0)
        sigma = _opt(args, cfg, "sigma", float, 0.02)
        buffer = _opt(args, cfg, "buffer", float, 0.0)
        model = ThomasModel(base, gamma=gamma, sigma=sigma, parent_buffer=buffer)
        pattern = simulate_thomas(model, stream)
        metadata.update({"gamma": repr(gamma), "sigma": repr(sigma), "buffer": repr(buffer)})
    else:
        pattern = simulate_poisson_beta(base, stream)
    export_pattern_csv(pattern, out, metadata)
    print(f"wrote {pattern.n} points to {out}")
    return 0


def _cmd_ingest(args, cfg) -> int:
    pattern = _load_pattern(args, cfg)
    out = _opt(args, cfg, "out", str, required=True)
    export_pattern_csv(
        pattern, out, {"z": repr(pattern.window.z), "omega": repr(pattern.window.omega)}
    )
    print(f"kept {pattern.n} points; window z={pattern.window.z!r} omega={pattern.window.omega!r}")
    return 0


def _cmd_estimate_intensity(args, cfg) -> int:
    pattern = _load_pattern(args, cfg)
    kind = _opt(args, cfg, "estimator", str, required=True)
    out = _opt(args, cfg, "out", str, required=True)
    seed = _opt(args, cfg, "seed", int, None)
    if kind == "substationary":
        h = _opt(args, cfg, "h", float, required=True)
        theta_deg = _opt(args, cfg, "theta_deg", float, 0.0)
        est = SubstationaryIntensity(pattern, Subspace.from_degrees(theta_deg), h)
        resolution = _opt(args, cfg, "resolution", int, 512)
    elif kind == "kernel2d":
        h = _opt(args, cfg, "h", float, required=True)
        est = KernelIntensity2D(pattern, h)
        resolution = _opt(args, cfg, "resolution", int, 128)
    else:
        est = StationaryIntensity(pattern)
        resolution = _opt(args, cfg, "resolution", int, 512)
    grid = export_intensity_grid(est, resolution, out, seed=seed)
    print(f"wrote {len(grid.values)} grid values to {out}")
    svg = _opt(args, cfg, "svg", str, None)
    if svg:
        render_grid_svg(grid, svg)
        print(f"rendered {svg}")
    return 0


def _cmd_fit_subspace(args, cfg) -> int:
    pattern = _load_pattern(args, cfg)
    h = _opt(args, cfg, "h", float, required=True)
    halfwidth = _opt(args, cfg, "search_halfwidth", float, None)
    threads = _opt(args, cfg, "threads", int, 1)
    fit = fit_theta(pattern, h, search_halfwidth_deg=halfwidth, threads=threads)
    print(f"theta_hat_rad={fit.theta_hat.theta!r}")
    print(f"theta_hat_deg={fit.theta_hat.degrees!r}")
    print(f"loglik={fit.loglik!r}")
    print(f"degenerate={str(fit.degenerate).lower()}")
    out = _opt(args, cfg, "out", str, None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("theta_rad,loglik\n")
            for theta, value in fit.trace:
                fh.write(f"{theta!r},{value!r}\n")
        print(f"wrote trace to {out}")
    return 0


def _cmd_select_bandwidth(args, cfg) -> int:
    pattern = _load_pattern(args, cfg)
    theta_deg = _opt(args, cfg, "theta_deg", float, 0.0)
    candidates = _opt(args, cfg, "candidates", _floats, required=True)
    scores = bandwidth_cv_scores(pattern, Subspace.from_degrees(theta_deg), candidates)
    print(f"selected_h={_pick_bandwidth(scores)!r}")
    out = _opt(args, cfg, "out", str, None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("h,cv_score\n")
            for h, score in scores:
                fh.write(f"{h!r},{score!r}\n")
        print(f"wrote scores to {out}")
    return 0


def _cmd_experiment(args, cfg) -> int:
    out = _opt(args, cfg, "out", str, required=True)
    halfwidth_raw = _opt(args, cfg, "search_halfwidth", str, None)
    kwargs = {}
    if halfwidth_raw is not None:
        text = str(halfwidth_raw).strip().lower()
        kwargs["search_halfwidth_deg"] = None if text in ("none", "full") else float(halfwidth_raw)
    plan = ExperimentPlan(
        process=_opt(args, cfg, "process", str, required=True),
        a_values=_opt(args, cfg, "a_values", _floats, required=True),
        z_values=_opt(args, cfg, "z_values", _floats, required=True),
        h_values=_opt(args, cfg, "h_values", _floats, required=True),
        replications=_opt(args, cfg, "replications", int, 100),
        master_seed=_opt(args, cfg, "seed", int, 0),
        target=args.target,
        gamma=_opt(args, cfg, "gamma", float, 5.0),
        sigma=_opt(args, cfg, "sigma", float, 0.02),
        **kwargs,
    )
    threads = _opt(args, cfg, "threads", int, 0)
    runner = run_table1 if args.target == "table1" else run_table2
    result = runner(plan, threads=threads)
    write_result_csv(result, out)
    print(f"wrote {len(result.cells)} cells to {out}")
    return 0


def _cmd_apply(args, cfg) -> int:
    pattern = _load_pattern(args, cfg)
    h_values = _opt(args, cfg, "h_values", _floats, required=True)
    out = _opt(args, cfg, "out", str, required=True)
    threads = _opt(args, cfg, "threads", int, 1)
    report = run_application_pipeline(
        pattern,
        h_values,
        threshold=_opt(args, cfg, "threshold", float, DEFAULT_IGNORABLE_GAIN),
        grid_dir=_opt(args, cfg, "grid_dir", str, None),
        grid_resolution=_opt(args, cfg, "resolution", int, DEFAULT_GRID_RESOLUTION),
        search_halfwidth_deg=_opt(args, cfg, "search_halfwidth", float, None),
        threads=threads,
    )
    report.to_csv(out)
    for row in report.rows:
        print(
            f"h={row.h:g} theta_hat_deg={row.theta_hat_deg:.6f} "
            f"delta_loglik={row.delta_loglik:.6f} ignorable={str(row.ignorable).lower()}"
        )
    print(f"wrote report to {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ingest": _cmd_ingest,
    "estimate-intensity": _cmd_estimate_intensity,
    "fit-subspace": _cmd_fit_subspace,
    "select-bandwidth": _cmd_select_bandwidth,
    "experiment": _cmd_experiment,
    "apply": _cmd_apply,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        return _COMMANDS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, BandwidthSelectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
