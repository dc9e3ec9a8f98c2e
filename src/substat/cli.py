"""Command-line front end.

Subcommands: simulate, estimate-intensity, fit-subspace, select-bandwidth,
experiment, ingest, apply.  Every subcommand accepts --config and --out;
simulate, estimate-intensity and experiment take --seed, and fit-subspace,
experiment and apply take --threads.  ``substat COMMAND --help`` shows each
option's built-in default.  A config file holds ``key = value`` lines whose
keys match the option names (underscores); each is read as ``--option=value``
ahead of the command line, so it is type- and choice-checked as a
command-line value is, even where the command line gives the option too, and
the command-line value takes precedence.  A key that names no option of any
subcommand is a usage error; keys of other subcommands are ignored, so one
file can serve a whole session.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings

from .estimate import (
    GRID_CELLS_1D,
    GRID_CELLS_2D,
    BandwidthSelectionError,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    _pick_bandwidth,
    bandwidth_cv_scores,
    fit_theta,
)
from .experiments import PROCESSES, ExperimentPlan, run_table1, run_table2, write_result_csv
from .geometry import Subspace, Window
from .io import (
    DEFAULT_IGNORABLE_GAIN,
    DataError,
    RegionSpec,
    _field,
    _decoded,
    _numbered,
    _write_csv,
    export_intensity_grid,
    export_pattern_csv,
    ingest_csv,
    run_application_pipeline,
)
from .render import render_grid_svg
from .simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    simulate_poisson_beta,
    simulate_thomas,
)


logger = logging.getLogger(__name__)

_GRID_HELP = f"grid cells per axis; None: {GRID_CELLS_1D}, kernel2d {GRID_CELLS_2D}"
_HALFWIDTH_HELP = "degrees around the axis to search; none or full = open search"
_THREADS_HELP = (
    "the most worker processes, 0 = one per CPU; a map forks whenever it gets two or more; "
    "apply maps its bandwidths, or one bandwidth's angles"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); a usage error exits 1
        raise ValueError(message)


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
    """Read ``key = value`` lines as a data file's are read (``io._decoded``, ``io._numbered``)."""
    out: dict[str, str] = {}
    for lineno, line in _numbered(_decoded(path)):
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _or_none(kind):
    """The option type ``kind``, reading none (or full, the open search) as None."""
    def number(text: str):  # argparse names it: "invalid number value"
        return None if text.strip().lower() in ("none", "full") else kind(text)
    return number


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # no "(default: None)" on required options
        return action.help if action.required else super()._get_help_string(action)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subcommand parsers; every option is declared here once."""
    parser = _Parser(prog="substat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, run, help, *, needs_out=True, pattern=True) -> _Parser:
        p = sub.add_parser(name, help=help, formatter_class=_Help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="key = value file read before the command line")
        p.add_argument("--out", required=needs_out, help="output file path")
        if pattern:
            p.add_argument("--data", required=True, help="input x,y CSV")
            p.add_argument("--region", type=_region, required=True, help="x_min,x_max,y_min,y_max")
        return p

    p = command("simulate", _cmd_simulate, "draw a seeded point pattern", pattern=False)
    p.add_argument("--process", choices=PROCESSES, required=True, help="point process")
    p.add_argument("--a", type=float, required=True, help="Beta shape parameter, >= 1")
    p.add_argument("--z", type=float, required=True, help="horizontal window extent")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--stream", type=int, default=0, help="stream index under the seed")
    p.add_argument("--gamma", type=float, default=ThomasModel.gamma, help="offspring per parent")
    p.add_argument("--sigma", type=float, default=ThomasModel.sigma, help="offspring spread")
    p.add_argument("--buffer", type=float, default=ThomasModel.parent_buffer, help="parent buffer")

    command("ingest", _cmd_ingest, "load and canonicalize a point CSV")

    p = command("estimate-intensity", _cmd_estimate_intensity, "export an intensity grid")
    estimators = ("substationary", "kernel2d", "stationary")
    p.add_argument("--estimator", choices=estimators, required=True, help="intensity estimator")
    p.add_argument("--h", type=float, help="bandwidth, needed by substationary and kernel2d")
    p.add_argument("--theta-deg", type=float, default=0.0, help="subspace angle in degrees")
    p.add_argument("--resolution", type=_or_none(int), help=_GRID_HELP)
    p.add_argument("--seed", type=int, help="seed recorded in the grid metadata")
    p.add_argument("--svg", help="also render the grid to this SVG path")

    p = command("fit-subspace", _cmd_fit_subspace, "fit the invariance direction", needs_out=False)
    p.add_argument("--h", type=float, required=True, help="bandwidth")
    p.add_argument("--search-halfwidth", type=_or_none(float), help=_HALFWIDTH_HELP)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    about = "cross-validated bandwidth choice"
    p = command("select-bandwidth", _cmd_select_bandwidth, about, needs_out=False)
    p.add_argument("--candidates", type=_floats, required=True, help="comma-separated bandwidths")
    p.add_argument("--theta-deg", type=float, default=0.0, help="subspace angle in degrees")

    p = command("experiment", _cmd_experiment, "run a replication sweep", pattern=False)
    p.add_argument("target", choices=("table1", "table2"))
    p.add_argument("--process", choices=PROCESSES, required=True, help="point process")
    p.add_argument("--a-values", type=_floats, required=True, help="Beta shape parameters")
    p.add_argument("--z-values", type=_floats, required=True, help="horizontal window extents")
    p.add_argument("--h-values", type=_floats, required=True, help="bandwidths")
    p.add_argument("--replications", type=int, default=100, help="patterns per cell")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--gamma", type=float, default=ExperimentPlan.gamma, help="offspring per parent")
    p.add_argument("--sigma", type=float, default=ExperimentPlan.sigma, help="offspring spread")
    halfwidth = ExperimentPlan.search_halfwidth_deg
    p.add_argument("--search-halfwidth", type=_or_none(float), default=halfwidth, help=_HALFWIDTH_HELP)
    p.add_argument("--threads", type=int, default=0, help=_THREADS_HELP)

    p = command("apply", _cmd_apply, "fit directions across bandwidths")
    p.add_argument("--h-values", type=_floats, required=True, help="bandwidths")
    p.add_argument("--threshold", type=float, default=DEFAULT_IGNORABLE_GAIN, help="ignorable gain")
    p.add_argument("--grid-dir", help="directory for per-bandwidth grids")
    p.add_argument("--resolution", type=_or_none(int), help=f"grid cells; None: {GRID_CELLS_1D}")
    p.add_argument("--search-halfwidth", type=_or_none(float), help=_HALFWIDTH_HELP)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` (None: ``sys.argv``) with its --config file's values read first.

    Each value of an option of the chosen command is read as ``--option=value``
    ahead of the command line, so argparse checks it as it checks the command
    line's, and a command-line value, read later, wins.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    cfg = load_config(path) if path else {}
    parser, commands = _build_parser()
    options = {a.dest for p in commands.values() for a in p._actions if a.option_strings}
    unknown = sorted(set(cfg) - options)
    if unknown:
        raise ValueError(f"{path}: config key {unknown[0]!r} names no option")
    command = commands.get(argv[0]) if argv else None
    actions = command._actions if command else ()
    given = [f"{a.option_strings[0]}={cfg[a.dest]}" for a in actions if a.option_strings and a.dest in cfg]
    return parser.parse_args([*argv[:1], *given, *argv[1:]])


def _cmd_simulate(args) -> None:
    base = PoissonBetaModel(args.a, Window(args.z, 1.0))
    stream = RngStream(args.seed, args.stream)
    metadata = dict(process=args.process, a=args.a, z=args.z, seed=args.seed, stream=args.stream)
    if args.process == "thomas":
        model = ThomasModel(base, gamma=args.gamma, sigma=args.sigma, parent_buffer=args.buffer)
        pattern = simulate_thomas(model, stream)
        metadata.update(gamma=args.gamma, sigma=args.sigma, buffer=args.buffer)
    else:
        pattern = simulate_poisson_beta(base, stream)
    export_pattern_csv(pattern, args.out, metadata)
    print(f"wrote {pattern.n} points to {args.out}")


def _cmd_ingest(args) -> None:
    pattern, window = args.pattern, args.pattern.window
    export_pattern_csv(pattern, args.out, {"z": window.z, "omega": window.omega})
    print(f"kept {pattern.n} points; window z={_field(window.z)} omega={_field(window.omega)}")


def _cmd_estimate_intensity(args) -> None:
    pattern, kind = args.pattern, args.estimator
    if kind != "stationary" and args.h is None:
        raise ValueError(f"--estimator {kind} needs --h")
    if kind == "stationary" and args.h is not None:  # a shared config file may set h
        logger.info("--estimator stationary takes no bandwidth; --h %s is not used", _field(args.h))
    if kind == "substationary":
        est = SubstationaryIntensity(pattern, Subspace.from_degrees(args.theta_deg), args.h)
    elif kind == "kernel2d":
        est = KernelIntensity2D(pattern, args.h)
    else:
        est = StationaryIntensity(pattern)
    grid = export_intensity_grid(est, args.resolution, args.out, seed=args.seed)
    print(f"wrote {grid.values.size} grid values to {args.out}")
    if args.svg:
        render_grid_svg(grid, args.svg)
        print(f"rendered {args.svg}")


def _cmd_fit_subspace(args) -> None:
    halfwidth, threads = args.search_halfwidth, args.threads
    fit = fit_theta(args.pattern, args.h, search_halfwidth_deg=halfwidth, threads=threads)
    print(f"theta_hat_rad={_field(fit.theta_hat.theta)}")
    print(f"theta_hat_deg={_field(fit.theta_hat.degrees)}")
    print(f"loglik={_field(fit.loglik)}")
    print(f"degenerate={_field(fit.degenerate)}")
    if args.out:
        _write_csv(args.out, {}, "theta_rad,loglik", fit.trace)
        print(f"wrote trace to {args.out}")


def _cmd_select_bandwidth(args) -> None:
    theta = Subspace.from_degrees(args.theta_deg)
    scores = bandwidth_cv_scores(args.pattern, theta, args.candidates)
    print(f"selected_h={_field(_pick_bandwidth(scores))}")
    if args.out:
        _write_csv(args.out, {}, "h,cv_score", scores)
        print(f"wrote scores to {args.out}")


def _cmd_experiment(args) -> None:
    plan = ExperimentPlan(
        process=args.process, target=args.target, master_seed=args.seed,
        a_values=args.a_values, z_values=args.z_values, h_values=args.h_values,
        replications=args.replications, gamma=args.gamma, sigma=args.sigma,
        search_halfwidth_deg=args.search_halfwidth,
    )
    runner = run_table1 if args.target == "table1" else run_table2
    result = runner(plan, threads=args.threads)
    write_result_csv(result, args.out)
    print(f"wrote {len(result.cells)} cells to {args.out}")


def _cmd_apply(args) -> None:
    report = run_application_pipeline(
        args.pattern, args.h_values, threshold=args.threshold, grid_dir=args.grid_dir,
        grid_resolution=args.resolution, search_halfwidth_deg=args.search_halfwidth,
        threads=args.threads,
    )
    report.to_csv(args.out)
    for row in report.rows:
        print(
            f"h={_field(row.h)} theta_hat_deg={row.theta_hat_deg:.6f} "
            f"delta_loglik={row.delta_loglik:.6f} ignorable={_field(row.ignorable)}"
        )
    print(f"wrote report to {args.out}")


def _check_destinations(args) -> None:
    """Refuse, before any work, to write into a directory that does not exist."""
    files = (args.out, getattr(args, "svg", None))
    dirs = [os.path.dirname(f) for f in files if f] + [getattr(args, "grid_dir", None)]
    missing = [d for d in dirs if d and not os.path.isdir(d)]
    if missing:
        raise DataError(f"output directory {missing[0]!r} does not exist")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    # every warning a command raises, whatever the active filters, is logged as a note
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = _parse(argv)
            _check_destinations(args)
            if hasattr(args, "data"):  # the subcommands that read a pattern
                args.pattern = ingest_csv(args.data, args.region)
            args.run(args)
            return 0
        except (DataError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 2
        except BandwidthSelectionError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        finally:
            for w in caught:
                logger.warning("%s", w.message)


if __name__ == "__main__":
    sys.exit(main())
