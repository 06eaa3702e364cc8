"""Command-line front end.

Subcommands:

* kinematics: constant-acceleration trajectories on the (q,w) lattice,
  one column per solver route plus the undeformed classical reference.
* drag: resisted-fall velocities, closed, series, iterative, and classical
  routes.  Each route solves the one equation of motion for every --g;
  --g 0 is pure drag.  The iterative route stops by its own rule (see
  resist), within the --max-terms budget.  A row's closed and series
  cells share one evaluation of e_{q,w}(-+kappa t).  Cells are flagged
  pole only at poles of v, those of e_{q,w}(-kappa t); at a pole of
  e_{q,w}(kappa t) v is finite.
* verify: run the randomized identity suite and print one line per
  identity with its worst residual and pass/fail status.
* sweep: run kinematics or drag over swept q and/or w values in long
  format, with the (q, w) columns prepended.  sweep <base> is parsed by a
  copy of <base>'s own parser plus --sweep, so it takes that base's options
  only, and like every command's options they follow the base.

kinematics and drag are a one-point sweep without the q and w columns: all
three table commands run through one path, driven by the BASES registry of
route names, physics options and per-command setups.  Each (q, w) block
builds one route object (kinematics._KinematicRoutes, resist._DragRoutes),
which forms its constants once, and binds each route by name to its
method.  Importing this module loads only errors from the package: each
function imports the modules it runs, so a drag run never loads
kinematics and a kinematics run never loads resist or qexp.

Tables go to standard output as CSV (with a '# key=value' metadata header)
or as a single JSON object with --format json, rendered column by column
(see table); diagnostics go to standard error.  Identical invocations
produce byte-identical output.  Time and sweep grids need at least one
sample, finite bounds and strictly increasing samples (all checked by
_grid), and --tol a finite positive value, or the command is a usage error.

Exit codes: 0 success; 1 usage error; 2 identity verification failure;
3 a requested output column came out entirely empty.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence, TypeVar

from .errors import NonConvergentError, PoleEncounteredError, ZeroFactorError

if TYPE_CHECKING:
    from .core import DeformationParams, TruncationPolicy
    from .table import TrajectoryTable

__all__ = ["main", "build_parser"]

KINEMATICS_ROUTES = ("closed", "iterative", "second-order", "classical")
DRAG_ROUTES = ("closed", "series", "iterative", "classical")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_EMPTY_COLUMN = 3

_T = TypeVar("_T")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1.

    A parser with subcommands takes no option but -h before its subcommand
    (options_follow, their dest: the command, or sweep's base); one given
    there is a usage error that says so, where argparse would blame the
    subcommand for it or read its value as the subcommand.

    An argument that starts with - and then a digit or .digit is a value,
    as Python 3.13's argparse reads it; older ones take -1e-3 for an option.
    """

    options_follow: str | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def add_subparsers(self, **kwargs):
        self.options_follow = kwargs["dest"]
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if args is None:
            args = sys.argv[1:]
        if self.options_follow and args and args[0].startswith("-"):
            option = args[0].partition("=")[0]
            if option not in ("-h", "--help"):
                name = self.options_follow
                self.error(f"options follow the {name}: {self.prog} <{name}> {option} ...")
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_table_args(
    parser: argparse.ArgumentParser,
    routes: Sequence[str],
    add_physics_args: Callable[[argparse.ArgumentParser], None],
) -> None:
    """The options of one table base, the same under hahncalc <base> and sweep <base>."""
    from .core import DEFAULT_POLICY

    parser.add_argument(
        "--q", type=float, default=None, help="deformation base, 0 < q < 1 (required)"
    )
    parser.add_argument(
        "--w", type=float, default=None, help="lattice shift, w >= 0 (default 0)"
    )
    parser.add_argument("--v0", type=float, default=0.0, help="initial velocity")
    add_physics_args(parser)
    parser.add_argument("--t-start", type=float, default=0.0, help="first sample time")
    parser.add_argument("--t-end", type=float, default=2.0, help="last sample time")
    parser.add_argument(
        "--samples", type=int, default=9, help="number of uniformly spaced samples"
    )
    parser.add_argument(
        "--routes", default=None, help="comma-separated subset of: " + ",".join(routes)
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_POLICY.tol,
        help="series/product truncation tolerance",
    )
    parser.add_argument(
        "--max-terms",
        type=int,
        default=DEFAULT_POLICY.max_terms,
        help="budget of terms, factors and steps per evaluation before giving up",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default csv)",
    )


def _add_kinematics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x0", type=float, default=0.0, help="position at t=0")
    parser.add_argument("--a", type=float, default=1.0, help="constant acceleration")


def _add_drag_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=float, default=1.0, help="mass, m > 0")
    parser.add_argument(
        "--k", type=float, default=0.5, help="drag coefficient, k > 0"
    )
    parser.add_argument(
        "--g", type=float, default=9.8, help="gravitational acceleration (0: pure drag)"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hahncalc", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    for base, (help_text, routes, add_physics_args, _) in BASES.items():
        table = commands.add_parser(base, help=help_text)
        table.set_defaults(base=base, parser=table)
        _add_table_args(table, routes, add_physics_args)

    verify = commands.add_parser("verify", help="run the identity suite")
    verify.set_defaults(parser=verify)
    verify.add_argument(
        "--q-grid", default=None, help="comma-separated q values, each in (0,1)"
    )
    verify.add_argument("--seed", type=int, default=0, help="randomization seed")
    verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every identity's pass tolerance",
    )

    sweep = commands.add_parser(
        "sweep", help="run kinematics or drag over swept q and/or w"
    )
    swept = sweep.add_subparsers(dest="base", required=True)
    for base, (help_text, routes, add_physics_args, _) in BASES.items():
        table = swept.add_parser(base, help=help_text)
        table.set_defaults(parser=table)
        table.add_argument(
            "--sweep",
            action="append",
            default=[],
            metavar="NAME=START:STOP:COUNT",
            help="sweep q or w over an inclusive uniform grid; repeatable",
        )
        _add_table_args(table, routes, add_physics_args)

    return parser


def _grid(start: float, stop: float, count: int, what: str, parser: _Parser) -> list[float]:
    """Inclusive uniform grid with the endpoints hit exactly, or a usage error.

    A grid needs at least one sample and finite bounds, and its samples must
    increase strictly, so stop must exceed start when count > 1; a step that
    underflows to 0 or overflows to inf breaks that even where stop > start.
    """
    if count < 1:
        parser.error(f"{what} grid needs at least 1 sample, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        parser.error(f"{what} bounds must be finite, got {start!r} and {stop!r}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    values = [start + i * step for i in range(count)]
    values[-1] = stop
    if not all(b > a for a, b in zip(values, values[1:])):
        parser.error(f"{count} {what} samples from {start!r} to {stop!r} do not increase strictly")
    return values


def _usage_checked(
    parser: _Parser, make: Callable[..., _T], *args: object, **kwargs: object
) -> _T:
    """make(*args, **kwargs), or a usage error with the ValueError's message."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_routes(spec: str, allowed: Sequence[str], parser: _Parser) -> list[str]:
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        parser.error("--routes must name at least one route")
    requested: list[str] = []
    for name in names:
        if name not in allowed:
            parser.error(
                f"unknown route {name!r}; choose from {','.join(allowed)}"
            )
        if name not in requested:
            requested.append(name)
    return requested


def _evaluate_block(
    ts: Sequence[float],
    route_names: Sequence[str],
    evaluators: dict[str, Callable[[float], float]],
) -> tuple[dict[str, list[float | None]], list[str]]:
    """Run each route at each time, row by row, mapping failures to flags.

    A pole or vanishing factor empties the cell with flag pole; a budget
    that runs out, an overflow or a non-finite value empties it with flag
    nonconvergent.  A row takes the most severe flag of its cells.
    """
    from .table import FLAG_NONCONVERGENT, FLAG_OK, FLAG_POLE

    severity = {FLAG_OK: 0, FLAG_NONCONVERGENT: 1, FLAG_POLE: 2}
    columns: dict[str, list[float | None]] = {name: [] for name in route_names}
    cells = [(columns[name].append, evaluators[name]) for name in route_names]
    isfinite = math.isfinite
    flags: list[str] = []
    for t in ts:
        row_flag = FLAG_OK
        for append, fn in cells:
            try:
                value = fn(t)
            except (PoleEncounteredError, ZeroFactorError):
                cell_flag = FLAG_POLE
            except (NonConvergentError, OverflowError):
                cell_flag = FLAG_NONCONVERGENT
            else:
                if isfinite(value):
                    append(value)
                    continue
                cell_flag = FLAG_NONCONVERGENT
            append(None)
            if severity[cell_flag] > severity[row_flag]:
                row_flag = cell_flag
        flags.append(row_flag)
    return columns, flags


def _agreement_metadata(
    route_names: Sequence[str], columns: dict[str, list[float | None]]
) -> dict[str, float]:
    """Worst pairwise disagreement between the deformed route columns."""
    out: dict[str, float] = {}
    deformed = [name for name in route_names if name != "classical"]
    for i, left in enumerate(deformed):
        for right in deformed[i + 1 :]:
            diffs = [
                abs(x - y)
                for x, y in zip(columns[left], columns[right])
                if x is not None and y is not None
            ]
            if diffs:
                out[f"agreement_{left}_{right}"] = max(diffs)
    return out


def _kinematics_setup(
    args: argparse.Namespace, parser: _Parser, policy: TruncationPolicy
) -> tuple[dict[str, object], Callable[[DeformationParams], object]]:
    from .kinematics import KinematicState, _KinematicRoutes

    state = _usage_checked(parser, KinematicState, args.x0, args.v0, args.a)
    metadata = {"x0": state.x0, "v0": state.v0, "a": state.a}
    return metadata, lambda params: _KinematicRoutes(state, params, policy)


def _drag_setup(
    args: argparse.Namespace, parser: _Parser, policy: TruncationPolicy
) -> tuple[dict[str, object], Callable[[DeformationParams], object]]:
    from .resist import DragParams, _DragRoutes

    dp = _usage_checked(parser, DragParams, m=args.m, k=args.k, g=args.g, v0=args.v0)
    metadata = {"m": dp.m, "k": dp.k, "g": dp.g, "v0": dp.v0}
    return metadata, lambda params: _DragRoutes(dp, params, policy)


# The table commands: help text, route names, physics arguments, and a setup
# that validates those arguments once and returns the command's metadata and
# a factory of its route object per (q, w), with a method per route name.
BASES = {
    "kinematics": (
        "constant-acceleration trajectories on the lattice",
        KINEMATICS_ROUTES,
        _add_kinematics_args,
        _kinematics_setup,
    ),
    "drag": ("resisted-fall velocities", DRAG_ROUTES, _add_drag_args, _drag_setup),
}


def _parse_sweeps(
    specs: Sequence[str], parser: _Parser
) -> dict[str, tuple[str, list[float]]]:
    """Parse NAME=START:STOP:COUNT sweep specs into value grids.

    Each grid is echoed as parsed, repr(START):repr(STOP):COUNT, as the
    other options are, so every spelling of one grid prints one header.
    """
    sweeps: dict[str, tuple[str, list[float]]] = {}
    for spec in specs:
        name, sep, grid = spec.partition("=")
        if not sep or name not in ("q", "w"):
            parser.error(f"bad sweep spec {spec!r}; expected q=... or w=...")
        if name in sweeps:
            parser.error(f"duplicate sweep for {name!r}")
        parts = grid.split(":")
        # float and int would skip whitespace; a grid holding any is refused.
        if len(parts) != 3 or any(map(str.isspace, grid)):
            parser.error(f"bad sweep grid {grid!r}; expected START:STOP:COUNT")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            parser.error(f"bad sweep grid {grid!r}; expected START:STOP:COUNT")
        values = _grid(start, stop, count, f"sweep {name}", parser)
        sweeps[name] = (f"{start!r}:{stop!r}:{count}", values)
    return sweeps


def _cmd_table(args: argparse.Namespace, parser: _Parser) -> tuple[TrajectoryTable, int]:
    """Evaluate a base command's routes on every (q, w) block of the grid.

    kinematics and drag are a one-block sweep whose table has no q and w
    columns and records q, w and w0 in place of the sweep metadata.
    """
    from .core import DeformationParams, TruncationPolicy
    from .table import TrajectoryTable

    _, routes, _, setup = BASES[args.base]
    sweeping = args.command == "sweep"
    policy = _usage_checked(parser, TruncationPolicy, tol=args.tol, max_terms=args.max_terms)
    ts = _grid(args.t_start, args.t_end, args.samples, "time", parser)
    sweeps = _parse_sweeps(args.sweep, parser) if sweeping else {}
    for name in sweeps:
        if getattr(args, name) is not None:
            parser.error(f"--{name} may not be given with --sweep {name}=...")
    if args.q is None and "q" not in sweeps:
        parser.error("--q is required (under sweep, --sweep q=... may stand for it)")
    q_values = sweeps["q"][1] if "q" in sweeps else [args.q]
    w_values = sweeps["w"][1] if "w" in sweeps else [args.w]
    grid = [
        _usage_checked(parser, DeformationParams, q, 0.0 if w is None else w)
        for q in q_values
        for w in w_values
    ]
    requested = _parse_routes(
        ",".join(routes) if args.routes is None else args.routes, routes, parser
    )
    route_names = list(requested)
    if args.base == "kinematics" and "classical" not in route_names:
        route_names.append("classical")  # always carry the classical reference
    physics, routes_at = setup(args, parser, policy)

    first = grid[0]
    if sweeping:
        metadata: dict[str, object] = {"command": "sweep", "base": args.base}
        metadata.update({f"sweep_{n}": sweeps[n][0] for n in ("q", "w") if n in sweeps})
        metadata.update({n: getattr(first, n) for n in ("q", "w") if n not in sweeps})
    else:
        metadata = {"command": args.base, "q": first.q, "w": first.w, "w0": first.w0}
    metadata.update(physics)
    metadata.update(
        {
            "t_start": args.t_start,
            "t_end": args.t_end,
            "samples": args.samples,
            "routes": ",".join(route_names),
            "tol": policy.tol,
            "max_terms": policy.max_terms,
        }
    )

    axes = ("q", "w") if sweeping else ()
    columns: dict[str, list[float | None]] = {
        name: [] for name in (*axes, "t", *route_names)
    }
    flags: list[str] = []
    for params in grid:
        block = routes_at(params)
        evaluators = {name: getattr(block, name.replace("-", "_")) for name in route_names}
        block_columns, block_flags = _evaluate_block(ts, route_names, evaluators)
        if sweeping:
            columns["q"].extend([params.q] * len(ts))
            columns["w"].extend([params.w] * len(ts))
        columns["t"].extend(ts)
        for name in route_names:
            columns[name].extend(block_columns[name])
        flags.extend(block_flags)

    metadata.update(_agreement_metadata(requested, columns))
    empty = any(
        columns[name] and all(value is None for value in columns[name])
        for name in requested
    )
    return TrajectoryTable(columns, metadata, flags), EXIT_EMPTY_COLUMN if empty else EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    # Only verify needs the identity suite; importing it costs every other command.
    from .identities import DEFAULT_Q_GRID, DEFAULT_W_GRID, run_suite

    q_grid = DEFAULT_Q_GRID
    if args.q_grid is not None:
        try:
            q_grid = tuple(float(part) for part in args.q_grid.split(",") if part.strip())
        except ValueError:
            parser.error(f"bad --q-grid {args.q_grid!r}; expected comma-separated reals")
    if not q_grid:
        parser.error("--q-grid must name at least one q")
    for q in q_grid:
        if not 0.0 < q < 1.0:
            parser.error(f"--q-grid entries must lie in (0,1), got {q!r}")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        parser.error("--tol must be finite and positive")

    results = run_suite(seed=args.seed, q_grid=q_grid, tol=args.tol)
    print("# identity-suite")
    print(f"# q_grid={','.join(repr(q) for q in q_grid)}")
    print(f"# w_grid={','.join(repr(w) for w in DEFAULT_W_GRID)}")
    print(f"# seed={args.seed}")
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{result.name:<32} cases={result.cases:<5d} "
            f"max_residual={result.max_residual:.6e} "
            f"tol={result.tolerance:.1e} {status}"
        )
    return EXIT_OK if all(result.passed for result in results) else EXIT_VERIFY_FAIL


def main(argv: Sequence[str] | None = None) -> int:
    # Each command's parser is its args.parser, so a usage error names it.
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command == "verify":
        return _cmd_verify(args, args.parser)
    table, code = _cmd_table(args, args.parser)
    rendered = table.to_csv() if args.format == "csv" else table.to_json()
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
