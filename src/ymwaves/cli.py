"""Command-line interface.

Subcommands:

    verify          check the constraints and residuals of one
                    configuration; exit 0 iff every check passes
    classify        name the solution branch of one configuration
    scan            random-seed Newton search over the amplitudes,
                    classification tally per branch
    fields          CSV of closed-form E_y and B_x coefficients on a grid
    energy-profile  CSV of the energy density over one phase period

Configurations come either from --family with that family's free
parameters or from the raw --alpha1..--alpha5/--k/--omega flags, converted
once to the library's units, where omega is omega / c and time c t.
Numbers are emitted with 17 significant digits so parsing them back
reproduces the exact float. Exit codes: 0 verified / solution, 1 a
failing check / not a solution, 2 usage error; run as the command, it
ends by SIGPIPE, with no message, when its reader closes stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import signal
import sys
from collections import Counter
from itertools import chain
from typing import NamedTuple

import numpy as np

from .constraints import (
    _BRANCHES,
    ClassificationError,
    FamilySolution,
    NotASolution,
    PlaneSolution,
    TrivialZeroField,
    _judged,
    _normalized,
    _scan_blocks,
    _sign_suffix,
    _STATIC_SUMS,
    classify,
    constraint_scales,
    nine_constraints,
)
from .fields import (
    AnsatzParams,
    _derivative_bounds,
    _factored_columns,
    _field_strength_columns,
    _fields_vanish,
    _Grid,
    _grid_axis,
    _require_finite,
    field_coefficient_groups,
)
from .observables import _profile_blocks
from .residuals import _max_analytic_norm, _max_numeric_norms

_FMT = "%.17g"
# a scan row; no label needs quoting: each is empty, none or a branch's
_SCAN_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%d\r\n"
# verify's numeric residual runs on about this many of its grid points
_NUMERIC_POINTS = 27
# K eps, the rounding of verify's complex-step allowances relative to their
# bounds, at any phase: K = 16 is 26 times the largest measured on catalogued
# waves and 5.6 times the largest |numeric - analytic| on others (6,400
# configurations, phases and frame angles to 1e14)
_ROUNDING = 16.0 * sys.float_info.epsilon


def _fmt(x: float) -> str:
    return _FMT % x


# the couplings and --out, the flags of every command; a Family I or II wave
# alone (family_wave) reads omega / c = k alone, so takes no --omega or --c
def _add_shared_flags(sp, family_wave=False):
    sp.add_argument("--k", type=float, default=1.0, help="wave number (default 1)")
    if not family_wave:
        sp.add_argument("--omega", type=float, default=None,
                        help="frequency; defaults to k*c, family III takes it freely")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0,
                    help="frame rotation rate (default 0)")
    sp.add_argument("--g", type=float, default=1.0, help="coupling (default 1)")
    if not family_wave:
        sp.add_argument("--c", type=float, default=1.0, help="wave speed (default 1)")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_config_flags(sp, family_wave=False, tol=True):
    sp.add_argument("--family", choices=("I", "II", "III"),
                    help="build the configuration from a family's free parameters")
    _add_shared_flags(sp, family_wave)
    # a family wave reads alpha4 alone; a raw amplitude not given is absent
    for i in (4,) if family_wave else range(1, 6):
        sp.add_argument(f"--alpha{i}", type=float, default=0.0 if i == 4 else argparse.SUPPRESS,
                        help=f"amplitude alpha{i}" + (" (not with --family)" if i != 4 else ""))
    # the signs, like the raw amplitudes, are absent when not given
    sp.add_argument("--eta", type=int, choices=(1, -1), default=argparse.SUPPRESS,
                    help="sign for families II and III (default +1)")
    sp.add_argument("--xi", type=int, choices=(1, -1), default=argparse.SUPPRESS,
                    help="sign for family II (default +1)")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="verification tolerance (default 1e-9)")


def _converted(name: str, value: float, **inputs) -> float:
    """value, unless it overflowed: then an OverflowError naming it and its inputs."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows at "
                            + " and ".join(f"{k} = {v!r}" for k, v in inputs.items()))
    return value


def _omega(args, family=None) -> float:
    """The library's omega, --omega / --c, or exactly k where omega = k c:
    without --omega, and for a family on the light cone (its rows of the
    branch table), which takes --omega only at k c. Checks --c first."""
    c = args.c
    _require_finite("c", c)
    if c == 0.0:
        raise ValueError("c must be nonzero")
    if args.omega is None:
        return args.k
    if any(b.cone for b in _BRANCHES if b.label == family):
        if args.omega != args.k * c:
            raise ValueError(f"--family {family} has omega = k*c = {_fmt(args.k * c)}; "
                             f"--omega {_fmt(args.omega)} differs")
        return args.k
    _require_finite("omega", args.omega)
    return _converted("omega / c", args.omega / c, omega=args.omega, c=c)


def _signs(args):
    """--eta and --xi, +1 where not given. Only a family reads them, so
    either one without --family is a usage error."""
    given = ", ".join(f"--{name}" for name in ("eta", "xi") if name in args)
    if given and args.family is None:
        raise ValueError(f"{given} signs a family's amplitudes; without --family "
                         "the raw amplitudes carry their own signs")
    return getattr(args, "eta", 1), getattr(args, "xi", 1)


def _build_params(args) -> AnsatzParams:
    eta, xi = _signs(args)
    if args.family is None:
        return AnsatzParams(*(getattr(args, f"alpha{i}", 0.0) for i in range(1, 6)), args.lam,
                            args.k, _omega(args), args.g)
    given = ", ".join(f"--alpha{i}" for i in (1, 2, 3, 5) if f"alpha{i}" in args)
    if given:
        raise ValueError(f"--family {args.family} builds every amplitude from --alpha4, "
                         f"not {given}")
    # a family ignores the signs it does not have
    return FamilySolution(args.family, args.k, _omega(args, args.family), args.alpha4,
                          args.lam, args.g, eta, xi).params()


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be 't0:t1:n,y0:y1:n,z0:z1:n'")
    ranges = []
    for name, part in zip("tyz", parts):
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError("each grid axis must be 'start:stop:count'")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise ValueError(f"grid axis {name}: start and stop must be numbers, "
                             f"got {part!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid bounds must be finite, got {part!r}")
        try:
            n = int(bits[2])
        except ValueError:
            raise ValueError(f"grid axis {name}: count must be a whole number >= 1, "
                             f"got {bits[2]!r}") from None
        ranges.append((lo, hi, n))
    return ranges


def _grids(args):
    """The grid of --grid in the library's units, at --c as _omega checked
    it, its t axis (t0, t1, n) scaled to (c t0, c t1, n); then that t axis
    as given."""
    (t0, t1, n), *rest = _parse_grid(args.grid)
    ct = [_converted("c*t", args.c * t, t=t, c=args.c) for t in (t0, t1)]
    return _Grid.from_ranges((*ct, n), *rest), _grid_axis(t0, t1, n)


def _write(args, made, rest=()):
    """Write each text of made, then of rest, one write apiece, to stdout
    (sys.stdout as it is at the call) or to the --out file. No command
    opens its output before the text an input can fail on is made, so a
    usage error writes nothing and leaves no file: that text is in made,
    made before this is called, and rest is made as it is written."""
    if args.out is None:
        sys.stdout.writelines(chain(made, rest))
    else:
        with open(args.out, "w", newline="") as out:
            out.writelines(chain(made, rest))


class _Check(NamedTuple):
    """A line of verify's report and the value it judges against an allowance."""

    line: str
    value: float
    allowance: float

    @property
    def passes(self) -> bool:
        return self.value <= self.allowance


def _verify_checks(args):
    """verify's report as records: the lines before its checks, the judged
    checks (the constraints or the static conditions), the analytic,
    numeric and Bianchi residual checks, the judged kind and the notes
    after."""
    p = _build_params(args)
    cv = nine_constraints(p)
    scales = constraint_scales(p)
    nm = _normalized(cv, scales, cv._fields)  # as normalized_constraints
    head, lines = [], [f"constraint c{i} = {_fmt(raw)} (normalized {_fmt(norm)})"
                       for i, (raw, norm) in enumerate(zip(cv, nm), start=1)]
    values, kind, _ = _judged(p, args.tol, nm)
    if kind == "static conditions":  # the nine are printed, not judged
        head, lines = lines, [f"static condition {i}: {name} at theta = 0 (normalized {_fmt(v)})"
                              for i, (name, v) in enumerate(zip(_STATIC_SUMS, values), start=1)]
    judged = [_Check(line, v, args.tol) for line, v in zip(lines, values)]

    grid, _ = _grids(args)
    n = len(grid)
    max_analytic = _max_analytic_norm(cv, grid.angle_blocks(p))
    ana_allow = args.tol * max(scales)  # the residual is made of c1..c9
    numeric = grid.coordinates(range(0, n, max(1, n // _NUMERIC_POINTS)))
    # the numeric residual and the Bianchi line (div B and Faraday's law)
    # complex-step the closed forms
    max_numeric, bia = _max_numeric_norms(p, numeric)
    rounding = args.tol + _ROUNDING
    field_bound, potential_bound = _derivative_bounds(p)
    num_allow = field_bound * rounding
    # an error even under a value of 0: the derivatives the bound bounds may
    # have overflowed to NaN, which the largest norm passes over
    if not num_allow < math.inf:
        raise OverflowError("the bound of the numeric residual on the magnitudes overflows")
    m = numeric.shape[1]
    analytic = _Check(f"max analytic residual over {n} grid points = {_fmt(max_analytic)} "
                      f"(allowance {_fmt(ana_allow)})", max_analytic, ana_allow)
    residuals = [
        analytic,
        _Check(f"max numeric residual over {m} grid points = {_fmt(max_numeric)} "
               f"(allowance {_fmt(num_allow)})", max_numeric, num_allow),
        _Check(f"bianchi residual norm over {m} grid points = {_fmt(bia)} "
               f"(div B and Faraday, allowance {_fmt(num_allow)})", bia, num_allow)]

    notes = []  # the pure-gauge note, made only when the constraint and analytic checks pass
    if (all(c.passes for c in [*judged, analytic]) and abs(p.alpha4) > 0
            and _fields_vanish(p, args.tol)):
        f = _field_strength_columns(p, numeric[:, :8])
        with np.errstate(all="ignore"):
            f_norm = float(np.sqrt((f * f).sum(axis=(0, 1, 2))).max())
        f_allow = potential_bound * rounding
        if not f_allow < math.inf:
            raise OverflowError("the bound of the field strength on the magnitudes overflows")
        if f_norm <= f_allow:
            notes.append(f"pure gauge: F ~ 0 (max field strength norm {_fmt(f_norm)})")
    return head, judged, residuals, kind, notes


def cmd_verify(args) -> int:
    head, judged, residuals, kind, notes = _verify_checks(args)
    lines = head + [c.line for c in judged + residuals] + notes
    bad = ", ".join(str(i) for i, c in enumerate(judged, start=1) if not c.passes)
    if bad:
        lines.append(f"violated {kind}: {bad}")
    ok = all(c.passes for c in judged + residuals)
    lines.append("VERIFIED" if ok else "NOT VERIFIED")
    _write(args, ["".join(line + "\n" for line in lines)])
    return 0 if ok else 1


def _answer(args, result) -> str:
    """classify's answer line for its result, or for the ClassificationError it raised."""
    if isinstance(result, ClassificationError):
        return f"unclassified solution: {result}"
    if isinstance(result, FamilySolution):  # omega in the caller's units
        omega = args.omega if args.omega is not None else _converted(
            "omega = k*c", args.k * args.c, k=args.k, c=args.c)
        return (f"family {result.family}{_sign_suffix(result.eta, result.xi)} "
                f"(k={_fmt(result.k)}, omega={_fmt(omega)}, alpha4={_fmt(result.alpha4)})")
    if isinstance(result, PlaneSolution):
        a = result.alphas
        return f"{result.label} plane (alpha3={_fmt(a[2])}, alpha5={_fmt(a[4])})"
    if isinstance(result, TrivialZeroField):
        return f"trivial zero-field configuration ({result.note})"
    assert isinstance(result, NotASolution)
    if result.violated:
        return "not a solution; violated constraints: " + ", ".join(map(str, result.violated))
    return f"not a solution (worst static group {_fmt(result.worst)})"


def cmd_classify(args) -> int:
    p = _build_params(args)
    try:
        result = classify(p, tol=args.tol)
    except ClassificationError as exc:
        result = exc
    _write(args, [_answer(args, result) + "\n"])
    return 1 if isinstance(result, (ClassificationError, NotASolution)) else 0


def cmd_scan(args) -> int:
    """The scan's rows as CSV, written block by block as scan_families
    makes them (_scan_blocks), and the tally of their labels, kept as they
    pass. Memory does not grow with --seeds."""
    # the library's own messages name no flag
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    blocks = _scan_blocks(args.seeds, args.seed, args.lam, args.k, _omega(args), args.g)
    tally = Counter()

    def text():
        for rows in blocks:
            tally.update(row.label if row.converged else "discarded" for row in rows)
            yield "".join(_SCAN_ROW % (row.seed_index, row.converged, *row.alphas,
                                       row.max_constraint, row.label, row.distance,
                                       row.iterations) for row in rows)

    _write_csv(args, ["seed", "converged", "alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                      "max_constraint", "classification", "distance", "iterations"], text())
    dest = sys.stdout if args.out is not None else sys.stderr
    dest.write("classification tally: "
               + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())) + "\n")
    if tally["none"]:
        dest.write(f"WARNING: {tally['none']} converged roots match no known branch\n")
        return 1
    return 0


def _write_csv(args, header, blocks):
    """Write a header and blocks of CSV text, each its own write, through
    _write, the header and the first block its made; each block is whole
    rows, each ended by "\r\n", as RFC 4180 ends them."""
    blocks = iter(blocks)
    _write(args, [",".join(header) + "\r\n", next(blocks, "")], blocks)


def cmd_fields(args) -> int:
    """The closed-form E_y and B_x coefficients on a grid, as CSV. Each
    block comes by its factors (fields._Grid.blocks): t, y, z, theta and the
    sigma_z parts go to the writer as their values and each row's index into
    them. y and z are printed as evaluated, t as given, from its own axis,
    not c t, which is refused unless finite."""
    p = _build_params(args)
    grid, t_given = _grids(args)
    # the grid is checked whole before the first row is written, and then
    # t as given, whose step may overflow where c t's does not
    blocks = grid.blocks(p)
    if not all(map(math.isfinite, t_given.ends())):
        raise OverflowError("the grid's t axis as given is not finite")
    from .csvtext import _csv_block  # only fields and energy-profile load the writer
    _write_csv(args, ["t", "y", "z", "theta",
                      "E_y_sigma_x", "E_y_sigma_y", "E_y_sigma_z",
                      "B_x_sigma_x", "B_x_sigma_y", "B_x_sigma_z"],
               (_csv_block([(t_given.at(t), at_t), (grid.y.at(y), at_y), (grid.z.at(z), at_z),
                            (r.theta, at_pair), *_factored_columns(p, at_y, at_pair, r)])
                for (t, y, z), (at_t, at_y, at_z, at_pair), r in blocks))
    return 0


def _check_cancellation(p: AnsatzParams, atom: float):
    """Refuse a Family II wave whose fields lost lambda + 2 g alpha3 = atom.
    The fields' constant groups are -alpha1 and alpha2 times it; at a large
    |lambda / g|, lambda and 2 g alpha3 cancel in floats to another value,
    and the fields are then not the wave the closed form describes."""
    (e_const, _, _), (b_const, _, _) = field_coefficient_groups(p)
    for got, want in ((e_const, -p.alpha1 * atom), (b_const, p.alpha2 * atom)):
        if not abs(got - want) <= 1e-9 * abs(want):
            raise ValueError(f"--lambda {_fmt(p.lam)} cancels against 2 g alpha3 in floats: "
                             f"the fields miss lambda + 2 g alpha3 = 2 g xi alpha4 = "
                             f"{_fmt(atom)} by more than 1e-9 relative")


def cmd_energy_profile(args) -> int:
    """The density of the Family I or II wave that the flags build, as
    _build_params does, next to its closed form over one period, as CSV.
    The wave reads omega / c = k alone, so it takes no --omega or --c."""
    if args.family not in ("I", "II"):
        raise ValueError("energy-profile needs --family I or II")
    sol = FamilySolution(args.family, args.k, args.k, args.alpha4, args.lam, args.g, *_signs(args))
    p = sol.params()  # built first, so that a build error keeps its own wording
    try:  # the sweep is checked whole before the first row is written
        blocks = _profile_blocks(p, sol, args.theta_samples)
    except ValueError as exc:  # of the checks it makes, only the count's can fail here
        raise ValueError(f"--theta-samples: {exc}") from None
    if sol.family == "II":  # Family I's fields never see lambda + 2 g alpha3
        _check_cancellation(p, 2.0 * sol.g * sol.xi * sol.alpha4)
    from .csvtext import _csv_block
    _write_csv(args, ["theta", "density", "closed_form", "abs_diff"],
               (_csv_block([th, dens, cf, np.abs(dens - cf)]) for th, dens, cf in blocks))
    return 0


@functools.cache
def _parser():
    """The parser and its commands' own parsers by name, the choices of
    the subparsers action it holds: built on first use and shared by
    every later call; parsing keeps no state in them between calls."""
    parser = argparse.ArgumentParser(
        prog="ymwaves",
        description="Construct and verify exact SU(2) Yang-Mills plane waves.")
    # no abbreviations: --h would mean --help
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    sp = sub.add_parser("verify", help="check one configuration end to end")
    _add_config_flags(sp)
    sp.add_argument("--grid", default="0:6.2832:10,-1:1:10,0:6.2832:10",
                    help="t0:t1:n,y0:y1:n,z0:z1:n evaluation grid")

    sp = sub.add_parser("classify", help="name the solution branch of a configuration")
    _add_config_flags(sp)

    sp = sub.add_parser("scan", help="random-seed search over the amplitudes")
    _add_shared_flags(sp)
    sp.add_argument("--seeds", type=int, default=100,
                    help="number of random starts (default 100)")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed; five uniform draws in [-3,3] per start, in order")

    sp = sub.add_parser("fields", help="CSV of E_y and B_x coefficients on a grid")
    _add_config_flags(sp, tol=False)
    sp.add_argument("--grid", default="0:0:1,0:0:1,0:6.2832:64",
                    help="t0:t1:n,y0:y1:n,z0:z1:n evaluation grid")

    sp = sub.add_parser("energy-profile", help="CSV of the density over one period")
    _add_config_flags(sp, family_wave=True, tol=False)  # it needs --family I or II
    sp.add_argument("--theta-samples", type=int, default=256,
                    help="number of phase samples (default 256)")

    for sp in sub.choices.values():  # -1e-3, -.5 and -1:1:3 are values, as in Python 3.13
        sp._negative_number_matcher = re.compile(r"^-\.?\d")  # argparse has no public setting
    return parser, sub.choices


def _parse(argv):
    """argv parsed once, by its command's own parser, to which the
    top-level parser would hand every string after the command only after
    scanning them all itself. Without a known command the top-level parser
    parses, to report that or print its help; the strings the command's
    parser leaves it reports as its parse_args does."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    if argv is None and hasattr(signal, "SIGPIPE"):  # run as the command, not in process
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed reader ends it quietly
    args = _parse(argv)
    try:
        if "tol" in args and not (args.tol > 0.0 and math.isfinite(args.tol)):
            raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
        # looked up by name at each call, so a rebound cmd_* is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an input is too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
