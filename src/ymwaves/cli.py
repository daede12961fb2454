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
parameters or from the raw --alpha1..--alpha5/--k/--omega flags.
Numbers are emitted with 17 significant digits so parsing them back
reproduces the exact float. Exit codes: 0 verified / solution, 1 a
failing check / not a solution, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import re
import sys
from collections import Counter
from itertools import chain
from typing import NamedTuple

import numpy as np

from .constraints import (
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
    _field_columns,
    _field_strength_columns,
    _fields_vanish,
    _Grid,
    _phase,
    _require_finite,
    field_coefficient_groups,
)
from .observables import _profile_blocks
from .residuals import _max_analytic_norm, _max_numeric_norms

_FMT = "%.17g"
# a fields row: t, y, z, theta and the two sigma_z columns come formatted
_FIELDS_ROW = "%s,%s,%s,%s,%.17g,%.17g,%s,%.17g,%.17g,%s\r\n"
# verify's numeric residual runs on about this many of its grid points
_NUMERIC_POINTS = 27
# K eps in the rounding K eps (1 + largest |phase| + largest |frame angle|)
# of verify's complex-step allowances: K = 16 is 25 times the largest measured
# on catalogued waves, 3.7 times the largest |numeric - analytic| on others
_ROUNDING = 16.0 * sys.float_info.epsilon


def _fmt(x: float) -> str:
    return _FMT % x


def _add_shared_flags(sp):  # the couplings and --out, the flags of every command
    sp.add_argument("--k", type=float, default=1.0, help="wave number (default 1)")
    sp.add_argument("--omega", type=float, default=None,
                    help="frequency; defaults to k*c, family III takes it freely")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0,
                    help="frame rotation rate (default 0)")
    sp.add_argument("--g", type=float, default=1.0, help="coupling (default 1)")
    sp.add_argument("--c", type=float, default=1.0, help="wave speed (default 1)")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_config_flags(sp, amplitudes=range(1, 6), tol=True):
    sp.add_argument("--family", choices=("I", "II", "III"),
                    help="build the configuration from a family's free parameters")
    _add_shared_flags(sp)
    for i in amplitudes:  # a raw amplitude not given is absent from the namespace
        sp.add_argument(f"--alpha{i}", type=float, default=0.0 if i == 4 else argparse.SUPPRESS,
                        help=f"amplitude alpha{i}" + (" (not with --family)" if i != 4 else ""))
    sp.add_argument("--eta", type=int, choices=(1, -1), default=1,
                    help="sign for families II and III (default +1)")
    sp.add_argument("--xi", type=int, choices=(1, -1), default=1,
                    help="sign for family II (default +1)")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="verification tolerance (default 1e-9)")


def _omega(k, omega, c, family=None) -> float:
    """--omega, or k*c without it; families I and II take only k*c. --c is
    checked before k*c is formed, so that a bad --c is named, and a k*c
    that overflows is named as such."""
    if omega is not None and family not in ("I", "II"):
        return omega
    _require_finite("c", c)
    kc = k * c
    if math.isfinite(k) and not math.isfinite(kc):
        raise OverflowError(f"omega = k*c overflows at k = {k!r} and c = {c!r}")
    if omega is not None and omega != kc:
        raise ValueError(f"--family {family} has omega = k*c = {_fmt(kc)}; "
                         f"--omega {_fmt(omega)} differs")
    return kc


def _family(args) -> FamilySolution:  # a family ignores the signs it does not have
    return FamilySolution(args.family, args.k, _omega(args.k, args.omega, args.c, args.family),
                          args.alpha4, args.lam, args.g, args.c, args.eta, args.xi)


def _build_params(args) -> AnsatzParams:
    if args.family is None:
        return AnsatzParams(*(getattr(args, f"alpha{i}", 0.0) for i in range(1, 6)), args.lam,
                            args.k, _omega(args.k, args.omega, args.c), args.g, args.c)
    given = ", ".join(f"--alpha{i}" for i in (1, 2, 3, 5) if f"alpha{i}" in args)
    if given:
        raise ValueError(f"--family {args.family} builds every amplitude from --alpha4, "
                         f"not {given}")
    return _family(args).params()


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


@contextlib.contextmanager
def _output(args):
    """stdout, or the --out file, opened on entry and closed on exit."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", newline="") as out:
            yield out


class _Check(NamedTuple):
    """A line of verify's report and the value it judges against an allowance."""

    line: str
    value: float
    allowance: float

    @property
    def passes(self) -> bool:
        return self.value <= self.allowance


def _verify_checks(args):
    """verify's report as records: the lines before its checks, the checks
    (the judged constraints or static conditions, then the analytic,
    numeric and Bianchi residuals), the judged kind and the notes after."""
    p = _build_params(args)
    cv = nine_constraints(p)
    scales = constraint_scales(p)
    nm = _normalized(cv, scales, cv._fields)  # as normalized_constraints
    lines = [f"constraint c{i} = {_fmt(raw)} (normalized {_fmt(norm)})"
             for i, (raw, norm) in enumerate(zip(cv, nm), start=1)]
    judged, kind, _ = _judged(p, args.tol, nm)
    if kind == "static conditions":  # the nine are printed, not judged
        for i, (name, value) in enumerate(zip(_STATIC_SUMS, judged), start=1):
            lines.append(f"static condition {i}: {name} at theta = 0 (normalized {_fmt(value)})")

    grid = _Grid.from_ranges(*_parse_grid(args.grid))
    n = len(grid)
    max_analytic = _max_analytic_norm(cv, grid.angle_blocks(p))
    ana_allow = args.tol * max(scales)  # the residual is made of c1..c9
    numeric = grid.coordinates(range(0, n, max(1, n // _NUMERIC_POINTS)))
    # the numeric residual and the Bianchi line (div B and Faraday's law)
    # complex-step the closed forms
    max_numeric, bia = _max_numeric_norms(p, numeric)
    t, _, y, z = numeric
    angles = np.abs(_phase(p, t, z)).max() + np.abs(p.lam * y).max()
    rounding = args.tol + _ROUNDING * (1.0 + float(angles))
    field_bound, potential_bound = _derivative_bounds(p)
    num_allow = field_bound * rounding
    # an error even under a value of 0: the derivatives the bound bounds may
    # have overflowed to NaN, which the largest norm passes over
    if not num_allow < math.inf:
        raise OverflowError("the bound of the numeric residual on the magnitudes overflows")
    m = numeric.shape[1]
    checks = [_Check(line, v, args.tol) for line, v in zip(lines[-len(judged):], judged)] + [
        _Check(f"max analytic residual over {n} grid points = {_fmt(max_analytic)} "
               f"(allowance {_fmt(ana_allow)})", max_analytic, ana_allow),
        _Check(f"max numeric residual over {m} grid points = {_fmt(max_numeric)} "
               f"(allowance {_fmt(num_allow)})", max_numeric, num_allow),
        _Check(f"bianchi residual norm over {m} grid points = {_fmt(bia)} "
               f"(div B and Faraday, allowance {_fmt(num_allow)})", bia, num_allow)]

    notes = []  # the pure-gauge note, made only when the constraint and analytic checks pass
    if all(c.passes for c in checks[:-2]) and abs(p.alpha4) > 0 and _fields_vanish(p, args.tol):
        f = _field_strength_columns(p, numeric[:, :8])[0]
        with np.errstate(all="ignore"):
            f_norm = float(np.sqrt((f * f).sum(axis=(0, 1, 2))).max())
        f_allow = potential_bound * rounding
        if not f_allow < math.inf:
            raise OverflowError("the bound of the field strength on the magnitudes overflows")
        if f_norm <= f_allow:
            notes.append(f"pure gauge: F ~ 0 (max field strength norm {_fmt(f_norm)})")
    return lines[:-len(judged)], checks, kind, notes


def cmd_verify(args) -> int:
    # the whole report is computed before any of it is written, so an
    # input that fails part way leaves no partial report behind
    head, checks, kind, notes = _verify_checks(args)
    lines = head + [c.line for c in checks] + notes
    judged = checks[:-3]  # the last three are the residual checks
    bad = ", ".join(str(i) for i, c in enumerate(judged, start=1) if not c.passes)
    if bad:
        lines.append(f"violated {kind}: {bad}")
    ok = all(c.passes for c in checks)
    lines.append("VERIFIED" if ok else "NOT VERIFIED")

    with _output(args) as out:
        out.write("".join(line + "\n" for line in lines))
    return 0 if ok else 1


def cmd_classify(args) -> int:
    p = _build_params(args)
    try:  # before the output is opened, so that a usage error leaves no file
        result = classify(p, tol=args.tol)
    except ClassificationError as exc:
        result = exc
    with _output(args) as out:
        if isinstance(result, ClassificationError):
            out.write(f"unclassified solution: {result}\n")
            return 1
        if isinstance(result, FamilySolution):
            out.write(f"family {result.family}{_sign_suffix(result.eta, result.xi)} "
                      f"(k={_fmt(result.k)}, "
                      f"omega={_fmt(result.omega)}, alpha4={_fmt(result.alpha4)})\n")
            return 0
        if isinstance(result, PlaneSolution):
            a = result.alphas
            out.write(f"{result.label} plane (alpha3={_fmt(a[2])}, alpha5={_fmt(a[4])})\n")
            return 0
        if isinstance(result, TrivialZeroField):
            out.write(f"trivial zero-field configuration ({result.note})\n")
            return 0
        assert isinstance(result, NotASolution)
        if result.violated:
            out.write("not a solution; violated constraints: "
                      + ", ".join(str(i) for i in result.violated) + "\n")
        else:
            out.write(f"not a solution (worst static group {_fmt(result.worst)})\n")
        return 1


def cmd_scan(args) -> int:
    """The scan's rows as CSV, written block by block as scan_families
    makes them (_scan_blocks), and the tally of their labels, kept as they
    pass. Memory does not grow with --seeds."""
    if args.seeds < 1:  # the library's own message names no flag
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seed < 0:  # nor does numpy's
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    blocks = _scan_blocks(args.seeds, args.seed, args.lam, args.k,
                          _omega(args.k, args.omega, args.c), args.g, args.c)
    tally = Counter()

    def text():
        for rows in blocks:
            tally.update(row.label if row.converged else "discarded" for row in rows)
            block = io.StringIO()
            csv.writer(block).writerows(
                [row.seed_index, int(row.converged)] + [_fmt(a) for a in row.alphas]
                + [_fmt(row.max_constraint), row.label, _fmt(row.distance), row.iterations]
                for row in rows)
            yield block.getvalue()

    _write_csv(args, ["seed", "converged", "alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                      "max_constraint", "classification", "distance", "iterations"], text())
    dest = sys.stdout if args.out is not None else sys.stderr
    dest.write("classification tally: "
               + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())) + "\n")
    if tally["none"]:
        dest.write(f"WARNING: {tally['none']} converged roots match no known branch\n")
        return 1
    return 0


def _distinct_text(column) -> list:
    """A float column as %.17g strings, each distinct value formatted once.
    Values are matched on their bits, not compared as floats, so -0 stays
    apart from 0."""
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([_FMT % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[where].tolist()


def _write_csv(args, header, blocks):
    """Write a header and blocks of CSV text, one write per block; each
    block is whole rows, "\r\n" ends included, as csv.writer would end
    them. The first block is made before the output is opened, so an
    input that fails on it leaves nothing behind."""
    blocks = iter(blocks)
    first = next(blocks, "")
    with _output(args) as out:
        out.writelines(chain([",".join(header) + "\r\n", first], blocks))


def cmd_fields(args) -> int:
    """The closed-form E_y and B_x coefficients on a grid, as CSV.

    A block of rows is formatted column by column. On a product grid t, y
    and z repeat, theta depends only on (t, z) and the sigma_z parts of
    E_y and B_x do not depend on y, so each of these six columns formats
    every distinct value once per block (_distinct_text); only the four
    sigma_x and sigma_y coefficients are formatted row by row."""
    p = _build_params(args)
    # the grid is checked whole before the first row is written
    blocks = _Grid.from_ranges(*_parse_grid(args.grid)).blocks(p)

    def text():
        for r in blocks:
            (ey_x, ey_y, ey_z), (bx_x, bx_y, bx_z) = _field_columns(p, r)  # on sx, sy, sz
            columns = [_distinct_text(c) for c in (r.t, r.y, r.z, r.theta)]
            columns += [ey_x.tolist(), ey_y.tolist(), _distinct_text(ey_z),
                        bx_x.tolist(), bx_y.tolist(), _distinct_text(bx_z)]
            yield "".join(_FIELDS_ROW % row for row in zip(*columns))

    _write_csv(args, ["t", "y", "z", "theta",
                      "E_y_sigma_x", "E_y_sigma_y", "E_y_sigma_z",
                      "B_x_sigma_x", "B_x_sigma_y", "B_x_sigma_z"], text())
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
    _build_params does, next to its closed form over one period, as CSV."""
    if args.family not in ("I", "II"):
        raise ValueError("energy-profile needs --family I or II")
    sol = _family(args)
    p = sol.params()  # built first, so that a build error keeps its own wording
    try:  # the sweep is checked whole before the first row is written
        blocks = _profile_blocks(p, sol, args.theta_samples)
    except ValueError as exc:  # of the checks it makes, only the count's can fail here
        raise ValueError(f"--theta-samples: {exc}") from None
    if sol.family == "II":  # Family I's fields never see lambda + 2 g alpha3
        _check_cancellation(p, 2.0 * sol.g * sol.xi * sol.alpha4)
    fmt = ",".join([_FMT] * 4) + "\r\n"
    _write_csv(args, ["theta", "density", "closed_form", "abs_diff"],
               ("".join(fmt % (th, dens, cf, abs(dens - cf)) for th, dens, cf in zip(*block))
                for block in blocks))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    _add_config_flags(sp, amplitudes=(4,), tol=False)  # it needs --family, so reads only alpha4
    sp.add_argument("--theta-samples", type=int, default=256,
                    help="number of phase samples (default 256)")

    for sp in sub.choices.values():  # -1e-3, -.5 and -1:1:3 are values, as in Python 3.13
        sp._negative_number_matcher = re.compile(r"^-\.?\d")  # argparse has no public setting
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call;
    parse_args keeps no state in it between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
