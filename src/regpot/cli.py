"""Command-line surface.

Subcommands: eval, table, verify, certify, roots, sweep.
Exit codes: 0 pass, 1 violation/mismatch, 2 usage error, 3 domain error.
Every number printed comes from a library call; this module only formats.
The VMP_TOL environment variable overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, certify, polys, recursion
from .core import DEFAULT_TOL, EvalParams, _check_finite, eval_vmp, eval_vmp_many
from .errors import ChainMismatchError, DomainError, RegpotError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

SUITES = ("v0", "ratio", "convexity", "monotone", "jensen", "boyd", "r123", "all")
CHAINS = (*certify.ALL_CHAINS, "all")


def _default_tol() -> float:
    env = os.environ.get("VMP_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError as exc:
        raise DomainError(f"VMP_TOL is not a number: {env!r}") from exc
    if not (0 < tol < 1):
        raise DomainError(f"VMP_TOL must be in (0, 1), got {tol}")
    return tol


def fmt_json(v: float) -> str:
    return format(v, ".17g")


def fmt_human(v: float) -> str:
    return format(v, ".10g")


def _parse_number(text: str, kind: type = float):
    """kind(text), float or int, with a DomainError for malformed text."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{text!r} is not a valid {kind.__name__}") from None


def _parse_grid(spec: str) -> list[float]:
    """Grid spec 'start,stop,count,scale' with scale linear|geometric."""
    parts = spec.split(",")
    if len(parts) != 4:
        raise DomainError(f"grid spec must be start,stop,count,scale; got {spec!r}")
    start, stop = _parse_number(parts[0]), _parse_number(parts[1])
    _check_finite(start=start, stop=stop)
    count = _parse_number(parts[2], int)
    scale = parts[3].strip()
    if count < 2:
        raise DomainError(f"grid count must be >= 2, got {count}")
    if scale == "linear":
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    if scale == "geometric":
        if start <= 0 or stop <= 0:
            raise DomainError("geometric grid requires positive endpoints")
        return np.geomspace(start, stop, count).tolist()
    raise DomainError(f"grid scale must be linear or geometric, got {scale!r}")


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write --out {out}: {exc.strerror}\n")
            raise SystemExit(EXIT_USAGE) from None


# ---------------------------------------------------------------- subcommands


def cmd_eval(args) -> int:
    res = eval_vmp(EvalParams(args.m, args.p, args.x), args.tol)
    if args.format == "json":
        _emit(json.dumps({
            "m": fmt_json(args.m), "p": fmt_json(args.p), "x": fmt_json(args.x),
            "value": fmt_json(res.value),
            "abs_err_estimate": fmt_json(res.abs_err_estimate),
            "method": res.method,
        }, sort_keys=True), args.out)
    else:
        _emit(f"V({fmt_human(args.m)}, p={fmt_human(args.p)}, x={fmt_human(args.x)}) "
              f"= {fmt_human(res.value)}  (est. err {res.abs_err_estimate:.2e}, "
              f"method {res.method})", args.out)
    return EXIT_OK


def _table_rows(args) -> tuple[list[str], list[dict]]:
    grid = _parse_grid(args.grid)
    cols = ["x", "value", "abs_err_estimate", "method"]
    if args.with_bounds:
        cols += ["jensen_lower", "jensen_upper"]
        if args.m == 0:
            cols += ["g_pi", "g_4"]
    if args.with_ratio:
        cols += ["ratio"]
    if args.with_vav:
        cols += ["v_av"]
    values, errs, methods = eval_vmp_many(args.m, args.p, grid, args.tol)
    # the ratio and v_av columns: one call and one chain on the points x > 0
    nan = float("nan")
    xs = np.asarray(grid)
    pos = xs > 0
    if args.with_ratio:
        ratios = np.full(xs.size, nan)
        if pos.any():
            ratios[pos] = values[pos] / eval_vmp_many(args.m - 1.0, args.p, xs[pos], args.tol)[0]
    if args.with_vav:
        v_avs = np.empty(xs.size)
        if pos.any():
            v_avs[pos] = recursion.averaged_potential(args.with_vav, args.p, xs[pos], args.tol)
        if not pos.all():
            v_avs[~pos] = recursion.averaged_at_zero(args.with_vav, args.p)
    rows = []
    for i, x in enumerate(grid):
        row: dict = {"x": x, "value": float(values[i]),
                     "abs_err_estimate": float(errs[i]), "method": methods[i]}
        if args.with_bounds:
            if x > 0:
                lo, hi = bounds.jensen_bounds(args.m, args.p, x)
            else:
                lo, hi = nan, nan
            row["jensen_lower"] = lo
            row["jensen_upper"] = hi if hi is not None else nan
            if args.m == 0:
                row["g_pi"] = bounds.g_k(math.pi, x)
                row["g_4"] = bounds.g_k(4.0, x)
        if args.with_ratio:
            row["ratio"] = float(ratios[i])
        if args.with_vav:
            row["v_av"] = float(v_avs[i])
        rows.append(row)
    return cols, rows


def cmd_table(args) -> int:
    cols, rows = _table_rows(args)
    if args.format == "json":
        payload = [{c: (fmt_json(r[c]) if isinstance(r[c], float) else r[c]) for c in cols}
                   for r in rows]
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(
                fmt_human(r[c]) if isinstance(r[c], float) else str(r[c]) for c in cols))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _run_suite(name: str, args) -> list[bounds.Report]:
    if name == "v0":
        return [bounds.verify_v0_bounds(tol=args.tol)]
    if name == "ratio":
        return [bounds.verify_ratio_bounds(args.m_max, tol=args.tol)]
    if name == "convexity":
        return bounds.verify_convexity_reciprocal(range(1, min(args.m_max, 10) + 1), 2.0,
                                                  tol=args.tol)
    if name == "monotone":
        return bounds.verify_ratio_monotone(range(1, min(args.m_max, 10) + 1), tol=args.tol)
    if name == "jensen":
        return [bounds.verify_jensen(m, p, tol=args.tol)
                for m in (0.0, 1.0, 2.5, 5.0) for p in (0.5, 0.75, 2.0, 3.0)]
    if name == "boyd":
        return [bounds.verify_boyd()]
    if name == "r123":
        return [bounds.verify_r123(tol=args.tol)]
    raise DomainError(f"unknown suite {name!r}")


def cmd_verify(args) -> int:
    names = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    reports: list[bounds.Report] = []
    for n in names:
        reports.extend(_run_suite(n, args))
    if args.format == "json":
        _emit("[" + ",".join(r.to_json() for r in reports) + "]", args.out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: {r.n_points} points, "
                         f"worst margin {r.worst_margin:.3e}, "
                         f"{len(r.violations)} violation(s)")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_certify(args) -> int:
    names = list(CHAINS[:-1]) if args.chain == "all" else [args.chain]
    results = []
    code = EXIT_OK
    for n in names:
        try:
            results.append(certify.run_chain(n))
        except ChainMismatchError as exc:
            _emit(f"FAIL  {n}: {exc}", args.out)
            return EXIT_VIOLATION
    for res in results:
        if res.certificate is not None and not res.certificate.passed:
            code = EXIT_VIOLATION
    if args.format == "json":
        _emit("[" + ",".join(certify.certificate_json(r) for r in results) + "]", args.out)
    else:
        lines = []
        for res in results:
            status = (res.certificate.status if res.certificate is not None
                      else "anchors_matched")
            lines.append(f"{res.name}: {status}")
            for label, val in res.anchors.items():
                lines.append(f"    anchor {label} = {val}")
        _emit("\n".join(lines) + "\n", args.out)
    return code


def cmd_roots(args) -> int:
    rows = []
    for m in range(1, args.m_max + 1):
        z = polys.tildeP_roots(m, args.p)
        if z is None:
            z = float("nan")
        # P_m(y) = tilde-P_m(1/p - y): the same root as P_root_nonneg's
        rows.append({"m": m, "tildeP_root": z, "P_root": 1.0 / args.p - z})
    if args.format == "json":
        payload = [{k: (fmt_json(v) if isinstance(v, float) else v) for k, v in r.items()}
                   for r in rows]
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        lines = ["m,tildeP_root,P_root"]
        for r in rows:
            lines.append(f"{r['m']},{fmt_human(r['tildeP_root'])},{fmt_human(r['P_root'])}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    m_list = [_parse_number(v, int) for v in args.m_list.split(",")]
    grid = _parse_grid(args.grid)
    rep = certify.numeric_lemma_sweep(args.k, args.p, m_list, grid,
                                      orientation=args.orientation)
    if args.format == "json":
        _emit(json.dumps(rep, sort_keys=True, default=float), args.out)
    else:
        lines = [f"k={fmt_human(args.k)} p={fmt_human(args.p)} "
                 f"orientation={rep['orientation']}"]
        for m, v in rep["per_m"].items():
            status = "ok" if v["ok"] else "NEGATIVE"
            lines.append(f"m={m}: {status}, min E = {v['min_E']:.6e} "
                         f"at y = {fmt_human(v['argmin_y'])}, "
                         f"intervals = {v['negative_intervals']}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `vmp` parser, built on the first call and shared after it."""
    top = _Parser(prog="vmp", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, grid_default=None):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("csv", "json", "human"), default="human")
        p.add_argument("--out", default=None)
        if grid_default is not None:
            p.add_argument("--grid", default=grid_default,
                           help="start,stop,count,scale (scale: linear|geometric)")

    p = sub.add_parser("eval")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    common(p, grid_default="0.01,100,200,geometric")
    p.add_argument("--with-bounds", action="store_true")
    p.add_argument("--with-ratio", action="store_true")
    p.add_argument("--with-vav", type=int, default=None, metavar="N")
    p.set_defaults(func=cmd_table, format="csv")

    p = sub.add_parser("verify")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--m-max", type=int, default=20, dest="m_max")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify")
    p.add_argument("chain", choices=CHAINS)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("roots")
    p.add_argument("--m-max", type=int, default=12, dest="m_max")
    p.add_argument("--p", type=float, default=2.0)
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("sweep")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m-list", default="1,2,3,4", dest="m_list")
    p.add_argument("--orientation", choices=("upper", "lower"), default=None)
    common(p, grid_default="0.02,30,1500,linear")
    p.set_defaults(func=cmd_sweep)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.tol is None:
            args.tol = _default_tol()
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except RegpotError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
