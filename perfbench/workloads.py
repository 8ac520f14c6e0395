"""The benchmark's four workloads: input generation, warm-up, the ops, and
the checks of every op's output against the independent reference.

A workload is an endless stream of rounds.  A round is a list of ops with a
fixed composition, so runs of any length see the same mix; only the drawn
parameters vary.  Inputs come from a `random.Random(seed)`; coordinates that
move an op's cost by orders of magnitude (every scatter coordinate, the
family's x, the exact m and p) are drawn from randomized Kronecker
sequences, which spread every prefix evenly.  Warm-up inputs come from a
fixed stream of their own, so no
input-keyed cache in regpot (e.g. `polys._anchor_v0_cache`) holds a timed
input.

No workload draws an input in one of the seed's known defects (see
`known_defect`), so at the seed no timed op fails; `EDGE_PROBES` holds a
fixed set of inputs beyond those limits.

Ops call regpot through module attributes at call time, so the tracer's
rebinding is seen.  Each op is `(kind, *args)`; OPS maps kind to the call
and to the reduction of its output that the run keeps for the checks.
"""

from __future__ import annotations

import json
import math
import os
import random
from array import array
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from regpot import bounds, certify, cli, core, polys, recursion

import reference as ref

REL_TOL = 1e-8  # an answer further than this from the reference is wrong
ROOT_TOL = 1e-9  # absolute, for tilde-P roots bisected to 1e-12
FAMILY_M_MAX = 20
EXACT_M_MAX = 30
WARM_SEED = "perfbench-warm-up"
OUT_DIR = ".perfbench_out"
CLI_OUT = os.path.join(OUT_DIR, "cli.out")

class _Kronecker:
    """u_k = frac(u_0 + k * alpha) in [0, 1), u_0 drawn from the seed.
    Every prefix covers [0, 1) evenly, so the count of rare, slow inputs in a
    run barely moves from seed to seed.  Streams that are drawn together
    take alpha = frac(sqrt(q)) for distinct primes q, so that their joint
    points fill the cube instead of lying on one line."""

    _ALPHAS = tuple(math.sqrt(q) % 1.0 for q in (2, 3, 5, 7, 11, 13))

    def __init__(self, rng: random.Random, dim: int = 0):
        self.u = rng.random()
        self.alpha = self._ALPHAS[dim]

    def next(self) -> float:
        self.u = (self.u + self.alpha) % 1.0
        return self.u


def _streams(rng: random.Random, n: int) -> list[_Kronecker]:
    return [_Kronecker(rng, dim) for dim in range(n)]


def _draws(rng: random.Random, streams: list[_Kronecker], n: int) -> list[tuple]:
    """n points whose coordinates come one per stream.  Within a batch each
    coordinate is also shuffled on its own before pairing, which spreads
    the rare values of one coordinate over the others' whole range."""
    cols = []
    for s in streams:
        col = [s.next() for _ in range(n)]
        rng.shuffle(col)
        cols.append(col)
    return list(zip(*cols))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------- ops

def op_vmp(m, p, x, tol):
    return core.eval_vmp(core.EvalParams(m, p, x), tol)


def op_fourier(m, xi, tol):
    return core.eval_fourier_transform(m, xi, tol)


def op_chain(m_max, p, x):
    return recursion.chain_values(m_max, p, x)


def op_family(m, p, x):
    return (core.eval_vmp(core.EvalParams(float(m), p, x), 1e-12),
            polys.eval_via_polynomials(m, p, x, 1e-12),
            bounds.ratio(m, p, x))


def op_polys(m, p, x):
    return polys.eval_via_polynomials(m, p, x)


def op_cli(*argv):
    if os.path.exists(CLI_OUT):
        os.remove(CLI_OUT)
    code = cli.main([*argv, "--out", CLI_OUT])
    text = None
    if os.path.exists(CLI_OUT):
        with open(CLI_OUT, encoding="utf-8") as fh:
            text = fh.read()
    return code, text


def op_run_chain(name):
    return certify.run_chain(name)


def op_ode(m):
    return polys.ode_residual_check(m)


def op_sum(m):
    return polys.sum_identity_check(m)


def op_deriv(m):
    return polys.derivative_identities_check(m)


def op_roots(m, p):
    return polys.tildeP_roots(m, p)


def _chain_ok(name, status, factor) -> bool:
    """A certification chain's verdict from its certificate status (None
    when it has none) and its "factor" polynomial as (vars, {exponents:
    coefficient}), None when it has none.  generic_k certifies nothing by
    itself; its factor must be exactly 24 k^3 m (1 + 2m)(k m - 6 m - k)."""
    if name != "generic_k":
        return status == "all_coeffs_nonneg"
    return factor is not None and tuple(factor[0]) == ("y", "m", "k") and factor[1] == {
        (0, 3, 4): 48, (0, 3, 3): -288, (0, 2, 4): -24, (0, 2, 3): -144, (0, 1, 4): -24}


def _keep_chain(name, out):
    factor = out.polys.get("factor")
    return (float(out.name == name and _chain_ok(
        name, out.certificate.status if out.certificate else None,
        (factor.vars, factor.coeffs) if factor is not None else None)),)


# kind -> (call, keep).  `keep(*args, out)` reduces a returned output to the
# floats its check needs; exact results are checked right there, needing no
# reference, and kept as 1.0 (holds) or 0.0.  None keeps the output whole.
OPS = {
    "vmp": (op_vmp, lambda *a, out: (out.value, out.abs_err_estimate)),
    "fourier": (op_fourier, lambda *a, out: (out.value, out.abs_err_estimate)),
    "chain": (op_chain, lambda *a, out: out),
    "family": (op_family, lambda *a, out: (out[0].value, out[0].abs_err_estimate, *out[1:])),
    "polys": (op_polys, lambda *a, out: (out,)),
    "cli": (op_cli, None),
    "run_chain": (op_run_chain, _keep_chain),
    "ode": (op_ode, lambda m, out: (float(not out.coeffs),)),
    "sum": (op_sum, lambda m, out: (float(out is True),)),
    "deriv": (op_deriv, lambda m, out: (float(out is True),)),
    "roots": (op_roots, lambda m, p, out: (out,)),
}


class Raised:
    """An op's exception, reduced to its type name: the exception itself
    would keep the failing frames alive."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Outputs:
    """Every op's output in the order the ops ran, reduced as it arrives:
    numbers go to one array of doubles, exceptions and whole outputs to a
    dict.  A run keeps a few doubles per op, so what the benchmark keeps
    barely moves peak_rss_mb, however many ops a run completes."""

    def __init__(self):
        self._nums = array("d")
        self._ends = array("q")
        self._other: dict[int, object] = {}

    def add(self, op, out):
        i, keep = len(self._ends), OPS[op[0]][1]
        if isinstance(out, Exception):
            self._other[i] = Raised(type(out).__name__)
        elif keep is None:
            self._other[i] = out
        else:
            try:
                self._nums.extend(array("d", keep(*op[1:], out=out)))
            except (TypeError, ValueError, AttributeError, KeyError, IndexError) as exc:
                self._other[i] = Raised(f"malformed output ({type(exc).__name__})")
        self._ends.append(len(self._nums))

    def __len__(self):
        return len(self._ends)

    def __getitem__(self, i: int):
        if i in self._other:
            return self._other[i]
        return self._nums[self._ends[i - 1] if i else 0:self._ends[i]]


# ---------------------------------------------------------------- edge probes

# The seed's known defects, listed in README.md under "Failures at the seed
# commit".  The workloads stay inside these limits, so no timed op fails at
# the seed; EDGE_PROBES, a fixed set of inputs beyond them, is run once per
# run and its share answered right is `edge_ok_frac`.
BIG_M = 100.0  # p = 2, m >= BIG_M: ConvergenceError, and OverflowError from m = 171
TINY_P = 0.15  # p below about 0.12: ConvergenceError
NEAR_MINUS1 = -0.99  # m below: ConvergenceError or up to 1e-5 off (u^m singular at 0)
FOURIER_M = 5.0  # eval_fourier_transform off by 1e-8..1e-1 for m from about 6 up
FOURIER_M_MAX = 4  # the largest m of scatter's Fourier ops
FOURIER_SMALL_XI = 0.2  # ConvergenceError for -1 < m < 1 and small xi
ANCHOR_TOL = 1e-6  # eval_via_polynomials at its default tol: off by about 1e-8

EDGE_PROBES = (
    [("vmp", m, 2.0, x, 1e-10) for m in (100.0, 130.0, 150.0, 170.0, 171.0, 200.0)
     for x in (0.01, 1.0, 50.0)]
    + [("vmp", m, p, x, 1e-10) for p in (0.05, 0.08, 0.11, 0.14)
       for m, x in ((0.5, 0.01), (3.0, 1.0), (10.0, 30.0))]
    + [("vmp", m, p, x, 1e-10) for m in (-0.999, -0.995) for p in (0.5, 2.0) for x in (0.1, 10.0)]
    + [("fourier", m, xi, 1e-10) for m in (6.0, 10.0, 15.0, 20.0) for xi in (0.1, 1.0, 10.0)]
    + [("fourier", m, xi, 1e-10) for m in (-0.5, 0.0, 0.5) for xi in (0.01, 0.05, 0.15)]
    + [("polys", 2, p, x) for p, x in ((2.0, 4.8372), (2.0, 4.8462), (2.0, 4.8642), (2.0, 4.937),
                                        (3.0, 2.8979), (3.0, 2.9033), (3.0, 3.2))]
)


def run_edge_probes():
    """Every edge probe's output, as the timed loop keeps them."""
    outs = Outputs()
    for op in EDGE_PROBES:
        try:
            out = OPS[op[0]][0](*op[1:])
        except Exception as exc:  # a failure is the probe's result
            out = exc
        outs.add(op, out)
    return outs


def known_defect(op, failure: str) -> bool:
    """Whether an edge probe's failure is a known seed defect.  `failure` is
    the name of the exception the op raised, "inaccurate", or "anchor" for
    an eval_via_polynomials miss of at most ANCHOR_TOL."""
    kind = op[0]
    if kind == "vmp":
        m, p = op[1], op[2]
        if failure == "OverflowError":
            return p == 2.0 and m >= BIG_M
        near_minus1 = -1.0 < m < NEAR_MINUS1
        if failure == "inaccurate":
            return near_minus1
        return failure == "ConvergenceError" and (
            (p == 2.0 and m >= BIG_M) or p < TINY_P or near_minus1)
    if kind == "fourier":
        m, xi = op[1], op[2]
        if failure == "inaccurate":
            return m >= FOURIER_M
        return failure == "ConvergenceError" and m < 1.0 and xi < FOURIER_SMALL_XI
    return kind == "polys" and failure == "anchor"


# ---------------------------------------------------------------- scatter

_P_SET = (0.5, 0.75, 1.5, 2.0, 3.0, None)  # None: continuous in [0.3, 4]


def _m(u: float, hi: int = 20) -> float:
    """Below 1/2: integers 0..hi; above: continuous in [-0.99, hi]."""
    n = 2.0 * (hi + 1)
    return float(int(n * u)) if u < 0.5 else max(-1.0 + n * (u - 0.5), NEAR_MINUS1)


def _p(u: float) -> float:
    p = _P_SET[int(6.0 * u)]
    return 0.3 + 3.7 * (6.0 * u % 1.0) if p is None else p


def _tol(u: float) -> float:
    return 1e-10 if u < 0.5 else 1e-12


def scatter_rounds(seed):
    """100 independent calls per round: 86 general eval_vmp, 2 at x = 0,
    2 at m = -1, 8 eval_fourier_transform at m <= 4, 2 from the domain edges
    (cycling through m in [20, 100) at p = 2, x in [1e2, 1e6], p in
    [0.15, 0.3]).  The inputs beyond, where regpot fails at the seed, are
    EDGE_PROBES."""
    rng = random.Random(seed)

    general, at_zero, at_minus1, fourier = (_streams(rng, n) for n in (4, 3, 3, 3))
    big_m, huge_x, tiny_p = (_streams(rng, n) for n in (3, 4, 4))
    n_edge = 0
    while True:
        ops = [("vmp", _m(m), _p(p), _log_uniform(x, 1e-3, 1e2), _tol(t))
               for m, p, x, t in _draws(rng, general, 86)]
        ops += [("vmp", 20.0 * m, _p(p), 0.0, _tol(t)) for m, p, t in _draws(rng, at_zero, 2)]
        ops += [("vmp", -1.0, _p(p), _log_uniform(x, 1e-3, 1e2), _tol(t))
                for p, x, t in _draws(rng, at_minus1, 2)]
        ops += [("fourier", _m(m, FOURIER_M_MAX), _log_uniform(xi, FOURIER_SMALL_XI, 1e2), _tol(t))
                for m, xi, t in _draws(rng, fourier, 8)]
        for _ in range(2):
            kind, n_edge = n_edge % 3, n_edge + 1
            if kind == 0:
                m, x, t = _draws(rng, big_m, 1)[0]
                ops.append(("vmp", 20.0 + (BIG_M - 20.0) * m, 2.0, _log_uniform(x, 1e-3, 1e2), _tol(t)))
            elif kind == 1:
                m, p, x, t = _draws(rng, huge_x, 1)[0]
                ops.append(("vmp", _m(m), _p(p), _log_uniform(x, 1e2, 1e6), _tol(t)))
            else:
                m, p, x, t = _draws(rng, tiny_p, 1)[0]
                ops.append(("vmp", _m(m), _log_uniform(p, TINY_P, 0.3),
                            _log_uniform(x, 1e-3, 1e2), _tol(t)))
        rng.shuffle(ops)
        yield ops


def scatter_warm_up():
    rng = random.Random(WARM_SEED)
    for _ in range(3):
        op_vmp(rng.uniform(0.0, 5.0), 1.5, rng.uniform(0.1, 2.0), 1e-10)
    op_fourier(rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0), 1e-10)


# ---------------------------------------------------------------- family

def family_rounds(seed):
    """Five x per round, log-uniform in [0.5, 8]; four at p = 2 and one at
    p = 3.  Per x: one chain_values(20) op, then one op per m = 1..20."""
    rng = random.Random(seed)
    xs = {2.0: _Kronecker(rng), 3.0: _Kronecker(rng)}
    while True:
        ps = [2.0, 2.0, 2.0, 2.0, 3.0]
        rng.shuffle(ps)
        ops = []
        for p in ps:
            x = _log_uniform(xs[p].next(), 0.5, 8.0)
            ops.append(("chain", FAMILY_M_MAX, p, x))
            ops += [("family", m, p, x) for m in range(1, FAMILY_M_MAX + 1)]
        yield ops


def family_warm_up():
    polys.build_P(FAMILY_M_MAX)
    polys.build_Q(FAMILY_M_MAX)
    rng = random.Random(WARM_SEED)
    for p in (2.0, 3.0):
        x = rng.uniform(3.0, 5.0)
        op_chain(FAMILY_M_MAX, p, x)
        op_family(FAMILY_M_MAX, p, x)


# ---------------------------------------------------------------- catalog

SUITES = ("v0", "ratio", "convexity", "monotone", "jensen", "boyd", "r123")


def catalog_rounds(seed):
    """The CLI jobs that regenerate the paper's tables, one op each, in a
    seeded order: every verify suite, one table, roots, sweep, certify all."""
    rng = random.Random(seed)
    while True:
        ops = [("cli", "verify", s, "--format", "json") for s in SUITES]
        ops.append(("cli", "table", "--m", repr(rng.choice((0.0, 0.5, 1.0, 2.0, 3.0))),
                    "--p", repr(rng.choice((0.75, 1.5, 2.0, 3.0))),
                    "--grid", f"0.01,{rng.choice((20, 50, 100))},{rng.randint(80, 100)},geometric",
                    "--with-bounds", "--with-ratio", "--with-vav", str(rng.randint(3, 5)),
                    "--format", "json"))
        ops.append(("cli", "roots", "--m-max", str(rng.randint(8, 16)),
                    "--p", repr(rng.choice((1.5, 2.0, 2.5, 3.0))), "--format", "json"))
        ops.append(("cli", "sweep", "--k", repr(rng.choice((4.0, 8.0))),
                    "--p", repr(rng.choice((2.0, 3.0))),
                    "--m-list", ",".join(map(str, sorted(rng.sample(range(1, 9), 4)))),
                    "--grid", f"0.02,30,{rng.randint(200, 600)},linear", "--format", "json"))
        ops.append(("cli", "certify", "all", "--format", "json"))
        rng.shuffle(ops)
        yield ops


def catalog_warm_up():
    polys.build_tildeP(16)
    rng = random.Random(WARM_SEED)
    op_cli("eval", "--m", "0.5", "--p", "2", "--x", repr(rng.uniform(0.1, 2.0)), "--format", "json")


# ---------------------------------------------------------------- exact

CHAINS = ("k4p2", "k8p2", "generic_k", "p3k4")


def exact_rounds(seed):
    """Per round: the four certification chains, the ODE, sum and derivative
    identity checks at two m in [1, 30], and two tilde-P roots at odd m <= 29
    with p in [1.2, 4]."""
    rng = random.Random(seed)
    ms, roots = _Kronecker(rng), _streams(rng, 2)
    while True:
        ops = [("run_chain", name) for name in CHAINS]
        for _ in range(2):
            m = 1 + int(EXACT_M_MAX * ms.next())
            ops += [("ode", m), ("sum", m), ("deriv", m)]
        ops += [("roots", 1 + 2 * int(15 * m), 1.2 + 2.8 * p) for m, p in _draws(rng, roots, 2)]
        rng.shuffle(ops)
        yield ops


def exact_warm_up():
    polys.build_P(EXACT_M_MAX)
    polys.build_Q(EXACT_M_MAX)
    polys.build_tildeP(EXACT_M_MAX)


# name -> (rounds, warm-up, rounds after which peak_rss_mb is read).  The
# last is a little under the rounds of a 9 s run at the seed: regpot caches
# per input, so RSS is read at a fixed point of the input stream, where a
# faster program has seen the same inputs as a slower one.
WORKLOADS = {
    "scatter": (scatter_rounds, scatter_warm_up, 150),
    "family": (family_rounds, family_warm_up, 10),
    "catalog": (catalog_rounds, catalog_warm_up, 2),
    "exact": (exact_rounds, exact_warm_up, 56),
}


# ---------------------------------------------------------------- checks

class Checker:
    """Compares kept outputs with the reference; caches reference values,
    since family and table ops share them."""

    def __init__(self):
        self._v: dict = {}
        self._f: dict = {}
        self.bound_hold = 0
        self.bound_miss = 0

    def prefetch(self, ops):
        """Compute the V and Fourier references of the point ops in two
        processes, since they are most of the checking time."""
        v_keys, f_keys = set(), set()
        for op in ops:
            if op[0] == "vmp":
                v_keys.add(op[1:4])
            elif op[0] == "polys":
                v_keys.add((float(op[1]), *op[2:4]))
            elif op[0] == "fourier":
                f_keys.add(op[1:3])
            elif op[0] == "chain":
                v_keys.update((float(k), op[2], op[3]) for k in range(op[1] + 1))
        v_keys, f_keys = sorted(v_keys - self._v.keys()), sorted(f_keys - self._f.keys())
        with ProcessPoolExecutor(2) as pool:
            for keys, fn, cache in ((f_keys, ref.fourier, self._f), (v_keys, ref.vmp, self._v)):
                if keys:
                    cache.update(zip(keys, pool.map(fn, *zip(*keys), chunksize=64)))

    def v(self, m, p, x):
        key = (m, p, x)
        if key not in self._v:
            self._v[key] = ref.vmp(m, p, x)
        return self._v[key]

    def fourier(self, m, xi):
        if (m, xi) not in self._f:
            self._f[m, xi] = ref.fourier(m, xi)
        return self._f[m, xi]

    @staticmethod
    def _close(got, want, tol=REL_TOL) -> bool:
        return abs(got - want) <= tol * abs(want)

    def _estimated(self, value, abs_err_estimate, want) -> bool:
        """A value with an error estimate: tally whether the estimate held,
        and return whether the value is within REL_TOL."""
        err = abs(value - want)
        if err <= abs_err_estimate:
            self.bound_hold += 1
        else:
            self.bound_miss += 1
        return err <= REL_TOL * abs(want)

    def check(self, op, out) -> str:
        """'ok'; 'raised' (the op threw) or 'inaccurate' (a number missed the
        reference by more than REL_TOL), both only for known defects, which
        only edge probes reach; or 'violated': any other failure, or an exact
        or pass/fail result that is wrong (non-zero exit, failed suite or
        certificate, false identity)."""
        if isinstance(out, Raised):
            failure = out.name
        else:
            try:
                failure = getattr(self, "_check_" + op[0])(*op[1:], out=out)
            except (TypeError, ValueError, KeyError, IndexError):  # malformed output
                failure = "violated"
            if failure is None:
                return "ok"
        if failure != "violated" and known_defect(op, failure):
            return "raised" if isinstance(out, Raised) else "inaccurate"
        return "violated"

    # A _check_<kind> returns None when the output is right, else the failure:
    # "inaccurate", "anchor" (see known_defect) or "violated".

    @staticmethod
    def _numeric(ok: bool):
        return None if ok else "inaccurate"

    @staticmethod
    def _exact(ok: bool):
        return None if ok else "violated"

    def _check_vmp(self, m, p, x, tol, out):
        return self._numeric(self._estimated(*out, self.v(m, p, x)))

    def _check_fourier(self, m, xi, tol, out):
        return self._numeric(self._estimated(*out, self.fourier(m, xi)))

    def _check_chain(self, m_max, p, x, out):
        return self._numeric(len(out) == m_max + 1 and all(
            self._close(v, self.v(float(k), p, x)) for k, v in enumerate(out)))

    def _check_family(self, m, p, x, out):
        value, estimate, via_polys, ratio = out
        vm, vm1 = self.v(float(m), p, x), self.v(float(m - 1), p, x)
        return self._numeric(self._estimated(value, estimate, vm) and self._close(via_polys, vm)
                             and self._close(ratio, vm / vm1))

    def _check_polys(self, m, p, x, out):
        want = self.v(float(m), p, x)
        if self._close(out[0], want):
            return None
        return "anchor" if self._close(out[0], want, ANCHOR_TOL) else "inaccurate"

    def _check_run_chain(self, name, out):
        return self._exact(out[0] == 1.0)

    def _check_ode(self, m, out):
        return self._exact(out[0] == 1.0)

    _check_sum = _check_deriv = _check_ode

    def _check_roots(self, m, p, out):
        return self._numeric(abs(out[0] - ref.tildeP_root(m, p)) <= ROOT_TOL)

    def _check_cli(self, *argv, out):
        code, text = out
        if code != 0 or text is None:
            return "violated"
        data = json.loads(text)
        sub = argv[0]
        if sub == "verify":
            return self._exact(bool(data) and all(r["passed"] and r["n_points"] > 0 for r in data))
        if sub == "certify":
            return self._exact([r["chain"] for r in data] == list(CHAINS) and all(
                _chain_ok(r["chain"], r["certificate"] and r["certificate"]["status"],
                          _json_poly(r["polys"].get("factor")))
                for r in data))
        opts = dict(zip(argv[1::2], argv[2::2]))
        if sub == "table":
            return self._check_table(float(opts["--m"]), float(opts["--p"]),
                                     int(opts["--with-vav"]), data)
        if sub == "roots":
            p = float(opts["--p"])
            if len(data) != int(opts["--m-max"]):
                return "violated"
            return self._numeric(all(
                math.isnan(float(r["tildeP_root"])) if r["m"] % 2 == 0
                else abs(float(r["tildeP_root"]) - ref.tildeP_root(r["m"], p)) <= ROOT_TOL
                for r in data))
        return self._check_sweep(opts, data)

    def _check_table(self, m, p, n_av, rows):
        if not rows:
            return "violated"
        ok = True
        for row in rows:
            x = float(row["x"])
            want = self.v(m, p, x)
            value = float(row["value"])
            ok = self._estimated(value, float(row["abs_err_estimate"]), want) and ok
            ratio = want / self.v(m - 1.0, p, x)
            v_av = sum(self.v(float(k), p, x) for k in range(n_av)) / n_av
            lo, hi = float(row["jensen_lower"]), float(row["jensen_upper"])
            ok = (ok and self._close(float(row["ratio"]), ratio)
                  and self._close(float(row["v_av"]), v_av)
                  and want >= lo * (1 - REL_TOL) and not want > hi * (1 + REL_TOL))
        return self._numeric(ok)

    def _check_sweep(self, opts, data):
        k, p = float(opts["--k"]), float(opts["--p"])
        start, stop, count, _ = opts["--grid"].split(",")
        start, stop, count = float(start), float(stop), int(count)
        step = (stop - start) / (count - 1)
        ys = [start + i * step for i in range(count)]
        orientation = "lower" if k >= 8 else "upper"
        ms = [int(v) for v in opts["--m-list"].split(",")]
        if data["orientation"] != orientation or sorted(map(int, data["per_m"])) != ms:
            return "violated"
        for m in ms:
            got = data["per_m"][str(m)]
            want = min(ref.sweep_E(k, p, m, y, orientation) for y in ys)
            if abs(got["min_E"] - want) > REL_TOL * max(1.0, abs(want)):
                return "inaccurate"
            if abs(want) > 1e-12 and got["ok"] != (want >= 0):
                return "violated"
        return None


def _json_poly(d):
    """A RatPoly's `to_json_dict` as (vars, {exponents: Fraction}); None stays None."""
    if d is None:
        return None
    return d["vars"], {tuple(map(int, e.split(","))): Fraction(int(n), int(q))
                       for e, (n, q) in d["terms"].items()}
