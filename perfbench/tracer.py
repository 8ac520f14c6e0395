"""Out-of-process tracer: spans around regpot's public functions, recorded
from the benchmark's own files without changing regpot.

`install` wraps each function in SPANS and rebinds every name that refers to
it in every `regpot*` module namespace and class (so `regpot.bounds.eval_vmp`
and `regpot.cli.eval_vmp` are traced as well as `regpot.core.eval_vmp`), and
replaces `regpot.polys.mp` with a proxy whose `quad` and `erfc` are traced,
so only the mpmath calls polys makes are counted.  `uninstall` restores
every binding.  Spans stay in memory, tagged with the op id the harness sets,
and are written out once at the end.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import mpmath

# (module, attribute, span name).  Span names start with the layer name.
# Pure scalar formulas (bounds.g_k, G_k_m, ...) and cli formatting helpers
# are not wrapped: their time counts as self time of the traced caller.
SPANS = [
    ("regpot.core", "eval_vmp", "core.eval_vmp"),
    ("regpot.core", "_quad_vmp", "core.quadrature"),
    ("regpot.core", "eval_asymptotic", "core.eval_asymptotic"),
    ("regpot.core", "eval_fourier_transform", "core.eval_fourier_transform"),
    ("regpot.core", "eval_vm0", "core.eval_vm0"),
    ("regpot.core", "eval_closed_form_inv_p", "core.eval_closed_form_inv_p"),
    ("regpot.recursion", "chain_values", "recursion.chain_values"),
    ("regpot.recursion", "averaged_potential", "recursion.averaged_potential"),
    ("regpot.recursion", "averaged_at_zero", "recursion.averaged_at_zero"),
    ("regpot.polys", "eval_via_polynomials", "polys.eval_via_polynomials"),
    ("regpot.polys", "ode_residual_check", "polys.ode_residual_check"),
    ("regpot.polys", "sum_identity_check", "polys.sum_identity_check"),
    ("regpot.polys", "derivative_identities_check", "polys.derivative_identities_check"),
    ("regpot.polys", "tildeP_roots", "polys.tildeP_roots"),
    ("regpot.polys", "P_root_nonneg", "polys.P_root_nonneg"),
    ("regpot.bounds", "ratio", "bounds.ratio"),
    ("regpot.bounds", "verify_v0_bounds", "bounds.verify.v0"),
    ("regpot.bounds", "verify_ratio_bounds", "bounds.verify.ratio"),
    ("regpot.bounds", "verify_ratio_monotone", "bounds.verify.monotone"),
    ("regpot.bounds", "verify_convexity_reciprocal", "bounds.verify.convexity"),
    ("regpot.bounds", "verify_jensen", "bounds.verify.jensen"),
    ("regpot.bounds", "verify_boyd", "bounds.verify.boyd"),
    ("regpot.bounds", "verify_r123", "bounds.verify.r123"),
    ("regpot.certify", "run_chain", "certify.run_chain"),
    ("regpot.certify", "numeric_lemma_sweep", "certify.numeric_lemma_sweep"),
    ("regpot.cli", "main", "cli.main"),
]
RATPOLY_EVAL = ("eval",)
RATPOLY_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__pow__", "diff", "subs", "shift")
MPMATH = ("quad", "erfc")
LAYERS = ("core", "recursion", "polys", "ratpoly", "bounds", "certify", "cli")


class _MpmathProxy(types.ModuleType):
    """Stands in for `mpmath` inside regpot.polys; unlisted names delegate."""

    def __getattr__(self, name):
        return getattr(mpmath, name)


def _info(result) -> int:
    """Small integer kept with a span: 1 for an asymptotic EvalResult, the
    point count for a bounds Report, else 0."""
    method = getattr(result, "method", None)
    if isinstance(method, str):
        return int(method == "asymptotic")
    n_points = getattr(result, "n_points", 0)
    return n_points if isinstance(n_points, int) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next = 0
        # one entry per finished span
        self.sid, self.op, self.parent, self.name = array("q"), array("q"), array("q"), array("i")
        self.t0, self.t1, self.self_s = array("d"), array("d"), array("d")
        self.failed, self.info = array("b"), array("q")
        self._bindings: list[tuple] = []  # (owner, attribute, original)
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._proxy = None

    # -- spans -------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        name_idx = len(self.names)
        self.names.append(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            failed, info = 1, 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed, info = 0, _info(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self._record(sid, parent, name_idx, t0, t1, t1 - t0 - frame[1], failed, info)

        traced.__wrapped__ = fn
        return traced

    def _record(self, sid, parent, name_idx, t0, t1, self_s, failed, info):
        self.sid.append(sid)
        self.op.append(self.op_id)
        self.parent.append(parent)
        self.name.append(name_idx)
        self.t0.append(t0)
        self.t1.append(t1)
        self.self_s.append(self_s)
        self.failed.append(failed)
        self.info.append(info)

    # -- binding -----------------------------------------------------

    @staticmethod
    def _namespaces():
        """Every regpot module and every class defined in one."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "regpot" or n.startswith("regpot."))]
        classes = [v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("regpot")]
        return mods + classes

    def install(self):
        if not self._wrappers:
            self._make_wrappers()
        wrappers = self._wrappers
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and self._originals.get(id(value)) is value:
                    self._bindings.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])
        polys = sys.modules["regpot.polys"]
        self._bindings.append((polys, "mp", polys.mp))
        polys.mp = self._proxy
        self._assert_complete()

    def _make_wrappers(self):
        wrappers = self._wrappers
        for mod_name, attr, span in SPANS:
            fn = getattr(sys.modules[mod_name], attr, None)
            if fn is None:
                # renamed or removed: its metrics read 0 and its time goes to the caller
                print(f"tracer: {mod_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            wrappers[id(fn)] = self._wrap(span, fn)
            self._originals[id(fn)] = fn
        from regpot.ratpoly import RatPoly
        for group, attrs in (("ratpoly.eval", RATPOLY_EVAL), ("ratpoly.arith", RATPOLY_ARITH)):
            for attr in attrs:
                fn = vars(RatPoly).get(attr)
                # __radd__ is __add__ and __rmul__ is __mul__: one wrapper each
                if fn is not None and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{group}.{attr}", fn)
                    self._originals[id(fn)] = fn
        self._proxy = _MpmathProxy("mpmath")
        for attr in MPMATH:
            setattr(self._proxy, attr, self._wrap(f"polys.mpmath.{attr}", getattr(mpmath, attr)))

    def uninstall(self):
        for ns, attr, value in reversed(self._bindings):
            setattr(ns, attr, value)
        self._bindings.clear()
        for ns in self._namespaces():
            for attr, value in vars(ns).items():
                if getattr(value, "__wrapped__", None) is not None and \
                        id(value.__wrapped__) in self._originals:
                    raise RuntimeError(f"tracer left {ns.__name__}.{attr} wrapped")
        if sys.modules["regpot.polys"].mp is not mpmath:
            raise RuntimeError("tracer left regpot.polys.mp proxied")

    def _assert_complete(self):
        """No name in a regpot namespace still refers to the original of a
        wrapped function, so calls between modules are all traced."""
        for ns in self._namespaces():
            for attr, value in vars(ns).items():
                if id(value) in self._originals and self._originals[id(value)] is value:
                    raise RuntimeError(f"{ns.__name__}.{attr} was not rebound")

    # -- output ------------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tt0_s\tt1_s\tself_s\tfailed\tinfo\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}\t"
                         f"{self.self_s[i]:.9f}\t{self.failed[i]}\t{self.info[i]}\n")

    def layer_metrics(self, op_time_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, as {name: (value, unit)}.
        `op_time_s` is the traced ops' wall time, on the spans' clock."""
        agg: dict[str, list] = {}  # span name -> [calls, self, total, failed, info]
        name_of_sid: dict[int, str] = {}
        for i in range(len(self.sid)):
            nm = self.names[self.name[i]]
            name_of_sid[self.sid[i]] = nm
            a = agg.setdefault(nm, [0, 0.0, 0.0, 0, 0])
            a[0] += 1
            a[1] += self.self_s[i]
            a[2] += self.t1[i] - self.t0[i]
            a[3] += self.failed[i]
            a[4] += self.info[i]

        def total(prefix, k):
            return sum(v[k] for n, v in agg.items() if n == prefix or n.startswith(prefix + "."))

        def children(parent, child):
            return sum(1 for i in range(len(self.sid))
                       if self.names[self.name[i]] == child
                       and name_of_sid.get(self.parent[i]) == parent)

        out: dict[str, tuple[float, str]] = {}
        for nm in ("core.eval_vmp", "core.eval_fourier_transform", "recursion.chain_values",
                   "polys.eval_via_polynomials", "ratpoly.eval", "ratpoly.arith", "bounds.ratio",
                   "certify.run_chain", "cli.main"):
            out[nm + ".calls"] = (total(nm, 0), "count")
            out[nm + ".self_s"] = (total(nm, 1), "s")
        out["core.quadrature.calls"] = (total("core.quadrature", 0), "count")
        out["core.quadrature.s"] = (total("core.quadrature", 2), "s")
        attempts = total("core.eval_asymptotic", 0)
        out["core.asymptotic.accept_ratio"] = (
            total("core.eval_vmp", 4) / attempts if attempts else 0.0, "ratio")
        chains = total("recursion.chain_values", 0)
        out["recursion.chain_values.evals_per_call"] = (
            children("recursion.chain_values", "core.eval_vmp") / chains if chains else 0.0,
            "count")
        out["recursion.averaged_potential.self_s"] = (total("recursion.averaged_potential", 1), "s")
        out["polys.mpmath.calls"] = (total("polys.mpmath", 0), "count")
        out["polys.mpmath.s"] = (total("polys.mpmath", 2), "s")
        out["bounds.verify.self_s"] = (total("bounds.verify", 1), "s")
        verify_s = total("bounds.verify", 2)
        out["bounds.verify.points_per_s"] = (
            total("bounds.verify", 4) / verify_s if verify_s else 0.0, "1/s")
        covered = 0.0
        for layer in LAYERS:
            self_s = total(layer, 1)
            covered += self_s
            out[layer + ".self_share"] = (self_s / op_time_s, "fraction")
            out[layer + ".failed"] = (total(layer, 3), "count")
        out["bench.self_share"] = (1.0 - covered / op_time_s, "fraction")
        return out
