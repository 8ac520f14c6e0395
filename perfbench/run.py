"""regpot benchmark: one seeded workload, timed in a closed loop, every output
checked against an independent mpmath reference.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 9 --trace 0

Run from the root of a checkout; regpot is imported from its `src/`.  One
caller runs ops back to back, the next starting when the previous returns.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 its
rounds alternate between untraced and traced, and it reports per-layer
metrics from the traced rounds plus the tracing overhead.  The last line of
standard output is the result as one JSON object.

Op times in the end-to-end metrics are CPU times scaled to a reference
machine speed by calibration.py; raw figures are printed alongside.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 6  # half before the timed loop, half after the checks


def _import_regpot():
    """Import regpot from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import regpot
    if os.path.dirname(os.path.dirname(os.path.abspath(regpot.__file__))) != SRC:
        raise ImportError(f"regpot imported from {regpot.__file__}, not from {SRC}")


def _setup_probe(workload: str) -> None:
    """Child side of setup_s: cold import plus the workload's warm-up."""
    _import_regpot()
    import regpot.cli  # noqa: F401  (what every vmp invocation imports)
    import workloads
    workloads.WORKLOADS[workload][1]()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probes(workload: str, n: int) -> list[float]:
    """Scaled CPU times of n cold interpreters doing the set-up.  This
    process and the probes are pinned to one CPU while they run: an
    unpinned probe's numpy starts BLAS threads that spin on the other CPU,
    and its speed did not follow a kernel run on this one.  Each probe is
    scaled by ten kernel runs around it on the same CPU."""
    from calibration import REF_S, kernel_seconds
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    cpu = []
    try:
        for _ in range(n):
            kernel = [kernel_seconds() for _ in range(5)]
            c0 = _children_cpu()
            subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
            probe = _children_cpu() - c0
            kernel += [kernel_seconds() for _ in range(5)]
            cpu.append(probe * REF_S / statistics.median(kernel))
    finally:
        os.sched_setaffinity(0, allowed)
    return cpu


def timed_loop(rounds, seconds: float, rss_rounds: int, tracer=None):
    """Run whole rounds until the CPU time spent in ops reaches `seconds` at
    the reference speed, and at least two, so that runs on a slow and a fast
    machine see the same inputs and `tail` has at least 11 ops on every
    workload.  With a tracer, rounds alternate between untraced and traced,
    so both halves see the same mix and the same machine.
    Returns (rounds run, workloads.Outputs, scaled latencies, raw latencies,
    wall times, traced flags, peak RSS in MB after `rss_rounds` rounds or at
    the end if fewer ran), latencies in CPU seconds.  Ops are not kept: the
    caller draws them again from the seed."""
    from calibration import REF_S, Sampler
    from workloads import OPS, Outputs
    outs = Outputs()
    starts, walls, lats, traced = array("d"), array("d"), array("d"), array("b")
    busy, n_rounds = 0.0, 0
    with Sampler() as sampler:
        while True:
            tracing = tracer is not None and n_rounds % 2 == 1
            if tracing:
                tracer.install()
            try:
                for op in next(rounds):
                    fn = OPS[op[0]][0]
                    if tracing:
                        tracer.op_id = len(lats)
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        out = fn(*op[1:])
                    except Exception as exc:  # every failure is counted, none stops the run
                        out = exc
                    lat = time.process_time() - c0
                    walls.append(time.perf_counter() - t0)
                    busy += lat * REF_S / sampler.secs[-1]
                    starts.append(t0)
                    lats.append(lat)
                    traced.append(tracing)
                    outs.add(op, out)
            finally:
                if tracing:
                    tracer.uninstall()
            n_rounds += 1
            if n_rounds <= rss_rounds:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if busy >= seconds and n_rounds >= 2:
                break
    return n_rounds, outs, sampler.scale(starts, walls, lats), lats, walls, traced, rss_mb


def tail(lats: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples
    beyond it, i.e. the 11th largest; the largest when n < 11."""
    s = sorted(lats)
    i = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[i], 100.0 * i / max(len(s) - 1, 1), len(s)


def check_all(ops, outs, checker):
    """Per-op status from the reference checks, plus failure counts by kind."""
    from workloads import Raised
    statuses, kinds = [], {}
    for i, op in enumerate(ops):
        st = checker.check(op, outs[i])
        statuses.append(st)
        if st != "ok":
            key = f"{op[0]}:{outs[i].name if isinstance(outs[i], Raised) else st}"
            kinds[key] = kinds.get(key, 0) + 1
    return statuses, kinds


def report(metrics: dict, correct: bool, attempted: int, failed: int, notes: list[str]):
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=9.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0

    try:
        _import_regpot()
    except ImportError as exc:
        print(f"cannot import regpot from this checkout: {exc}", file=sys.stderr)
        return 2
    import reference
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference.self_check()
    os.chdir(ROOT)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    make_rounds, warm_up, rss_rounds = workloads.WORKLOADS[args.workload]
    warm_up()
    # set-up time drifts over tens of seconds: probe on both sides of the run
    setup_times = [] if args.trace else setup_probes(args.workload, SETUP_SAMPLES // 2)
    rounds = make_rounds(args.seed)  # drawn again after the loop for the checks
    checker = workloads.Checker()

    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        n_rounds, outs, lats, raw, walls, traced, _ = timed_loop(rounds, args.seconds,
                                                                rss_rounds, tr)
        trace_path = os.path.join(workloads.OUT_DIR, f"trace-{args.workload}.tsv")
        tr.write(trace_path)
        metrics = tr.layer_metrics(sum(w for w, t in zip(walls, traced) if t))
        rates = {}
        for mode in (False, True):
            scaled = [lat for lat, t in zip(lats, traced) if t == mode]
            rates[mode] = len(scaled) / sum(scaled)
        metrics["trace.ops_per_s_untraced"] = (rates[False], "1/s")
        metrics["trace.ops_per_s_traced"] = (rates[True], "1/s")
        metrics["trace.overhead_frac"] = (rates[False] / rates[True] - 1.0, "fraction")
        notes = [f"{sum(traced)} of {len(outs)} ops traced; {len(tr.sid)} spans written "
                 f"to {trace_path}; self times and shares are raw wall time"]
    else:
        n_rounds, outs, lats, raw, _, _, rss_mb = timed_loop(rounds, args.seconds, rss_rounds)
        probe_outs = workloads.run_edge_probes()
        notes = []

    t_check = time.perf_counter()
    ops = [op for r in itertools.islice(make_rounds(args.seed), n_rounds) for op in r]
    assert len(ops) == len(outs), "the seed drew different ops the second time"
    checker.prefetch(ops)
    statuses, kinds = check_all(ops, outs, checker)
    wrong = [op for op, st in zip(ops, statuses) if st != "ok"]  # every one makes `correct` false
    failed = len(wrong)
    notes.append(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed "
                 f"{json.dumps(kinds, sort_keys=True)}; error estimates held "
                 f"{checker.bound_hold}, missed {checker.bound_miss}")
    if not args.trace:
        probe_checker = workloads.Checker()  # keeps the probes out of the error-estimate tally
        probe_checker.prefetch(workloads.EDGE_PROBES)
        probe_statuses, probe_kinds = check_all(workloads.EDGE_PROBES, probe_outs, probe_checker)
        edge_ok = probe_statuses.count("ok")
        wrong += [op for op, st in zip(workloads.EDGE_PROBES, probe_statuses) if st == "violated"]
        notes.append(f"edge probes: {edge_ok} of {len(probe_statuses)} ok, failed "
                     f"{json.dumps(probe_kinds, sort_keys=True)}")
    notes += [f"failed: {op}" for op in wrong[:20]]
    notes.append(f"checks took {time.perf_counter() - t_check:.1f} s of wall time")

    if not args.trace:
        tail_s, tail_pct, n = tail(lats)
        checked = checker.bound_hold + checker.bound_miss
        setup_times += setup_probes(args.workload, SETUP_SAMPLES - len(setup_times))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(ops) / sum(lats), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lats), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "ok_frac": (1.0 - failed / len(ops), "fraction"),
            "edge_ok_frac": (edge_ok / len(probe_statuses), "fraction"),
            "err_bound_hold_frac": (checker.bound_hold / checked if checked else 1.0, "fraction"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        notes.append(f"peak_rss_mb read after round {min(rss_rounds, n_rounds)} of {n_rounds}")
        notes.append(f"op_tail_ms is p{tail_pct:.3f} of {n} ops; raw: "
                     f"ops_per_s {len(ops) / sum(raw):.6g}, "
                     f"op_p50_ms {1e3 * statistics.median(raw):.6g}, "
                     f"op_tail_ms {1e3 * tail(raw)[0]:.6g}")
    report(metrics, not wrong, len(ops), failed, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
