"""unknotforge benchmark: one workload, one process, threads=1.

    python3 perfbench/run.py --workload census-knotted --seed 1 \
        --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run sets up ``SETUPS`` times (import, the pass's inputs, lazy caches) and
reports the median as ``setup_s``.  A pass is the workload's fixed list of
operations (see ``workloads.py``).  The run repeats the pass while another
one fits in ``--seconds``, at least ``MIN_PASSES`` times, checks every
output, and times each operation by its median pass.

Times are scaled to a nominal machine speed.  The machine this was built on
switches between speeds up to 1.8x apart, for spans of ten seconds to
minutes, so a run's raw times depend on when it ran.  A fixed pure-Python
probe loop, which does not touch the library, is timed between operations;
each time is multiplied by ``NOMINAL_PROBE_S`` over the probe time around
it.  The raw median and the probe times are in the ``meta`` line.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
repeats the pass untraced for half the time (at least twice), then runs it
once more with every layer wrapped (``tracer.py``), and prints the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 9
MIN_PASSES = 2
# The probe takes 2-4.5 ms on a 2-CPU shared VM with Python 3.11.7,
# depending on the machine's speed at the time.
PROBE_LOOPS = 20_000
NOMINAL_PROBE_S = 0.0025
PROBE_EVERY_S = 0.1
MODULES = (("pm", "planemap"), ("iv", "invariants"), ("cd", "codec"),
           ("dc", "decomp"), ("dg", "digon"), ("gn", "generate"),
           ("ac", "acceptance"))
TRACE_DIR = os.path.join(HERE, "traces")

sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OpResult  # noqa: E402


def import_library():
    """Import the library afresh, so each set-up pays the import again."""
    for name in [m for m in sys.modules
                 if m == "unknotforge" or m.startswith("unknotforge.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{attr: importlib.import_module(f"unknotforge.{mod}")
                                   for attr, mod in MODULES})
    if not lib.pm.__file__.startswith(SRC + os.sep):
        raise ImportError(f"unknotforge came from {lib.pm.__file__}, not {SRC}")
    # kept apart from pm.faces, which the tracer replaces by a wrapper
    lib.clear_faces_cache = lib.pm.faces.cache_clear
    return lib


def probe_s():
    """Time of a fixed pure-Python loop that does not touch the library."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        table[i & 1023] = acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def at_nominal(seconds, probe):
    """A time measured while the probe took ``probe`` seconds, scaled to
    the speed at which it takes ``NOMINAL_PROBE_S``."""
    return seconds * NOMINAL_PROBE_S / probe


def set_up(workload, seed):
    """Import, build the pass's inputs and fill the lazy caches.  Returns
    the set-up time at nominal speed."""
    before = probe_s()
    t0 = time.perf_counter()
    lib = import_library()
    workload.setup(lib)
    items = [(g, item) for g in range(workload.groups_per_pass)
             for item in workload.group(seed, g)]
    lib.iv.reference_polynomials()
    dt = time.perf_counter() - t0
    return lib, items, at_nominal(dt, (before + probe_s()) / 2)


def run_pass(workload, lib, items):
    """Run every operation of the pass once, from a cold ``faces`` cache.
    A probe runs before the first operation and then after any operation
    that ends ``PROBE_EVERY_S`` or more after the last probe; an
    operation's probe time is the mean of the probes around it."""
    lib.clear_faces_cache()
    results, pending = [], []
    last = probe_s()
    last_at = time.perf_counter()
    for i, (g, item) in enumerate(items):
        out = OpResult(item[0], group=g)
        start = time.perf_counter()
        try:
            workload.run(item, out)
        except Exception as e:  # a miss: count it and keep going
            out.misses.append(f"raised {type(e).__name__}: {e}")
        end = time.perf_counter()
        out.seconds = end - start
        results.append(out)
        pending.append(out)
        if end - last_at >= PROBE_EVERY_S or i == len(items) - 1:
            now = probe_s()
            for r in pending:
                r.probe_s = (last + now) / 2
            last, last_at, pending = now, time.perf_counter(), []
    return results


def run_passes(workload, lib, items, budget_s, min_passes):
    """Repeat the pass while another one, as long as the last, still ends
    within ``budget_s``; at least ``min_passes`` times.  Returns one result
    list per pass."""
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(workload, lib, items))
        now = time.perf_counter()
        if len(passes) >= min_passes and now - t0 + (now - start) > budget_s:
            return passes


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-p * len(s) // 100) - 1))
    return s[int(k)]


def op_times(passes):
    """Each operation's median time at nominal speed over the passes."""
    return [statistics.median(rs) for rs in
            zip(*([at_nominal(r.seconds, r.probe_s) for r in p] for p in passes))]


def group_rates(first, times, count):
    """Each group's ``count`` (an ``OpResult`` field) divided by the sum of
    its operations' times."""
    counts, busy = {}, {}
    for r, t in zip(first, times):
        counts[r.group] = counts.get(r.group, 0) + getattr(r, count)
        busy[r.group] = busy.get(r.group, 0.0) + t
    return [counts[g] / busy[g] for g in busy]


def end_to_end(passes, setup_s, tail_p):
    """Throughputs are medians over a pass's groups, which all have the same
    composition, so one input that takes seconds moves its own group's rate
    and not the median."""
    first = passes[0]        # counts are the same in every pass
    times = op_times(passes)
    classified = sum(r.classified for r in first)
    ms = [t * 1000 for t in times]
    ops = [r for p in passes for r in p]
    failed = sum(1 for r in ops if not r.ok)
    return {
        "diagrams_per_s": (statistics.median(group_rates(first, times, "classified")),
                           "1/s"),
        "certified_per_s": (statistics.median(group_rates(first, times, "certified")),
                            "1/s"),
        "shadow_ms_p50": (statistics.median(ms), "ms"),
        "shadow_ms_tail": (percentile(ms, tail_p), "ms"),
        "resolved_ratio": (sum(r.resolved for r in first) / classified, "ratio"),
        "passed_ratio": (1 - failed / len(ops), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def git_commit():
    """The commit checked out at ROOT, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "unknotforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def median_probe_s(k=25):
    return statistics.median(probe_s() for _ in range(k))


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:>16.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unknotforge", "__init__.py")):
        print(f"error: no unknotforge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "probe_s_start": median_probe_s(),
        "commit": git_commit(), "src_sha256": source_digest(),
    }
    workload = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUPS):
        lib, items, dt = set_up(workload, args.seed)
        setups.append(dt)
    setup_s = statistics.median(setups)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(workload, lib, items, budget, MIN_PASSES)
    metrics = end_to_end(passes, setup_s, workload.tail_percentile)
    results = [r for p in passes for r in p]
    if args.trace:
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced = run_pass(workload, lib, items)
        finally:
            tracer.uninstall()
        untraced_s = sum(op_times(passes))
        overhead = sum(at_nominal(r.seconds, r.probe_s) for r in traced) - untraced_s
        layer = tracer.metrics()
        layer["trace.overhead_s"] = (overhead, "s")
        layer["trace.overhead_ratio"] = (overhead / untraced_s, "ratio")
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(TRACE_DIR, f"{args.workload}.spans.csv.gz"))
        shares = tracer.layer_self_times()
    meta["loadavg_end"] = os.getloadavg()
    meta["probe_s_end"] = median_probe_s()

    tail_ms = metrics["shadow_ms_tail"][0]
    beyond = sum(1 for t in op_times(passes) if t * 1000 > tail_ms)
    meta["probe_s_ops_median"] = statistics.median(r.probe_s for r in results)
    meta["unscaled_ms_p50"] = 1000 * statistics.median(r.seconds for r in results)
    if args.trace:
        results = results + traced
    failed = [r for r in results if not r.ok]
    n = len(results)
    print(f"# unknotforge benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("meta " + json.dumps(meta))
    print(f"{len(items)} operations a pass, {len(passes)} untraced passes; "
          f"times are each operation's median pass at nominal speed; tail is "
          f"p{workload.tail_percentile} with {beyond} of {len(items)} beyond it")
    print(f"failed_ratio {len(failed) / n:.6g} ({len(failed)} of {n} ops)")
    print(f"resolved base: {sum(r.classified for r in passes[0])} diagrams "
          "classified a pass; presumed counts against it only where classify "
          "is called directly (census merges presumed into unknot)")
    for r in failed:
        print(f"MISS {r.name}: " + "; ".join(r.misses))
    if args.trace:
        total = sum(shares.values())
        print("self time by layer: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        print("prediction: " + predicted_dominant(args.workload, shares, layer))
        print("per-layer metrics:")
        print_metrics(layer)
        out_metrics = layer
    else:
        print("end-to-end metrics:")
        print_metrics(metrics)
        out_metrics = metrics
    print("output checks: " + ("PASS" if not failed else f"FAIL ({len(failed)} ops)"))
    print(json.dumps({
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
    }))
    return 0


# the layer predicted to do most of the work: a traced function, or on
# braid a group of modules
PREDICTED = {
    "census-knotted": "invariants.kauffman_bracket",
    "certify-curl": "invariants.simplify",
    "braid": ("generate", "decomp", "digon", "codec"),
}


def predicted_dominant(workload, shares, layer):
    """Does the predicted layer have more traced self time than any other
    function (or, for a group of modules, than any other module)?"""
    predicted = PREDICTED[workload]
    if isinstance(predicted, tuple):
        times = {m: v for m, v in shares.items() if m not in predicted}
        predicted = "+".join(predicted)
        times[predicted] = sum(shares.get(m, 0.0) for m in predicted.split("+"))
    else:
        times = {k[:-len(".self_s")]: v for k, (v, _) in layer.items()
                 if k.endswith(".self_s") and k.count(".") == 2}
    total = sum(times.values())
    top = max(times, key=times.get)
    verdict = "holds" if top == predicted else "does not hold"
    return (f"{predicted} dominant on {workload}: {verdict} ({predicted} "
            f"{times[predicted] / total:.1%} of traced self time; largest is "
            f"{top} {times[top] / total:.1%})")


if __name__ == "__main__":
    sys.exit(main())
