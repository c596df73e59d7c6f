"""Command-line interface.

Subcommands: validate, census, generate, classify, trefoil, cutcheck,
family, depth, connsum, selftest.  Exit codes: 0 success, 1 validation
failure, 2 refuted structural guarantee (never masked), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import acceptance
from . import codec as cd
from . import decomp as dc
from . import generate as gn
from . import invariants as iv
from . import planemap as pm
from .errors import (
    CodecSyntaxError,
    InternalInvariantViolation,
    NoAvoidingDigon,
    ShadowError,
)

USAGE_EXIT = 64


def _read_input(path: str, fmt: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise CodecSyntaxError(
                f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    if fmt == "auto":
        fmt = cd.detect_format(text)
    return cd.parse(text, fmt)


def _shadow_of(obj):
    return obj.shadow if isinstance(obj, iv.Diagram) else obj


class UsageError(Exception):
    """A bad setting found after parsing; exits with USAGE_EXIT."""


def _threads(args) -> int:
    env = os.environ.get("UNKNOT_FORGE_THREADS")
    if env is None:
        threads = args.threads
    else:
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(
                f"UNKNOT_FORGE_THREADS must be an integer, not {env!r}") from None
    if threads < 0:
        raise UsageError(f"the thread count must be 0 (auto) or more, not {threads}")
    return threads


def _check_limits(args) -> None:
    for flag, limit in (("--census-limit", args.census_limit),
                        ("--oracle-limit", args.oracle_limit)):
        if limit < 0:
            raise UsageError(f"{flag} must be 0 or more, not {limit}")


def _print_census(shadow, census, args, runtime_ms):
    if args.format == "json":
        sys.stdout.write(cd.census_report_json(
            shadow, census, runtime_ms if args.timing else 0))
    elif args.format == "csv":
        sys.stdout.write(cd.census_csv(census))
    else:
        named = cd.census_to_names(census)
        total = sum(named.values())
        for name in sorted(named):
            print(f"{name},{named[name]}")
        print(f"total,{total}")
        print(f"unknot_fraction,{iv.unknot_count(census)}/{total}")


def cmd_validate(args):
    try:
        obj = _read_input(args.file, args.input_format)
    except ShadowError as e:
        print(f"invalid: {type(e).__name__}: {e}")
        return 1
    shadow = _shadow_of(obj)
    report = pm.component_report(shadow)
    print(f"kind: {report.kind}")
    print(f"vertices: {shadow.n}")
    print(f"edges: {2 * shadow.n}")
    print(f"free_loops: {shadow.free_loops}")
    print(f"curves: {report.curve_count}")
    print(f"knot_shadow: {str(report.is_knot_shadow).lower()}")
    if isinstance(obj, iv.Diagram):
        print(f"bits: {''.join(map(str, obj.bits))}")
    return 0 if report.is_knot_shadow else 1


def cmd_census(args):
    shadow = _shadow_of(_read_input(args.file, args.input_format))
    t0 = time.monotonic()
    census = iv.census(shadow, limit=args.census_limit, threads=_threads(args))
    ms = int(1000 * (time.monotonic() - t0))
    _print_census(shadow, census, args, ms)
    return 0


def cmd_generate(args):
    shadow = _shadow_of(_read_input(args.file, args.input_format))
    t0 = time.monotonic()
    result = gn.generate_unknots(shadow, method=args.method)
    ms = int(1000 * (time.monotonic() - t0))
    payload = result.to_report()
    payload["replay_ok"] = gn.replay_all(result)
    payload["runtime_ms"] = ms if args.timing else 0
    if args.dump_decomposition:
        payload["decomposition"] = dc.decomposition_report(
            dc.greedy_cycle_decomposition(shadow))
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"method: {payload['method']}")
        print(f"count: {payload['count']}")
        print(f"bound: {payload['bound']}")
        print(f"bound_satisfied: {str(payload['bound_satisfied']).lower()}")
        print(f"replay_ok: {str(payload['replay_ok']).lower()}")
    return 0


def cmd_classify(args):
    obj = _read_input(args.file, args.input_format)
    shadow = _shadow_of(obj)
    if args.bits is not None:
        if len(args.bits) != shadow.n or set(args.bits) - {"0", "1"}:
            raise UsageError(f"--bits needs {shadow.n} characters of 0/1")
        diagram = iv.Diagram(shadow, tuple(int(b) for b in args.bits))
    elif isinstance(obj, iv.Diagram):
        diagram = obj
    else:
        raise UsageError("input is a shadow; supply --bits")
    cls = iv.classify(diagram, limit=args.oracle_limit)
    print(cls.name)
    return 0


def cmd_trefoil(args):
    shadow = _shadow_of(_read_input(args.file, args.input_format))
    diagram = gn.trefoil_diagram(shadow, limit=args.oracle_limit)
    if diagram is None:
        print("all-unknot shadow")
        return 0
    cls = iv.classify(diagram, limit=args.oracle_limit)
    print(f"bits: {''.join(map(str, diagram.bits))}")
    print(f"class: {cls.name}")
    return 0


def cmd_cutcheck(args):
    shadow = _shadow_of(_read_input(args.file, args.input_format))
    cuts = [v for v in range(shadow.n) if pm.is_cut_vertex(shadow, v)]
    print("cut_vertices: " + (" ".join(map(str, cuts)) if cuts else "none"))
    print(f"all_cut: {str(len(cuts) == shadow.n).lower()}")
    return 0


# family name -> builder of the member for the parsed arguments
FAMILIES = {
    "chorizo": lambda args: pm.chorizo(args.k),
    "cn": lambda args: pm.cn(args.k),
    "trefoil": lambda args: pm.standard_trefoil(),
    "figure8": lambda args: pm.standard_figure8(),
    "one_vertex": lambda args: pm.one_vertex(),
    "trivial": lambda args: pm.trivial(),
    "random": lambda args: pm.random_shadow(args.k, args.seed),
}


def cmd_family(args):
    sys.stdout.write(cd.emit(FAMILIES[args.name](args), "rotmap"))
    return 0


def cmd_depth(args):
    shadow = _shadow_of(_read_input(args.file, args.input_format))
    print(pm.depth(shadow))
    return 0


def cmd_connsum(args):
    a = _shadow_of(_read_input(args.file_a, args.input_format))
    b = _shadow_of(_read_input(args.file_b, args.input_format))
    out = pm.connected_sum(a, b, args.edge_a, args.edge_b)
    sys.stdout.write(cd.emit(out, "rotmap"))
    return 0


def cmd_selftest(args):
    results = acceptance.run_all(fast=args.fast, seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="unknotforge",
        description="Knot shadows: validation, censuses, guaranteed unknot "
                    "diagram generation, and the cut-vertex/trefoil test.",
    )
    top.add_argument("--format", choices=("text", "json", "csv"), default="text")
    top.add_argument("--input-format", choices=("auto",) + cd.FORMATS, default="auto")
    top.add_argument("--census-limit", type=int, default=iv.DEFAULT_LIMIT)
    top.add_argument("--oracle-limit", type=int, default=iv.DEFAULT_LIMIT)
    top.add_argument("--threads", type=int, default=0,
                     help="0 = auto; env UNKNOT_FORGE_THREADS overrides")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--timing", action="store_true",
                     help="report real runtimes (off keeps output byte-stable)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a shadow or diagram file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("census", help="classify all assignments of a shadow")
    p.add_argument("file")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("generate", help="emit the guaranteed unknot family")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "cycles", "digons", "descending"),
                   default="auto")
    p.add_argument("--dump-decomposition", action="store_true",
                   help="include the greedy cycle decomposition in JSON output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="classify one diagram")
    p.add_argument("file")
    p.add_argument("--bits", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("trefoil", help="construct a trefoil diagram if one exists")
    p.add_argument("file")
    p.set_defaults(func=cmd_trefoil)

    p = sub.add_parser("cutcheck", help="list cut-vertices and the all-cut verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_cutcheck)

    p = sub.add_parser("family", help="emit a built-in shadow family member")
    p.add_argument("name", choices=tuple(FAMILIES))
    p.add_argument("k", type=int, nargs="?", default=3)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("depth", help="dual-graph depth from the outer face")
    p.add_argument("file")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("connsum", help="connected sum of two shadows")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--edge-a", type=int, default=None)
    p.add_argument("--edge-b", type=int, default=None)
    p.set_defaults(func=cmd_connsum)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    try:
        _check_limits(args)
        return args.func(args)
    except (InternalInvariantViolation, NoAvoidingDigon) as e:
        print(f"refuted guarantee: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage: {e}", file=sys.stderr)
        return USAGE_EXIT
    except ShadowError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
