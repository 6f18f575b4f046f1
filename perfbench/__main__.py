"""``python -m perfbench``: run, compare, selfcheck."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from perfbench import catalogue, ensure_repro_importable


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def sizing(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=1,
                         help="workload inputs derive from it (suite-seq ignores it)")
        sub.add_argument("--workload", choices=catalogue.WORKLOAD_NAMES,
                         help="run one workload (default: all four, in order)")
        sub.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS),
                         help="how long each workload measures")
        sub.add_argument("--smoke", action="store_true",
                         help="tiny slices, for tests; output is not comparable")

    run = commands.add_parser("run", help="measure and print every metric")
    sizing(run)
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced pass only; 1: traced pass only; default: both")
    run.add_argument("--out", help="write the full result document (JSON) here")
    run.add_argument("--trace-out", help="write every span of the traced pass here")

    compare = commands.add_parser(
        "compare", help="A.json B.json: one row per workload and end-to-end metric")
    compare.add_argument("a")
    compare.add_argument("b")

    selfcheck = commands.add_parser(
        "selfcheck", help="run the same code in two sets; fail if their medians disagree")
    sizing(selfcheck)
    selfcheck.add_argument("--sets", type=int, default=2)
    selfcheck.add_argument("--runs", type=int, default=3)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["_child"]:
        # Internal: one workload pass in this interpreter (see perfbench.child).
        ensure_repro_importable()
        from perfbench import child

        return child.main(argv[1:])
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from perfbench import compare

        return compare.compare_files(args.a, args.b)
    ensure_repro_importable()
    workloads = [args.workload] if args.workload else list(catalogue.WORKLOAD_NAMES)
    if args.command == "selfcheck":
        from perfbench import compare

        return compare.selfcheck(workloads, args.seed, args.seconds, args.smoke,
                                 args.sets, args.runs)
    from perfbench import runner

    return runner.run(workloads, args.seed, args.seconds, args.smoke, args.trace,
                      args.out, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
