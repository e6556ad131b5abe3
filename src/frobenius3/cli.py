"""Command-line front end: compute, least-multiple, verify, bench.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 internal
invariant violation or a walk over its step budget, 4 verification
mismatch, 5 I/O error.

verify checks its triples on every CPU in the process's affinity mask, one
task per least generator (taskset -c 0 frob3 verify ... uses one). Its
output and exit codes are those of a serial run. Every pooled run ends by
terminating its workers, so a mismatch or an error does not wait for them.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import oracle
from .errors import InvalidInputError, InvariantViolation, StepBudgetExceeded
from .solver import frobenius, result_to_json
from .walk import WalkInput, certificate_to_json, find_least_multiple, trace_table, trace_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_INVARIANT = 3
EXIT_MISMATCH = 4
EXIT_IO = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for invalid input
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_bigint(text: str) -> int:
    """Base-10 integer of arbitrary length in ASCII digits; leading zeros and signs rejected."""
    if not (text.isascii() and text.isdigit()):
        raise InvalidInputError(f"not a decimal integer: {text!r}")
    if len(text) > 1 and text[0] == "0":
        raise InvalidInputError(f"leading zeros not allowed: {text!r}")
    return int(text)


@functools.cache  # built on first use, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frob3", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Frobenius number of three generators")
    p.add_argument("generators", nargs=3, metavar="N")
    p.add_argument("--json", action="store_true")
    p.add_argument("--certificate", action="store_true",
                   help="also print the least-multiple identities and decompositions")

    p = sub.add_parser("least-multiple",
                       help="least m with m*target = u*x + w*y, u,w >= 1")
    p.add_argument("target", metavar="TARGET")
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--trace", action="store_true", help="print the k/p/v walk table")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="exhaustively compare fast path against the oracle")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help="check all valid triples with largest generator <= N "
                        f"(10 <= N <= {oracle.MAX_MODULUS})")

    p = sub.add_parser("bench", help="step-count/timing benchmark on random triples")
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    return parser


def cmd_compute(args) -> int:
    vals = [parse_bigint(s) for s in args.generators]
    res = frobenius(*vals)
    if args.json:
        # one compact line: json.dumps runs its C encoder only without indent
        print(json.dumps(result_to_json(res)))
        return EXIT_OK
    print(f"input: {res.a1} {res.a2} {res.a3}")
    if res.degenerate:
        print(f"note: {res.a3} is a positive combination of {res.a1} and {res.a2}; "
              f"reduced to the two-generator formula")
    print(f"g     = {res.g}")
    print(f"f_pos = {res.f_pos}")
    if res.degenerate:
        return EXIT_OK
    print(f"candidates: A = {res.candidate_a}, B = {res.candidate_b}")
    if args.certificate:
        print("least multiples:")
        for c in res.certificates:
            print(f"  {c.m}·{c.target} = {c.u}·{c.pair_a} + {c.w}·{c.pair_c}")
        print("decompositions of f_pos:")
        for d in res.decompositions:
            print(f"  {res.f_pos} = {d.multiplier}·{d.generator} "
                  f"+ {d.partner_coeff}·{d.partner}")
    return EXIT_OK


def cmd_least_multiple(args) -> int:
    target = parse_bigint(args.target)
    x, y = (parse_bigint(s) for s in args.pair)
    cert, trace = find_least_multiple(WalkInput(b=target, a=x, c=y))
    if args.json:
        out = {"certificate": certificate_to_json(*map(str, cert))}
        if args.trace:
            out["trace"] = trace_to_json(trace)
        print(json.dumps(out))
        return EXIT_OK
    if args.trace:
        print(trace_table(trace))
        print("v column: v_i = p_i·(p0⁻¹ mod c) mod c")
    print(f"{cert.m}·{cert.target} = {cert.u}·{cert.pair_a} + {cert.w}·{cert.pair_c}")
    return EXIT_OK


def _iter_valid_triples(limit: int, a1: int):
    """The valid triples with least generator a1 and largest at most limit, in ascending order."""
    for a2 in range(a1 + 1, limit):
        if math.gcd(a1, a2) != 1:
            continue
        for a3 in range(a2 + 1, limit + 1):
            if math.gcd(a1, a3) == 1 and math.gcd(a2, a3) == 1:
                yield a1, a2, a3


def _verify_from(limit: int, a1: int):
    """(triples, least-multiple cases, first mismatch line or None) of verify's slice at a1.
    Its triples are valid and sorted, so the oracle's unchecked cores take them."""
    triples = 0
    walks = 0
    for _, a2, a3 in _iter_valid_triples(limit, a1):
        res = frobenius(a1, a2, a3)
        # f_pos, the largest gap with positive coefficients, is g shifted by the generator sum
        want_g = oracle._frobenius(a1, a2, a3)
        want_f = want_g + a1 + a2 + a3
        if res.g != want_g or res.f_pos != want_f:
            return triples, walks, (f"MISMATCH at ({a1},{a2},{a3}): got g={res.g} "
                                    f"f_pos={res.f_pos}, oracle g={want_g} f_pos={want_f}")
        triples += 1
        if res.degenerate:
            continue
        # each certificate's pair is in ascending order, as the core needs
        for m, _, _, target, x, y in res.certificates:
            want_m = oracle._least_multiple(target, x, y).m
            if m != want_m:
                return triples, walks, (f"MISMATCH least multiple of {target} over "
                                        f"({x},{y}): got m={m}, oracle m={want_m}")
            walks += 1
    return triples, walks, None


# Below this N a serial run is as fast. Warm, on 2 cores, the pool costs about 7 ms to start
# and end plus about 0.14 ms per task (medians of 60 runs of no-op tasks), where serial verify
# takes 0.25 ms at N = 10, 16 ms at N = 30 and 22 ms at N = 32 (27 and 29 tasks; medians of
# 40 runs). A first run in a fresh process costs more (ROADMAP item 18)
_POOL_MIN_MAX = 32


def cmd_verify(args) -> int:
    if args.max < 10:
        print("error: --max must be >= 10", file=sys.stderr)
        return EXIT_USAGE
    # every oracle modulus is at most N: the table's a1 <= N - 2, the scan's y <= N
    if args.max > oracle.MAX_MODULUS:
        print(f"error: --max must be <= {oracle.MAX_MODULUS}, the oracle's guard",
              file=sys.stderr)
        return EXIT_USAGE
    # one slice per least generator; the slices are independent, so they run on every CPU the
    # process may use, and are read back in order: the output is that of a serial run
    slices = range(2, args.max - 1)
    verify_from = functools.partial(_verify_from, args.max)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pool = None
    if args.max >= _POOL_MIN_MAX and cpus > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            # forked workers share the imported package, monkeypatches included. The pool forks
            # them before it starts its threads, so a process's first run does not warn; on 3.12
            # and later, some forks of a later run warn that fork() may deadlock
            pool = ProcessPoolExecutor(min(cpus, len(slices)),
                                       mp_context=multiprocessing.get_context("fork"))
    try:
        triples = 0
        walks = 0
        for n, w, mismatch in (map if pool is None else pool.map)(verify_from, slices):
            triples += n
            walks += w
            if mismatch is not None:
                print(mismatch)
                return EXIT_MISMATCH
    finally:
        if pool is not None:
            # a clean end leaves the workers idle; an exit 3 or 4, or an exception here, leaves
            # slices running, which shutdown() would wait for. So every exit ends them one way
            # (3.14's terminate_workers(), plus a join). Shutting down first lets the pool's
            # thread drop the cancelled slices before it sees a worker die: otherwise, before
            # 3.12, it can die on an InvalidStateError and leave the workers unjoined
            workers = list(pool._processes.values())
            manager = pool._executor_manager_thread
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.terminate()
            manager.join()
    print(f"OK: {triples} triples and {walks} least-multiple cases match the oracle")
    return EXIT_OK


def cmd_bench(args) -> int:
    # the harness (statistics, csv, random) loads here, not on every command's import
    from .bench import BenchConfig, run_bench, summary_text, write_csv

    try:
        config = BenchConfig(digits=args.digits, samples=args.samples, seed=args.seed)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_bench(config)
    if args.csv:
        write_csv(report, args.csv)
    if args.json:
        print(json.dumps(report.summary()))
    else:
        print(summary_text(report))
    return EXIT_OK


_HANDLERS = {
    "compute": cmd_compute,
    "least-multiple": cmd_least_multiple,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    # integers of any length: lift the interpreter's int/str conversion limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    except StepBudgetExceeded as exc:
        print(f"step budget exceeded: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        code = EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
