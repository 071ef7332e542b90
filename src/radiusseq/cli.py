"""Command-line front end.

Subcommands: verify, construct (strategies naive | eulerian | two-radius |
prime | tiling), logs search|count, primes scan|next, density, and tiling
check. Exit status 0 on success, 1 on verification failure or absence
results, 2 when the library or the CLI raises OutOfRange. Identical
requests produce byte-identical reports.

verify reads its input with sequences.parse_sequence. A text with at
least _READ_GATE characters per alphabet symbol, such as a cover splice,
is read as progression stretches: each is compared in C with the
names, each with its space, of a strided slice of the residue table, the
read-side mirror of covers.splice_runs, and appended as that slice.
Every other token is read as int() reads it, so the symbols and errors
do not depend on the route. sequences.pair_rows then marks the pairs, and the report
streams the missing ones row by row.

construct prints only a checked sequence, and "verified": true in its JSON
names that check. Every length is known before a symbol exists, and one
above --max-length exits 2. The cover strategies (two-radius, prime,
tiling) make no sequence: covers.plan_pieces walks the plan into
(start, stop, step) triples into a residue table, and covers.check_pieces
certifies them in O(pieces + |D|*k) with no pair table. --shrink then
deletes the p-n most frequent symbols of the certified splice and
relabels the rest; deletion never moves two remaining occurrences further
apart and the relabelling is injective, so the shrunk sequence is k-radius
too and is not checked again. naive and eulerian go through
sequences.verify. It marks each run of at least n + k terms s, s+d, ...
mod n, gcd(d, n) = 1, as the k diagonals of offsets +-j*d, and every other
pair within distance k one cell at a time: into a set, from which each
cell sets its bit in its row, when those cells are few next to n*n and
the length could hold every pair, and otherwise into an n*n table.

covers.splice_runs writes each certified triple as names[start:stop:step]
over the names of the residue table, relabelled by covers.shrink_labels
under --shrink. So the bytes spell out the certified progressions, given
that table entry x holds x mod p and that splice_runs writes what it is
given (TestPieceWriter checks it against the generic writer). Nothing is
written before the whole certificate passes. naive and eulerian are
written symbol by symbol (sequences.symbol_runs); text and JSON frame
either source the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from array import array
from itertools import chain

from . import covers, kradius, logarithms, numtheory, sequences, tilings
from .errors import OutOfRange, RadiusSeqError

STRATEGIES = ("naive", "eulerian", "two-radius", "prime", "tiling")
# construct's default --max-length: the (3000, 12) tiling splice has
# 6,438,001 symbols, and (50, 9) prime, which picks p = 27,127, 40,892,446
DEFAULT_MAX_LENGTH = 10_000_000


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise OutOfRange(f"{name} must be >= 1")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path: str | None, pieces) -> None:
    """Write the strings of `pieces` in turn to `path`, or to stdout for
    None or '-', so that only one piece is held at a time."""
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(pieces)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _json_with_list(obj: dict, key: str, runs):
    """Yield ``json.dumps(obj, sort_keys=True)`` plus a newline in pieces,
    with the list at `key` (None in `obj`) written as the pieces of `runs`:
    its items joined by ", ", every piece after the first starting with it."""
    head, _, tail = json.dumps(obj, sort_keys=True).partition(f'"{key}": null')
    yield head + f'"{key}": ['
    yield from runs
    yield "]" + tail + "\n"


def _pair_runs(rows, pre: str, post: str, sep: str):
    """Yield the missing pairs (x, y) of pair_rows `rows` in order, one
    piece per row, each pair written as pre.format(x) + str(y) + post with
    `sep` between pairs; every piece after the first starts with `sep`."""
    lead = ""
    for x, ys in sequences.missing_rows(rows):
        head = pre.format(x)
        yield lead + head + (post + sep + head).join(map(str, ys)) + post
        lead = sep


def _cmd_verify(args) -> int:
    for name, value in (("n", args.n), ("k", args.k)):
        if value is not None:
            _check_positive(name, value)
    seq = sequences.parse_sequence(_read_text(args.input), n=args.n, k=args.k)
    # the report streams the missing pairs from the rows, so it never holds
    # them all: there are up to C(n,2) of them
    rows = sequences.pair_rows(seq)
    count = math.comb(seq.n, 2) - sum(map(int.bit_count, rows))
    if args.format == "json":
        obj = {"ok": count == 0, "missing": None, "n": seq.n, "k": seq.k, "length": len(seq)}
        _write(None, _json_with_list(obj, "missing", _pair_runs(rows, "[{}, ", "]", ", ")))
    elif count == 0:
        print(f"ok length={len(seq)} n={seq.n} k={seq.k}")
    else:
        print(f"missing {count} pairs n={seq.n} k={seq.k}")
        _write(None, _pair_runs(rows, "missing {} ", "\n", ""))
    return 0 if count == 0 else 1


def _check_length(length: int, max_length: int) -> None:
    if length > max_length:
        raise OutOfRange(f"the sequence would have {length} symbols, "
                         f"more than --max-length {max_length}")


def _construct(args):
    """Returns (sequence, cover_plan, tiling_report) for the requested
    strategy, each length checked against --max-length first: a cover
    strategy makes its plan and no sequence. Entries not produced are None."""
    n, k = args.n, args.k
    _check_positive("n", n)
    _check_positive("k", k)
    if args.cover_out and args.strategy in ("naive", "eulerian"):
        raise OutOfRange(f"strategy '{args.strategy}' has no cover plan for --cover-out")
    if args.strategy == "naive":
        _check_length(2 * math.comb(n, 2), args.max_length)
        return sequences.naive_sequence(n, k), None, None
    if args.strategy == "eulerian":
        if k != 1:
            raise OutOfRange("strategy 'eulerian' requires k=1")
        _check_length(sequences.one_radius_length(n), args.max_length)
        return sequences.one_radius_optimal(n), None, None
    report = None
    if args.strategy == "two-radius":
        if k != 2:
            raise OutOfRange("strategy 'two-radius' requires k=2")
        p = max(n, 5)
        while p % 2 == 0 or not numtheory.is_prime(p):
            p += 1
        plan = covers.two_radius_cover(p)
    elif args.strategy == "prime":
        p = kradius.next_k_radius_prime(n, k, horizon=args.horizon)
        if p is None:
            return None, None, None
        plan = covers.prime_cover(p, k)
    else:
        # argparse's choices=STRATEGIES leaves "tiling" as the only other value
        plan, report = tilings.tiling_plan(n, k)
    _check_length(plan.length, args.max_length)
    return None, plan, report


def _cmd_construct(args) -> int:
    seq, plan, report = _construct(args)
    if seq is None and plan is None:
        print(f"no {args.k}-radius prime found at or above {args.n}", file=sys.stderr)
        return 1
    # the symbols are written by one of two run sources, each a function of
    # the separator: every symbol, or the certified splice's pieces
    if plan is None:
        ok, n, length, p = sequences.verify(seq)[0], seq.n, len(seq), None
        runs = functools.partial(sequences.symbol_runs, seq.symbols)
    else:
        pieces = array("q", chain.from_iterable(
            covers.plan_pieces(plan, chunk=sequences._WRITE_CHUNK)))
        ok = covers.check_pieces(plan, pieces) is None
        p = n = plan.p
        length, labels = plan.length, range(p)
        if ok and args.shrink and p > args.n:
            # shrinking a certified splice keeps it k-radius (module docstring)
            n = args.n
            labels, length = covers.shrink_labels(plan, pieces, p - n)
        runs = functools.partial(covers.splice_runs, plan, pieces, labels)
    if not ok:
        print("constructed sequence failed verification", file=sys.stderr)
        return 1
    if args.cover_out:
        _write(args.cover_out, [covers.format_cover(plan)])
    if args.format == "json":
        obj = {
            "strategy": args.strategy,
            "n": args.n,
            "k": args.k,
            "p": p,
            "length": length,
            "verified": True,
            "symbols": None,
        }
        if report is not None:
            obj["report"] = {**dataclasses.asdict(report),
                             "ratio_to_lower_bound": float(report.ratio_to_lower_bound)}
        _write(args.output, _json_with_list(obj, "symbols", runs(", ")))
    else:
        comments = [f"strategy={args.strategy} length={length}"]
        if p is not None:
            comments[0] += f" p={p}"
        if report is not None:
            comments.append(
                f"subgroup_order={report.subgroup_order} "
                f"coset_count={report.coset_count} "
                f"translate_count={report.translate_count} "
                f"cover_size={report.cover_size} "
                f"ratio={float(report.ratio_to_lower_bound)!r}"
            )
        _write(args.output, sequences.format_text(n, args.k, runs(" "), comments))
    return 0


def _cmd_logs_search(args) -> int:
    f = logarithms.search(args.k, args.cls)
    if args.format == "json":
        obj = {"k": args.k, "class": args.cls, "found": f is not None}
        if f is not None:
            obj["prime_values"] = {str(q): v for q, v in sorted(f.prime_values.items())}
            obj["full_vector"] = list(f.full_vector)
        text = json.dumps(obj, sort_keys=True) + "\n"
    elif f is None:
        text = f"no {args.cls} function of length {args.k}\n"
    else:
        text = logarithms.format_logfn(f)
    _write(args.output, [text])
    return 1 if f is None else 0


def _cmd_logs_count(args) -> int:
    total = logarithms.count(args.k, args.cls, max_k=args.max_k, workers=args.workers)
    if args.format == "json":
        _emit_json({"k": args.k, "class": args.cls, "count": total})
    else:
        print(total)
    return 0


def _cmd_primes_next(args) -> int:
    p = kradius.next_k_radius_prime(args.start, args.k, horizon=args.horizon)
    if p is None:
        print(f"no {args.k}-radius prime in [{args.start}, {args.horizon}]")
        return 1
    print(p)
    return 0


def _cmd_primes_scan(args) -> int:
    found = kradius.scan_k_radius_primes(args.k, args.limit, workers=args.workers)
    for p in found:
        print(p)
    return 0


def _cmd_density(args) -> int:
    report = kradius.density_scan(
        args.k, args.limit, workers=args.workers, max_k=args.max_k
    )
    if args.format == "json":
        _emit_json(
            {
                "k": report.k,
                "limit": report.limit,
                "primes_scanned": report.primes_scanned,
                "hits": report.k_radius_count,
                "observed": float(report.observed),
                "observed_exact": [report.observed.numerator, report.observed.denominator],
                "predicted": float(report.predicted),
                "predicted_exact": [report.predicted.numerator, report.predicted.denominator],
                "standard_error": report.standard_error,
            }
        )
    elif args.format == "csv":
        print(kradius.CSV_HEADER)
        print(kradius.csv_row(report))
    else:
        print(
            f"k={report.k} limit={report.limit} primes={report.primes_scanned} "
            f"hits={report.k_radius_count} observed={float(report.observed)!r} "
            f"predicted={float(report.predicted)!r}"
        )
    return 0


def _cmd_tiling_check(args) -> int:
    f = logarithms.search(args.k)
    if f is None:
        print(f"no logarithm of length {args.k}")
        return 1
    tiling = tilings.tiling_from_log(f)
    r = len(tiling.psi_values)
    if args.format == "json":
        _emit_json(
            {
                "k": args.k,
                "r": r,
                "psi_values": list(tiling.psi_values),
                "bijective": True,
            }
        )
    else:
        psi = " ".join(str(v) for v in tiling.psi_values)
        print(f"k={args.k} r={r} bijective=yes psi={psi}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiusseq",
        description="Construct and verify n-ary k-radius sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the k-radius property")
    p_verify.add_argument("--input", required=True, help="sequence file, '-' for stdin")
    p_verify.add_argument("--n", type=int, help="alphabet size (overrides header)")
    p_verify.add_argument("--k", type=int, help="radius (overrides header)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_cons = sub.add_parser("construct", help="build a k-radius sequence")
    p_cons.add_argument("--n", type=int, required=True)
    p_cons.add_argument("--k", type=int, required=True)
    p_cons.add_argument("--strategy", choices=STRATEGIES, required=True)
    p_cons.add_argument("--shrink", action="store_true",
                        help="shrink a p-ary result back to alphabet n")
    p_cons.add_argument("--output", help="write the sequence here instead of stdout")
    p_cons.add_argument("--cover-out", help="also write the cover plan to this file")
    p_cons.add_argument("--horizon", type=int, default=kradius.DEFAULT_HORIZON)
    p_cons.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH,
                        help="refuse (exit 2), before any symbol is made, a sequence "
                             f"longer than this (default {DEFAULT_MAX_LENGTH:,})")
    p_cons.add_argument("--format", choices=("text", "json"), default="text")
    p_cons.set_defaults(func=_cmd_construct)

    p_logs = sub.add_parser("logs", help="length-k logarithm search and counting")
    logs_sub = p_logs.add_subparsers(dest="subcommand", required=True)
    p_ls = logs_sub.add_parser("search")
    p_ls.add_argument("--k", type=int, required=True)
    p_ls.add_argument("--class", dest="cls", choices=logarithms.CLASSES, default="log")
    p_ls.add_argument("--output", help="write the result here instead of stdout")
    p_ls.add_argument("--format", choices=("text", "json"), default="text")
    p_ls.set_defaults(func=_cmd_logs_search)
    p_lc = logs_sub.add_parser("count")
    p_lc.add_argument("--k", type=int, required=True)
    p_lc.add_argument("--class", dest="cls", choices=logarithms.CLASSES, default="log")
    p_lc.add_argument("--workers", type=int, default=1)
    p_lc.add_argument("--max-k", type=int, default=logarithms.DEFAULT_MAX_K)
    p_lc.add_argument("--format", choices=("text", "json"), default="text")
    p_lc.set_defaults(func=_cmd_logs_count)

    p_primes = sub.add_parser("primes", help="k-radius prime scans")
    primes_sub = p_primes.add_subparsers(dest="subcommand", required=True)
    p_pn = primes_sub.add_parser("next")
    p_pn.add_argument("--k", type=int, required=True)
    p_pn.add_argument("--start", type=int, default=2)
    p_pn.add_argument("--horizon", type=int, default=kradius.DEFAULT_HORIZON)
    p_pn.set_defaults(func=_cmd_primes_next)
    p_ps = primes_sub.add_parser("scan")
    p_ps.add_argument("--k", type=int, required=True)
    p_ps.add_argument("--limit", type=int, required=True)
    p_ps.add_argument("--workers", type=int, default=1)
    p_ps.set_defaults(func=_cmd_primes_scan)

    p_dens = sub.add_parser("density", help="observed vs predicted density")
    p_dens.add_argument("--k", type=int, required=True)
    p_dens.add_argument("--limit", type=int, default=10**6)
    p_dens.add_argument("--workers", type=int, default=1)
    p_dens.add_argument("--max-k", type=int, default=logarithms.DEFAULT_MAX_K)
    p_dens.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_dens.set_defaults(func=_cmd_density)

    p_til = sub.add_parser("tiling", help="tiling diagnostics")
    til_sub = p_til.add_subparsers(dest="subcommand", required=True)
    p_tc = til_sub.add_parser("check")
    p_tc.add_argument("--k", type=int, required=True)
    p_tc.add_argument("--format", choices=("text", "json"), default="text")
    p_tc.set_defaults(func=_cmd_tiling_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RadiusSeqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
