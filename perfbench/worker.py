"""The measured process: runs one unit of a workload's plan, once.

Usage: python3 -m perfbench.worker PLAN_JSON UNIT PASS TRACED OUT_JSON
(radiusseq on PYTHONPATH)

A unit is the group of operations that shares one fresh process (the
`unit` of each operation in `inputs.py`); every pass starts a new process
per unit, so nothing a unit computes, or caches, carries over to another
unit or another pass, just as nothing carries over between two CLI
commands. Importing the
program happens before the timed region. Each operation is timed from
outside with `time.perf_counter`; saving outputs, hashing and reference
samples happen between operations and are not measured. Samples of the
reference computation in `reference.py` are taken between operations so
that the parent can scale times to a fixed machine speed. Outputs of pass
0 are saved for the checkers; the parent requires later passes to repeat
their records exactly. With TRACED=1 the spans of `tracer.py` are
recorded. Peak RSS is read from `resource.getrusage` for this process and
its worker processes.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import traceback
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from radiusseq import cli, kradius, logarithms, tilings

from .reference import reference_time
from .tracer import Tracer, install

CHUNK = 1 << 20
REF_EVERY_S = 0.1


def _logfn(f) -> dict | None:
    if f is None:
        return None
    return {"prime_values": {str(q): v for q, v in sorted(f.prime_values.items())},
            "vector": list(f.full_vector)}


def _fraction(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _save_symbols(symbols, path: Path | None) -> str:
    """Hash the symbols as 32-bit ints, writing them to `path` if given."""
    digest = hashlib.sha256()
    with open(path, "wb") if path else nullcontext() as fh:
        for i in range(0, len(symbols), CHUNK):
            block = array("i", symbols[i : i + CHUNK]).tobytes()
            digest.update(block)
            if fh:
                fh.write(block)
    return digest.hexdigest()


def _run_cli(op, out_path: Path):
    """cli.main in-process with stdout going to a file, as a shell would."""
    err = io.StringIO()
    error = None
    rc = None
    with open(out_path, "w", encoding="utf-8") as out:
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error is what a user sees as a traceback
            error = traceback.format_exc()
        out.flush()
        elapsed = perf_counter() - start
    bytes_out = out_path.stat().st_size
    if "cover" in op and Path(op["cover"]).exists():
        bytes_out += Path(op["cover"]).stat().st_size
    bytes_in = Path(op["argv"][2]).stat().st_size if op["argv"][0] == "verify" else 0
    result = {"rc": rc, "stderr": err.getvalue(), "bytes_out": bytes_out, "bytes_in": bytes_in}
    return elapsed, result, error


def _run_library(op):
    kind, k = op["kind"], op["k"]
    start = perf_counter()
    if kind == "tiling":
        f = logarithms.search(k) if op["explicit_f"] else None
        value = (tilings.tiling_sequence(op["n"], k, f), f)
    elif kind == "count":
        value = logarithms.count(k, op["cls"], workers=op["workers"])
    elif kind == "search":
        value = logarithms.search(k)
    elif kind == "search_many":
        value = logarithms.search_many(k)
    elif kind == "image_stats":
        value = logarithms.image_stats(k)
    elif kind == "density":
        value = kradius.density_scan(k, op["limit"], workers=op["workers"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return perf_counter() - start, value


def _record(op, value, out_dir: Path, first: bool):
    """JSON form of a library result; tiling symbols go to a file."""
    kind = op["kind"]
    if kind == "tiling":
        (seq, report), f = value
        path = out_dir / f"{op['id']}.i32" if first else None
        return {
            "n": seq.n, "k": seq.k, "length": len(seq),
            "symbols_sha256": _save_symbols(seq.symbols, path),
            "symbols_file": str(out_dir / f"{op['id']}.i32"),
            "f": _logfn(f),
            "report": {
                "p": report.p, "k": report.k, "subgroup_order": report.subgroup_order,
                "coset_count": report.coset_count, "translate_count": report.translate_count,
                "cover_size": report.cover_size, "seq_length": report.seq_length,
                "ratio_to_lower_bound": _fraction(report.ratio_to_lower_bound),
            },
        }
    if kind == "search":
        return _logfn(value)
    if kind == "search_many":
        return [_logfn(f) for f in value]
    if kind == "image_stats":
        return list(value)
    if kind == "density":
        return {"k": value.k, "limit": value.limit, "primes_scanned": value.primes_scanned,
                "hits": value.k_radius_count, "observed": _fraction(value.observed),
                "predicted": _fraction(value.predicted)}
    return value


def _reference_sample(log: list) -> None:
    start = perf_counter()
    log.append([start, reference_time()])


def run_unit(ops, first: bool, out_dir: Path) -> dict:
    """Run the unit's operations once, recording when each ran and, between
    operations, reference samples at least every REF_EVERY_S."""
    times, spans, refs, records = {}, {}, [], {}
    reference_time()  # the first run of a fresh interpreter is slower
    _reference_sample(refs)
    for op in ops:
        if perf_counter() - refs[-1][0] >= REF_EVERY_S:
            _reference_sample(refs)
        error = None
        start = perf_counter()
        if op["kind"] == "cli":
            out_path = out_dir / (f"{op['id']}.out" if first else f"{op['id']}.again")
            elapsed, result, error = _run_cli(op, out_path)
            result["stdout"] = str(out_dir / f"{op['id']}.out")
            result["stdout_sha256"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
            if not first:
                out_path.unlink()
        else:
            try:
                elapsed, value = _run_library(op)
            except Exception:
                elapsed, value, error = 0.0, None, traceback.format_exc()
            result = None if error else _record(op, value, out_dir, first)
            value = None
        times[op["id"]] = elapsed
        spans[op["id"]] = [start, start + elapsed]
        records[op["id"]] = {"result": result, "error": error}
    _reference_sample(refs)
    return {"ops": times, "spans": spans, "refs": refs, "records": records}


def main(plan_path: str, unit: str, pass_index: str, traced: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    ops = [op for op in plan["ops"] if op["unit"] == unit]
    out_dir = Path(plan["work"]) / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    if traced == "1":
        install(tracer)
    result = run_unit(ops, pass_index == "0", out_dir)
    if traced == "1":
        result["functions"] = tracer.functions
        result["counters"] = tracer.counters
    result["rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
