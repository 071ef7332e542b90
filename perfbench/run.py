"""Benchmark of radiusseq: four workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, as a table
    python3 perfbench/run.py --self-test           # each checker rejects bad input

Run from anywhere; the program is imported from `src/` next to this
directory. A run measures set-up time in fresh interpreters, generates the
seeded inputs, runs the workload in passes, each unit of a pass in a fresh
worker process, checks every output against the oracle, and prints one JSON object as the last line of
stdout: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. See README.md for the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, oracle  # noqa: E402
from perfbench.reference import REF_S  # noqa: E402

WORKLOADS = ("construct", "verify", "tiling", "experiments")
SETUP_RUNS = 11
# Median CPU time of `python -c pass` on the machine of the reference
# figures in README.md (2-vCPU Xeon VM, Python 3.11.7).
BARE_START_S = 0.055
RUN_LIMIT_S = 150  # the worker is killed if the run gets this long
REF_WINDOW_S = 0.5


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _start_cpu(args: list[str]) -> float:
    """CPU time (user + system) of one `python ARGS` in a fresh interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=60).returncode
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise BenchError(f"`python {' '.join(args)}` failed")
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def measure_setup() -> float:
    """CPU time for a fresh interpreter to import the CLI and build its
    parser (`python -m radiusseq --help`), scaled by a bare start.

    Starts of the CLI alternate with bare starts (`python -c pass`), after
    one warm-up of each. CPU time rather than wall time: the time a start
    waits for a core of a shared machine is not the program's. The median
    CLI start is multiplied by BARE_START_S / (median bare start), so it
    reads as seconds on a machine where a bare start costs BARE_START_S:
    the CPU time of a start moved by 25-40% with the machine's load, and
    the bare start moved with it.
    """
    program, bare = [], []
    for i in range(SETUP_RUNS + 1):
        start, baseline = _start_cpu(["-m", "radiusseq", "--help"]), _start_cpu(["-c", "pass"])
        if i:
            program.append(start)
            bare.append(baseline)
    return statistics.median(program) * BARE_START_S / statistics.median(bare)


def run_worker(args: list[str], deadline: float) -> None:
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *args],
                            cwd=ROOT, env=_env(), stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("worker exceeded the run time limit") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run_pass(ops, work: Path, index: int, traced: bool, deadline: float) -> dict:
    """One pass over the plan: each unit in a fresh worker process, in plan
    order. Returns the units' timings, records and spans merged."""
    merged = {"ops": {}, "spans": {}, "refs": [], "records": {}, "functions": {},
              "counters": {}, "rss_kb": 0, "traced": traced}
    for unit in dict.fromkeys(op["unit"] for op in ops):
        out = work / f"pass{index}-{unit}.json"
        run_worker([str(work / "plan.json"), unit, str(index), str(int(traced)), str(out)],
                   deadline)
        result = json.loads(out.read_text())
        out.unlink()
        for key in ("ops", "spans", "records"):
            merged[key].update(result[key])
        merged["refs"] += result["refs"]
        merged["rss_kb"] = max(merged["rss_kb"], result["rss_kb"])
        for name, rec in result.get("functions", {}).items():
            total = merged["functions"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(rec):
                total[i] += value
        for name, amount in result.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + amount
    merged["wall_s"] = sum(merged["ops"].values())
    merged["failed"] = [op_id for op_id, rec in merged["records"].items() if rec["error"]]
    return merged


def run_passes(ops, work: Path, seconds: int, trace: int, deadline: float) -> list[dict]:
    """Whole passes while another one fits in `seconds` (at least one).
    With tracing, untraced and traced passes alternate and run in pairs,
    so a run ends after an equal number of each."""
    passes = []
    start = perf_counter()
    slowest = 0.0
    step = 2 if trace else 1
    while True:
        begun = perf_counter()
        passes.append(run_pass(ops, work, len(passes), bool(trace) and len(passes) % 2 == 1,
                               deadline))
        slowest = max(slowest, perf_counter() - begun)
        if len(passes) % step == 0 and perf_counter() - start + step * slowest > seconds:
            return passes


def program_count(k: int, cls: str) -> int:
    """The program's one-worker count, for the worker-invariance check."""
    sys.path.insert(0, str(ROOT / "src"))
    from radiusseq import logarithms

    return logarithms.count(k, cls)


# --- metrics ---------------------------------------------------------------------

def reference_at(p: dict, op_id: str) -> float:
    """Median of the pass's reference samples taken within REF_WINDOW_S of
    the operation (the samples just before and after it always are)."""
    start, end = p["spans"][op_id]
    near = [r for t, r in p["refs"] if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
    return statistics.median(near)


def op_times(passes) -> dict[str, float]:
    """Each operation's median time over the passes, every sample scaled
    to the reference speed by the reference samples taken around it."""
    return {op_id: statistics.median(p["ops"][op_id] * REF_S / reference_at(p, op_id)
                                     for p in passes)
            for op_id in passes[0]["ops"]}


def end_to_end(passes, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(op_times(passes).values()), "s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


def _self(funcs, *names):
    return sum(funcs[n][2] for n in names if n in funcs)


def _calls(funcs, *names):
    return sum(funcs[n][0] for n in names if n in funcs)


def _module_self(funcs, module):
    return sum(rec[2] for name, rec in funcs.items() if name.startswith(module + "."))


def _rate(amount, base):
    """amount / base, or 0 where there is nothing to divide by."""
    return amount / base if base else 0.0


LAYER_METRICS = {
    # name: (unit, value of one traced pass `f` (functions) / `c` (counters))
    "numtheory.self_pct": ("%", lambda f, c: _module_self(f, "numtheory")),
    "numtheory.lll_pct": ("%", lambda f, c: _self(f, "numtheory.lll_reduce")),
    "numtheory.lll_calls": ("count", lambda f, c: _calls(f, "numtheory.lll_reduce")),
    "numtheory.dlog_calls": ("count", lambda f, c: _calls(f, "numtheory.discrete_log")),
    "numtheory.is_prime_calls": ("count", lambda f, c: _calls(f, "numtheory.is_prime")),
    "sequences.self_pct": ("%", lambda f, c: _module_self(f, "sequences")),
    "sequences.verify_pct": ("%", lambda f, c: _self(f, "sequences.verify")),
    "sequences.verify_calls": ("count", lambda f, c: _calls(f, "sequences.verify")),
    "sequences.format_pct": ("%", lambda f, c: _self(f, "sequences.format_sequence")),
    "sequences.shrink_pct": ("%", lambda f, c: _self(f, "sequences.shrink_alphabet")),
    "sequences.build_pct": ("%", lambda f, c: _self(
        f, "sequences.one_radius_optimal", "sequences.naive_sequence")),
    "sequences.parse_pct": ("%", lambda f, c: _self(f, "sequences.parse_sequence")),
    "covers.self_pct": ("%", lambda f, c: _module_self(f, "covers")),
    "covers.splice_pct": ("%", lambda f, c: _self(f, "covers.sequence_from_cover")),
    "covers.verify_cover_pct": ("%", lambda f, c: _self(f, "covers.verify_cover")),
    "covers.plan_pct": ("%", lambda f, c: _self(f, "covers.two_radius_cover", "covers.prime_cover")),
    "covers.plan_calls": ("count", lambda f, c: _calls(
        f, "covers.two_radius_cover", "covers.prime_cover")),
    "logarithms.self_pct": ("%", lambda f, c: _module_self(f, "logarithms")),
    "logarithms.count_pct": ("%", lambda f, c: _self(f, "logarithms.count")),
    "logarithms.count_calls": ("count", lambda f, c: _calls(f, "logarithms.count")),
    "logarithms.search_pct": ("%", lambda f, c: _self(f, "logarithms.search", "logarithms.search_many")),
    "logarithms.image_pct": ("%", lambda f, c: _self(f, "logarithms.image_stats")),
    "logarithms.candidates": ("count", lambda f, c: c.get("logarithms.candidates", 0)),
    "tilings.self_pct": ("%", lambda f, c: _module_self(f, "tilings")),
    "tilings.translate_count": ("count", lambda f, c: c.get("tilings.translate_count", 0)),
    "tilings.cover_size": ("count", lambda f, c: c.get("tilings.cover_size", 0)),
    "kradius.self_pct": ("%", lambda f, c: _module_self(f, "kradius")),
    "kradius.scan_pct": ("%", lambda f, c: _self(f, "kradius.density_scan", "kradius.scan_k_radius_primes")),
    "kradius.primes_scanned": ("count", lambda f, c: c.get("kradius.primes_scanned", 0)),
    "kradius.hits": ("count", lambda f, c: c.get("kradius.hits", 0)),
    "kradius.predicted_pct": ("%", lambda f, c: _self(f, "kradius.predicted_density")),
    "kradius.next_prime_pct": ("%", lambda f, c: _self(f, "kradius.next_k_radius_prime")),
    "cli.self_pct": ("%", lambda f, c: _self(f, "cli.main")),
    "trace.spans": ("count", lambda f, c: _calls(f, *f)),
}


def per_layer(ops, passes, sizes) -> dict:
    """Medians over the traced passes. Times are shares (%) of the pass's
    operation time, which the machine's speed changes cancel out of;
    operation-group shares come from the untraced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    shares, verify_rates = [], []
    for p in traced:
        pct = 100 / p["wall_s"]
        funcs = {f: [calls, total * pct, self_s * pct]
                 for f, (calls, total, self_s) in p["functions"].items()}
        shares.append((funcs, p["counters"]))
        # seconds in verify, scaled to the reference speed like wall_s
        verify_s = (_self(funcs, "sequences.verify") / pct) * REF_S / statistics.median(
            r for _, r in p["refs"])
        verify_rates.append(_rate(p["counters"].get("sequences.verify_symbols", 0), verify_s))
    out = {name: (statistics.median(fn(funcs, counters) for funcs, counters in shares), unit)
           for name, (unit, fn) in LAYER_METRICS.items()}
    out["sequences.verify_symbols_per_s"] = (statistics.median(verify_rates), "1/s")
    records = passes[0]["records"]
    untraced_times = op_times(untraced)
    untraced_wall = sum(untraced_times.values())

    def group_pct(group):
        return 100 * sum(untraced_times[op["id"]] for op in ops if op.get("group") == group) / untraced_wall

    cli_results = [records[op["id"]]["result"] for op in ops if op["kind"] == "cli"]
    lower = sum(comb(n, 2) / k for _, n, k in sizes.values())
    density = [op["id"] for op in ops if op["kind"] == "density" and not records[op["id"]]["error"]]
    scanned = _rate(sum(records[i]["result"]["primes_scanned"] for i in density),
                    sum(untraced_times[i] for i in density))
    out.update({
        "logarithms.count_table_pct": (group_pct("count_table"), "%"),
        "logarithms.count_2w_pct": (group_pct("count_2w"), "%"),
        "kradius.primes_per_s": (scanned, "1/s"),
        "cli.bytes_out": (sum(r["bytes_out"] for r in cli_results), "bytes"),
        "cli.bytes_in": (sum(r["bytes_in"] for r in cli_results), "bytes"),
        "length_ratio": (_rate(sum(s[0] for s in sizes.values()), lower), "ratio"),
        "trace.overhead_pct": (100 * (sum(op_times(traced).values()) / untraced_wall - 1), "%"),
    })
    return out


# --- one workload -------------------------------------------------------------------

def require_checkout() -> None:
    for path in (ROOT / "src" / "radiusseq" / "cli.py", oracle.REFERENCE_COUNTS):
        if not path.is_file():
            raise BenchError(f"{path} is missing; run from a radiusseq checkout")


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = perf_counter()
    require_checkout()
    escaped = checks.self_test()
    if escaped:
        raise BenchError(f"checkers accept known-bad input: {escaped}")
    setup_s = measure_setup()
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        ops, files = inputs.make(workload, seed, work)
        (work / "plan.json").write_text(json.dumps({"work": str(work), "ops": ops}))
        passes = run_passes(ops, work, seconds, trace, start + RUN_LIMIT_S)
        records = passes[0]["records"]
        problems, sizes = checks.check_workload(workload, ops, records, files, program_count)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.exists() and not any(base.iterdir()):
            base.rmdir()
    problems += [f"{op_id}: output differs between passes"
                 for p in passes[1:] for op_id, rec in p["records"].items()
                 if (rec["result"], bool(rec["error"]))
                 != (records[op_id]["result"], bool(records[op_id]["error"]))]
    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    metrics = per_layer(ops, passes, sizes) if trace else end_to_end(passes, setup_s)
    return {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload in turn, each printed as a table."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = result = run_workload(workload, seed, seconds, trace)
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            require_checkout()
            escaped = checks.self_test()
            print("self-test:", "every checker rejects its bad input" if not escaped else escaped)
            return 1 if escaped else 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
