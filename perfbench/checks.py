"""Checks of every output against the oracle, run after the timed region.

Each `check_*` function returns a list of problems (empty when the output
is right). `check_workload` applies them to the first-pass records of a
worker run; later passes were already required to repeat those records
exactly. Operations that raised are counted as failed by the caller and
are not checked here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import oracle

MAX_SIGMA = 4  # allowed distance of observed from predicted density, in standard errors
BRUTE_FORCE_K = 8


# --- parsing the program's text outputs -------------------------------------

def parse_text_sequence(text: str):
    """(comments, header, symbols) of the sequence text format."""
    comments, body = [], []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line:
            body.append(line)
    header = dict(tok.split("=", 1) for tok in body[0].split())
    symbols = np.array(" ".join(body[1:]).split(), dtype=np.int64)
    return comments, {key: int(v) for key, v in header.items()}, symbols


# --- sequences ---------------------------------------------------------------

def check_sequence(symbols: np.ndarray, n: int, k: int, length: int | None = None) -> list[str]:
    """Every pair of {0..n-1} within distance k; optionally an exact length."""
    problems = []
    if length is not None and len(symbols) != length:
        problems.append(f"length {len(symbols)} != expected {length}")
    if len(symbols) and (symbols.min() < 0 or symbols.max() >= n):
        return problems + [f"symbol outside alphabet of size {n}"]
    missing, _ = oracle.missing_pairs(symbols, n, k)
    if missing:
        problems.append(f"{missing} pairs never within distance {k} (n={n})")
    return problems


def check_cover(multipliers: list[int], p: int, k: int) -> list[str]:
    """The blocks d*{+-1..+-k} of the multipliers cover Z_p*."""
    if len(set(multipliers)) != len(multipliers) or not all(0 < d < p for d in multipliers):
        return ["cover multipliers not distinct residues in [1, p-1]"]
    d = np.array(multipliers, dtype=np.int64)[:, None]
    steps = np.concatenate([np.arange(1, k + 1), -np.arange(1, k + 1)])[None, :]
    covered = np.zeros(p, dtype=bool)
    covered[(d * steps) % p] = True
    uncovered = p - 1 - int(covered[1:].sum())
    return [f"cover leaves {uncovered} residues of Z_{p}* uncovered"] if uncovered else []


def check_verify_report(stdout: str, rc: int, symbols: np.ndarray, n: int, k: int,
                        as_json: bool) -> list[str]:
    """The verify command's verdict, length, missing-pair count and listing.

    Only the count must be complete: a listing shorter than the count is
    accepted, but each listed pair must really be missing.
    """
    missing, pairs = oracle.missing_pairs(symbols, n, k)
    truly_missing = set() if pairs is None else set(map(tuple, pairs.tolist()))
    problems = []
    if rc != (1 if missing else 0):
        problems.append(f"exit code {rc} with {missing} missing pairs")
    if as_json:
        obj = json.loads(stdout)
        if (obj["n"], obj["k"], obj["length"]) != (n, k, len(symbols)):
            problems.append("json n/k/length differ from the input")
        if obj["ok"] != (missing == 0):
            problems.append(f"json ok={obj['ok']} with {missing} missing pairs")
        listed = [tuple(pair) for pair in obj["missing"]]
        reported = obj.get("missing_count", len(listed))
    else:
        lines = stdout.splitlines()
        if not missing:
            want = f"ok length={len(symbols)} n={n} k={k}"
            return problems + ([] if lines == [want] else [f"expected {want!r}, got {lines[:2]}"])
        head = lines[0].split()
        if head[0] != "missing" or head[2:] != ["pairs", f"n={n}", f"k={k}"]:
            return problems + [f"unexpected verify header {lines[0]!r}"]
        reported = int(head[1])
        listed = []
        for line in lines[1:]:
            _, x, y = line.split()
            listed.append((int(x), int(y)))
    if reported != missing:
        problems.append(f"reported {reported} missing pairs, checker finds {missing}")
    if len(set(listed)) != len(listed) or len(listed) > missing:
        problems.append("missing-pair listing repeats pairs or exceeds the count")
    wrong = [pair for pair in listed if pair not in truly_missing]
    if wrong:
        problems.append(f"{len(wrong)} listed pairs are not missing, e.g. {wrong[0]}")
    return problems


def check_error_exit(rc, stdout: str, stderr: str) -> list[str]:
    """A malformed input ends in one `error:` line and exit code 1 or 2."""
    problems = []
    if rc not in (1, 2):
        problems.append(f"exit code {rc}, expected 1 or 2")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:") or "Traceback" in stderr:
        problems.append(f"stderr is not one 'error:' line: {stderr[:200]!r}")
    if stdout:
        problems.append("malformed input produced output on stdout")
    return problems


# --- logarithms and densities --------------------------------------------------

def check_logfn(k: int, fn: dict | None) -> list[str]:
    """A bijective logarithmic function of length k, consistent with its
    values at the primes."""
    if fn is None:
        return [f"no logarithm returned for k={k}, although one exists"]
    prime_values = {int(q): v for q, v in fn["prime_values"].items()}
    if sorted(prime_values) != oracle.small_primes(k):
        return [f"prime values not given exactly at the primes <= {k}"]
    problems = []
    if oracle.log_vector(k, prime_values) != list(fn["vector"]):
        problems.append(f"vector of k={k} disagrees with its prime values")
    if not oracle.is_bijective_log(k, fn["vector"]):
        problems.append(f"k={k} function is not a bijective logarithm")
    return problems


def check_count(k: int, cls: str, value: int) -> list[str]:
    known = oracle.known_counts()[cls]
    problems = []
    if value != known[k]:
        problems.append(f"count({k}, {cls}) = {value}, literature {known[k]}")
    if k <= BRUTE_FORCE_K and value != oracle.brute_force(k)[cls]:
        problems.append(f"count({k}, {cls}) = {value} disagrees with brute force")
    return problems


def check_image(k: int, value: list[int]) -> list[str]:
    # A logarithm exists for every k <= 42, so M_k = R_k = k.
    expected = [k, k]
    if k <= BRUTE_FORCE_K:
        brute = oracle.brute_force(k)
        expected = [brute["M"], brute["R"]]
    return [] if list(value) == expected else [f"image_stats({k}) = {value}, expected {expected}"]


def check_density(rec: dict, k: int, limit: int) -> list[str]:
    problems = []
    scanned, hits = rec["primes_scanned"], rec["hits"]
    expected_scanned = oracle.PRIME_COUNTS.get(limit) or len(oracle.sieve(limit))
    if scanned != expected_scanned:
        problems.append(f"primes_scanned {scanned} != pi({limit}) = {expected_scanned}")
    if hits != oracle.k_radius_hits(k, limit):
        problems.append(f"hits {hits} != independent count of {k}-radius primes")
    if Fraction(*rec["observed"]) != Fraction(hits, scanned):
        problems.append("observed density is not hits / primes_scanned")
    predicted = oracle.predicted_density(k)
    if Fraction(*rec["predicted"]) != predicted:
        problems.append(f"predicted {Fraction(*rec['predicted'])} != closed form {predicted}")
    return problems + check_tolerance(hits, scanned, predicted)


def check_tolerance(hits: int, scanned: int, predicted: Fraction) -> list[str]:
    """Observed density within MAX_SIGMA binomial standard errors of the closed form."""
    sigma = math.sqrt(predicted * (1 - predicted) / scanned)
    if abs(hits / scanned - predicted) > MAX_SIGMA * sigma:
        return [f"observed {hits}/{scanned} more than {MAX_SIGMA} standard errors from {predicted}"]
    return []


# --- per workload ----------------------------------------------------------------

def _construct(op, res) -> tuple[list[str], int | None]:
    if res["rc"] != 0 or res["stderr"]:
        return [f"exit code {res['rc']}, stderr {res['stderr'][:200]!r}"], None
    text = Path(res["stdout"]).read_text()
    n, k = op["n"], op["k"]
    if op["id"] == "prime_k5_json":
        obj = json.loads(text)
        p = oracle.next_k_radius_prime(n, k)
        symbols = np.array(obj["symbols"], dtype=np.int64)
        problems = check_sequence(symbols, p, k, (p - 1) // (2 * k) * (p + k - 1) + 1)
        fields = (obj["strategy"], obj["n"], obj["k"], obj["p"], obj["length"], obj["verified"])
        if fields != ("prime", n, k, p, len(symbols), True):
            problems.append(f"json fields {fields} wrong (p should be {p})")
        return problems, len(symbols)
    comments, header, symbols = parse_text_sequence(text)
    if op["id"] == "prime_k3_shrink":
        p = oracle.next_k_radius_prime(n, k)
        full = (p - 1) // (2 * k) * (p + k - 1) + 1
        problems = check_sequence(symbols, n, k)
        if header != {"n": n, "k": k}:
            problems.append(f"header {header} after shrinking to n={n}")
        if comments[0] != f"strategy=prime length={len(symbols)} p={p}":
            problems.append(f"comment {comments[0]!r} wrong")
        if len(symbols) > full - math.ceil((p - n) * full / p):
            problems.append("shrunk sequence longer than the shrink bound")
        return problems, len(symbols)
    if op["id"] == "two_radius_k2":
        p = next(q for q in range(max(n, 5), 2 * n + 5) if q % 2 and oracle.is_prime(q))
        lines = Path(op["cover"]).read_text().split()
        multipliers = [int(x) for x in lines[2:]]
        problems = check_cover(multipliers, p, k)
        if lines[:2] != [f"p={p}", f"k={k}"] or header != {"n": p, "k": k}:
            problems.append(f"cover or sequence header does not name p={p}, k={k}")
        problems += check_sequence(symbols, p, k, len(multipliers) * (p + k - 1) + 1)
        return problems, len(symbols)
    if op["id"] == "eulerian_k1":
        problems = check_sequence(symbols, n, 1, oracle.eulerian_length(n))
        return problems + ([] if header == {"n": n, "k": 1} else [f"header {header}"]), len(symbols)
    return [f"no checker for {op['id']}"], None


def _verify(op, res, files) -> list[str]:
    stdout = Path(res["stdout"]).read_text()
    if op.get("malformed"):
        return check_error_exit(res["rc"], stdout, res["stderr"])
    meta = files[op["file"]]
    return check_verify_report(stdout, res["rc"], meta["symbols"], meta["n"], meta["k"],
                               "--format" in op["argv"])


def _tiling(op, res) -> tuple[list[str], int]:
    n, k, rep = op["n"], op["k"], res["report"]
    p = oracle.admissible_prime(n, k)
    symbols = np.fromfile(res["symbols_file"], dtype=np.int32)
    problems = check_sequence(symbols, p, k, rep["cover_size"] * (p + k - 1) + 1)
    if (rep["p"], rep["k"], res["n"], res["k"]) != (p, k, p, k):
        problems.append(f"tiling used p={rep['p']}, alphabet {res['n']}; admissible prime is {p}")
    if rep["seq_length"] != len(symbols) or res["length"] != len(symbols):
        problems.append("reported length differs from the sequence")
    if Fraction(*rep["ratio_to_lower_bound"]) != Fraction(len(symbols) * k, math.comb(n, 2)):
        problems.append("ratio_to_lower_bound is not length*k/C(n,2)")
    ell = oracle.subgroup_order(oracle.small_primes(k), p)
    if rep["subgroup_order"] != ell or rep["coset_count"] * ell != p - 1:
        problems.append(f"subgroup order {rep['subgroup_order']} (expected {ell}) or coset count wrong")
    if rep["coset_count"] % 2 or rep["cover_size"] > rep["coset_count"] // 2 * rep["translate_count"]:
        problems.append("cover size exceeds one multiplier per translate per coset pair")
    if op["explicit_f"]:
        problems += check_logfn(k, res["f"])
    return problems, len(symbols)


def _experiments(op, res, results: dict, program_count) -> list[str]:
    k, kind = op["k"], op["kind"]
    if kind == "count":
        if op["workers"] == 1:
            return check_count(k, op["cls"], res)
        one_worker = (results[f"count_log_{k}"] if op["cls"] == "log"
                      else program_count(k, op["cls"]))
        return [] if res == one_worker else [f"{res} with 2 workers, {one_worker} with 1"]
    if kind == "search":
        return check_logfn(k, res)
    if kind == "search_many":
        problems = [p for fn in res for p in check_logfn(k, fn)]
        vectors = [tuple(fn["vector"]) for fn in res]
        if not 1 <= len(res) <= 8 or len(set(vectors)) != len(vectors):
            problems.append(f"search_many({k}) returned {len(res)} results or repeats")
        if res and results.get(f"search_{k}") != res[0]:
            problems.append(f"search({k}) is not the first of search_many({k})")
        return problems
    if kind == "image_stats":
        return check_image(k, res)
    if kind == "density":
        problems = check_density(res, k, op["limit"])
        if op["workers"] > 1 and res != results.get(f"density_{k}_1w", res):
            problems.append(f"density k={k} differs between 1 and {op['workers']} workers")
        return problems
    return [f"no checker for {op['id']}"]


def check_workload(workload: str, ops: list[dict], records: dict, files: dict,
                   program_count) -> tuple[list[str], dict]:
    """Problems found in the first-pass outputs of the operations that ran,
    and (length, n, k) of each sequence a construct or tiling operation
    produced, n being the requested alphabet size.

    `program_count(k, cls)` gives the program's one-worker count, for the
    worker-invariance check of classes without a literature table.
    """
    results = {op_id: rec["result"] for op_id, rec in records.items() if not rec["error"]}
    problems, sizes = [], {}
    for op in ops:
        if op["id"] not in results:
            continue
        res = results[op["id"]]
        length = None
        try:
            if workload == "construct":
                found, length = _construct(op, res)
            elif workload == "verify":
                found = _verify(op, res, files)
            elif workload == "tiling":
                found, length = _tiling(op, res)
            else:
                found = _experiments(op, res, results, program_count)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # output not in its format
            found = [f"unreadable output: {exc!r}"]
        if length is not None:
            sizes[op["id"]] = (length, op["n"], op["k"])
        problems += [f"{op['id']}: {p}" for p in found]
    return problems, sizes


def self_test() -> list[str]:
    """Feed each checker a known-bad input; returns the checkers that let it pass."""
    escaped = []

    def rejects(name, problems):
        if not problems:
            escaped.append(name)

    rejects("pair checker", check_sequence(oracle.prime_splice(13, 2, [1]), 13, 2))
    rejects("length identity", check_sequence(np.array([0, 1, 2, 0]), 3, 1, 5))
    rejects("alphabet", check_sequence(np.array([0, 1, 3]), 3, 1))
    rejects("cover", check_cover([1, 2], 11, 2))
    word = np.array([0, 1, 2, 3, 0, 2])  # n=4, k=1: only {1,3} is missing
    rejects("missing count", check_verify_report("missing 2 pairs n=4 k=1\nmissing 1 3\n",
                                                 1, word, 4, 1, False))
    rejects("listed pair covered", check_verify_report(
        "missing 1 pairs n=4 k=1\nmissing 0 1\n", 1, word, 4, 1, False))
    rejects("json listing", check_verify_report(json.dumps(
        {"ok": False, "missing": [[0, 2]], "n": 4, "k": 1, "length": 6}), 1, word, 4, 1, True))
    rejects("verdict", check_verify_report("ok length=6 n=4 k=1\n", 0, word, 4, 1, False))
    rejects("traceback", check_error_exit(1, "", "Traceback (most recent call last):\nKeyError: 'k'\n"))
    rejects("two-line error", check_error_exit(1, "", "error: a\nerror: b\n"))
    rejects("exit code", check_error_exit(0, "", "error: bad\n"))
    rejects("non-bijective", check_logfn(4, {"prime_values": {"2": 1, "3": 1},
                                             "vector": oracle.log_vector(4, {2: 1, 3: 1})}))
    rejects("inconsistent vector", check_logfn(3, {"prime_values": {"2": 1, "3": 2},
                                                   "vector": [0, 2, 1]}))
    rejects("literature count", check_count(13, "log", 935))
    rejects("brute force", check_count(6, "special", 3))
    rejects("image stats", check_image(7, [7, 6]))
    hits = oracle.k_radius_hits(3, 100)
    base = {"primes_scanned": 25, "hits": hits, "observed": [hits, 25], "predicted": [1, 9]}
    rejects("primes scanned", check_density({**base, "primes_scanned": 24,
                                             "observed": [hits, 24]}, 3, 100))
    rejects("hits", check_density({**base, "hits": hits + 1, "observed": [hits + 1, 25]}, 3, 100))
    rejects("closed form", check_density({**base, "predicted": [1, 8]}, 3, 100))
    rejects("density tolerance", check_tolerance(60, 1000, Fraction(1, 9)))
    density_2w = {"id": "density_3_2w", "kind": "density", "k": 3, "limit": 100, "workers": 2}
    rejects("worker invariance", _experiments(
        density_2w, base, {"density_3_1w": {**base, "hits": hits + 1}}, None))
    count_2w = {"id": "count_km_42_2w", "kind": "count", "k": 42, "cls": "km", "workers": 2}
    rejects("worker invariance of counts", _experiments(count_2w, 5, {}, lambda k, cls: 6))
    for name, problems in (("correct sequence", check_sequence(oracle.prime_splice(13, 2, [1, 4, 3]), 13, 2)),
                           ("correct density", check_density(base, 3, 100))):
        if problems:
            escaped.append(f"{name} rejected: {problems}")
    return escaped
