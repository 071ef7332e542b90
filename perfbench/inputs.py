"""Seeded inputs: the operation plan of each workload and the verify files.

Every choice comes from `random.Random(f"{workload}:{seed}")`, so a seed
fixes the inputs. The ranges for n are chosen so that the prime a
construction picks does not depend on the seed (p = 3181, 1447, 1151,
1319, 3359 and 5039 below), which keeps the work per pass nearly equal
across seeds while the alphabet, the shrink and the emitted headers vary.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from . import oracle

DENSITY_LIMIT = 10**6
MAX_COUNT_K = 42
MAX_IMAGE_K = 20

# verify: a prime-cover sequence at a 3-radius prime, and a random word
VERIFY_P, VERIFY_K = 2011, 3
RANDOM_N, RANDOM_K, RANDOM_LEN = 400, 4, 30_000
DELETED_RUN = (500, 600)


def _cli(op_id, argv, **meta):
    return {"id": op_id, "kind": "cli", "argv": argv, **meta}


def construct_plan(rng: random.Random, work: Path) -> list[dict]:
    n1 = rng.randint(2870, 3100)  # p = 3181: 10 MB marks table, above the 2 MiB L2
    n2 = rng.randint(1300, 1440)  # p = 1447, shrunk back to n2
    n3 = rng.randint(1130, 1151)  # p = 1151: 1.3 MB marks table, below the L2
    n4 = rng.randint(590, 610)
    cover = str(work / "cover.txt")
    return [
        _cli("prime_k5_json", ["construct", "--n", str(n1), "--k", "5",
                               "--strategy", "prime", "--format", "json"], n=n1, k=5),
        _cli("prime_k3_shrink", ["construct", "--n", str(n2), "--k", "3",
                                 "--strategy", "prime", "--shrink"], n=n2, k=3),
        _cli("two_radius_k2", ["construct", "--n", str(n3), "--k", "2",
                               "--strategy", "two-radius", "--cover-out", cover],
             n=n3, k=2, cover=cover),
        _cli("eulerian_k1", ["construct", "--n", str(n4), "--k", "1",
                             "--strategy", "eulerian"], n=n4, k=1),
    ]


def write_verify_files(rng: random.Random, work: Path) -> dict[str, dict]:
    """Write the verify inputs; returns their symbols and parameters."""
    p, k = VERIFY_P, VERIFY_K
    alpha = oracle.primitive_root(p)
    multipliers = [pow(alpha, k * i, p) for i in range((p - 1) // (2 * k))]
    rng.shuffle(multipliers)  # any order of a partition cover is a valid splice
    valid = oracle.prime_splice(p, k, multipliers)
    cut = rng.randint(len(valid) // 4, 3 * len(valid) // 4)
    run = rng.randint(*DELETED_RUN)
    deleted = np.concatenate([valid[:cut], valid[cut + run :]])
    word = np.array([rng.randrange(RANDOM_N) for _ in range(RANDOM_LEN)], dtype=np.int32)
    files = {
        "valid": (p, k, valid, p + k),
        "deleted": (p, k, deleted, p + k),
        "random": (RANDOM_N, RANDOM_K, word, 40),
    }
    out = {}
    for name, (n, kk, symbols, width) in files.items():
        path = work / f"{name}.txt"
        lines = [f"# seeded input: {name}", f"n={n} k={kk}"]
        tokens = [str(s) for s in symbols.tolist()]
        lines += [" ".join(tokens[i : i + width]) for i in range(0, len(tokens), width)]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        out[name] = {"path": str(path), "n": n, "k": kk, "symbols": symbols}
    malformed = {
        "bad_header": "n=5\n0 1 2 3 4\n",  # no k= in the header
        "bad_symbol": f"n=5 k=2\n0 1 2 3 {5 + rng.randrange(5)} 4\n",
        "bad_token": f"n=5 k=2\n0 1 2 x{rng.randrange(10)} 3 4\n",
    }
    for name, text in malformed.items():
        path = work / f"{name}.txt"
        path.write_text(text, encoding="ascii")
        out[name] = {"path": str(path)}
    return out


def verify_plan(files: dict[str, dict]) -> list[dict]:
    path = {name: meta["path"] for name, meta in files.items()}
    return [
        _cli("valid", ["verify", "--input", path["valid"]], file="valid"),
        _cli("deleted_text", ["verify", "--input", path["deleted"]], file="deleted"),
        _cli("deleted_json", ["verify", "--input", path["deleted"], "--format", "json"],
             file="deleted"),
        _cli("random_word", ["verify", "--input", path["random"]], file="random"),
        _cli("bad_header", ["verify", "--input", path["bad_header"]], file="bad_header",
             malformed=True),
        _cli("bad_symbol", ["verify", "--input", path["bad_symbol"]], file="bad_symbol",
             malformed=True),
        _cli("bad_token", ["verify", "--input", path["bad_token"]], file="bad_token",
             malformed=True),
    ]


def tiling_plan(rng: random.Random) -> list[dict]:
    cases = [("auto_k6", 900, 1100, 6, False), ("auto_k10", 900, 1100, 10, False),
             ("auto_k8", 3400, 5000, 8, False), ("explicit_k10", 900, 1100, 10, True)]
    return [
        {"id": op_id, "kind": "tiling", "n": rng.randint(lo, hi), "k": k, "explicit_f": f}
        for op_id, lo, hi, k, f in cases
    ]


def experiments_plan(rng: random.Random) -> list[dict]:
    table = [
        {"id": f"count_{cls}_{k}", "kind": "count", "k": k, "cls": cls, "workers": 1,
         "group": "count_table", "unit": "count_table"}
        for k in range(1, MAX_COUNT_K + 1) for cls in ("log", "special")
    ]
    rng.shuffle(table)
    searches = [
        {"id": f"{kind}_{k}", "kind": kind, "k": k, "unit": kind}
        for k in range(1, MAX_COUNT_K + 1) for kind in ("search", "search_many")
    ]
    rng.shuffle(searches)
    return (
        table
        + [{"id": f"count_{cls}_42_2w", "kind": "count", "k": 42, "cls": cls, "workers": 2,
            "group": "count_2w"} for cls in ("log", "km")]
        + searches
        + [{"id": f"image_{k}", "kind": "image_stats", "k": k, "unit": "search"}
           for k in range(1, MAX_IMAGE_K + 1)]
        + [{"id": f"density_{k}_{w}w", "kind": "density", "k": k, "limit": DENSITY_LIMIT,
            "workers": w, "group": "density"} for k, w in ((3, 1), (3, 2), (6, 2))]
    )


def make(workload: str, seed: int, work: Path) -> tuple[list[dict], dict]:
    """The operation plan of a workload, plus the generated verify files.

    Every operation names the unit, the fresh process, it runs in; an
    operation without a shared unit runs alone, as one CLI command would.
    """
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    if workload == "construct":
        ops = construct_plan(rng, work)
    elif workload == "verify":
        files = write_verify_files(rng, work)
        ops = verify_plan(files)
    elif workload == "tiling":
        ops = tiling_plan(rng)
    elif workload == "experiments":
        ops = experiments_plan(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op.setdefault("unit", op["id"])
    return ops, files
