"""Exponent-vector clusters, tilings induced by logarithms, and the
subgroup-cover pipeline that turns them into k-radius sequences.

The cluster for length k collects the prime-exponent vectors of 1..k in
Z^r with r = pi(k). A logarithm of length k makes the evaluation map a
bijection from the cluster onto Z_k, so its kernel tiles Z^r by cluster
translates. Pushing the translates that meet a fundamental region of the
relation lattice of q_1..q_r mod p through the exponent map produces a
small multiplier cover of the subgroup H = <q_1..q_r> of Z_p*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mod, mul, sub

from . import logarithms, numtheory
from .covers import CoverPlan, coset_minima, irredundant, sequence_from_cover
from .errors import BadPrime, NotBijective, OutOfRange
from .sequences import RadiusSequence

CANDIDATES = 8
# the largest (p-1)/2 that tiling_plan takes: _subgroup_region walks the
# subgroup H, up to (p-1)/2 elements, before any length is known. The walk
# took 0.6 s and 42 MB at (p-1)/2 = 50,279 (k = 6), and 15 s and 264 MB at
# 420,419 (k = 13, p = 840,839); k = 17 asks for p >= 2,042,039
MAX_HALF_ORDER = 100_000


@dataclass(frozen=True)
class Cluster:
    """Exponent vectors of the integers 1..k, a downward-closed set of size k."""

    k: int
    r: int
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TilingMap:
    """Evaluation map Z^r -> Z_k restricted bijectively to the cluster."""

    k: int
    psi_values: tuple[int, ...]
    inverse_table: dict[int, tuple[int, ...]]


def cluster(k: int) -> Cluster:
    """Exponent vectors (over the primes <= k) of every m in 1..k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    qs = numtheory.primes(k)
    r = len(qs)
    idx = {q: i for i, q in enumerate(qs)}
    points = []
    for m in range(1, k + 1):
        v = [0] * r
        t = m
        for q in qs:
            while t % q == 0:
                t //= q
                v[idx[q]] += 1
        points.append(tuple(v))
    return Cluster(k, r, tuple(points))


def tiling_from_log(f: logarithms.LogFn) -> TilingMap:
    """Tiling data for the kernel of the evaluation map of a logarithm."""
    return _tiling(f, cluster(f.k).points)


def _tiling(f: logarithms.LogFn, points) -> TilingMap:
    """tiling_from_log over the given cluster points of length f.k."""
    k = f.k
    qs = numtheory.primes(k)
    psi = tuple(f.prime_values[q] for q in qs)
    table: dict[int, tuple[int, ...]] = {}
    for pt in points:
        val = sum(c * p for c, p in zip(pt, psi)) % k
        if val in table:
            raise NotBijective(f"evaluation map collides at {val} (length {k})")
        table[val] = pt
    return TilingMap(k, psi, table)


def psi_value(t: TilingMap, y) -> int:
    return sum(c * p for c, p in zip(y, t.psi_values)) % t.k if t.psi_values else 0


def locate(y, t: TilingMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique (z, c) with y = z + c, c in the cluster and z in the kernel."""
    c = t.inverse_table[psi_value(t, y)]
    z = tuple(a - b for a, b in zip(y, c))
    return z, c


def _cofactors(rows) -> list[list[int]]:
    """Cofactor matrix C of a square integer matrix: rows[a] . C[b] equals
    det(rows) when a == b and 0 otherwise, so C[i] / det is column i of
    the inverse."""
    n = len(rows)
    cof = []
    for i in range(n):
        others = [r for a, r in enumerate(rows) if a != i]
        minors = [numtheory.determinant([r[:j] + r[j + 1 :] for r in others]) for j in range(n)]
        cof.append([(-1) ** (i + j) * m for j, m in enumerate(minors)])
    return cof


def _combine(cols, weights, n: int):
    """sum(w * col) over the columns, point by point for n points: a lazy
    C-level map with no Python loop per point."""
    acc = None
    for w, col in zip(weights, cols):
        if w:
            term = map(mul, col, repeat(w))
            acc = term if acc is None else map(add, acc, term)
    return repeat(0, n) if acc is None else acc


def _reduce(cols, rows, cof, det) -> list[list[int]]:
    """The points v minus sum(floor(c_i) * rows[i]), where c = v * rows^-1,
    given and returned as one column per coordinate.

    Each c_i is the integer v . cof[i] over det, and `//` floors for either
    sign of det, so every result lies in the fundamental parallelepiped.
    All floors are taken from the unreduced columns.
    """
    n = len(cols[0]) if cols else 0
    floors = [list(map(floordiv, _combine(cols, c, n), repeat(det))) for c in cof]
    return [list(map(sub, col, _combine(floors, weights, n)))
            for col, weights in zip(cols, zip(*rows))]


def _subgroup_region(p: int, k: int) -> dict[int, tuple[int, ...]]:
    """The logarithm-independent half of the subgroup cover: each h in
    H = <primes <= k> of Z_p* mapped to an exponent vector of h reduced
    into the fundamental parallelepiped of the LLL-reduced relation
    lattice of those primes. numtheory.relation_lattice reads the lattice
    and one exponent vector per h off a single walk over H."""
    qs = numtheory.primes(k)
    if numtheory.legendre(-1, p) != -1:
        raise BadPrime(f"-1 must be a non-residue mod {p}")
    for q in qs:
        if numtheory.legendre(q, p) != 1:
            raise BadPrime(f"{q} must be a quadratic residue mod {p}")
    basis, vec_of = numtheory.relation_lattice(qs, p)
    # LLL keeps the fundamental region compact.
    lattice = numtheory.lll_reduce(basis)
    det = lattice.determinant()
    if abs(det) != len(vec_of):
        raise AssertionError("lattice determinant does not match |H|")
    cof = _cofactors(lattice.rows)
    cols = _reduce(list(zip(*vec_of.values())), lattice.rows, cof, det)
    # k = 1 has no coordinates: H = {1} and its one point is ()
    region = dict(zip(vec_of, zip(*cols) if cols else [()]))
    if len(set(region.values())) != len(region):
        raise AssertionError("fundamental region misses cosets")
    return region


def _region_covers(p: int, k: int, region, logs):
    """For each logarithm in `logs`, the multipliers covering H and the
    number of tiling translates of it meeting the fundamental region.

    The region's coordinate columns, the cluster and m^-1 mod p of each
    cluster point are made once for all the logarithms.
    """
    points = cluster(k).points
    inverse = {c: pow(m, -1, p) for m, c in enumerate(points, 1)}
    cols = list(zip(*region.values()))
    for f in logs:
        tiling = _tiling(f, points)
        # Per psi-value tables: the cluster point c that locates a point y
        # of that value, and m^-1 mod p for the integer m whose exponent
        # vector is c. The translate z = y - c then maps to h * m^-1 mod p.
        cells = [tiling.inverse_table[val] for val in range(k)]
        inv = [inverse[c] for c in cells]
        vals = list(map(mod, _combine(cols, tiling.psi_values, len(region)), repeat(k)))
        zcols = [map(sub, col, map(coord.__getitem__, vals)) for col, coord in zip(cols, zip(*cells))]
        # k = 1: no coordinates, and the one point () lies in the translate ()
        translates = set(zip(*zcols)) if zcols else {()}
        multipliers = sorted(set(map(mod, map(mul, region, map(inv.__getitem__, vals)), repeat(p))))
        covered = set()
        for m in range(1, k + 1):
            covered.update(map(mod, map(mul, multipliers, repeat(m)), repeat(p)))
        if not region.keys() <= covered:
            raise AssertionError("multiplier blocks fail to cover the subgroup")
        yield multipliers, len(translates)


def _region_cover(p: int, k: int, region, f: logarithms.LogFn) -> tuple[list[int], int]:
    """_region_covers for the one logarithm f."""
    return next(_region_covers(p, k, region, (f,)))


def admissible_prime(n: int, k: int) -> int:
    """Smallest prime p >= max(n, 2k+1) with p = -1 mod 8*(odd primes <= k).

    The congruence forces the quadratic-character pattern the subgroup
    cover needs.
    """
    modulus = 8
    for q in numtheory.primes(k):
        if q > 2:
            modulus *= q
    p = max(n, 2 * k + 1, 2)
    p += (modulus - 1 - p) % modulus
    while not numtheory.is_prime(p):
        p += modulus
    return p


@dataclass(frozen=True)
class TilingReport:
    """Machine-readable record of one pipeline run.

    translate_count is w, the tiling translates meeting the fundamental
    region, of the chosen logarithm; cover_size counts the multipliers of
    the plan, after covers.irredundant has dropped the redundant ones, so
    it can fall below the coset pairs times w, and seq_length is that
    plan's length."""

    p: int
    k: int
    subgroup_order: int
    coset_count: int
    translate_count: int
    cover_size: int
    seq_length: int
    ratio_to_lower_bound: Fraction


def tiling_plan(
    n: int, k: int, f: logarithms.LogFn | None = None
) -> tuple[CoverPlan, TilingReport]:
    """Full pipeline up to the splice: admissible prime, subgroup cover,
    coset assembly.

    Returns a cover plan of Z_p* (p the chosen prime >= n) together with
    measurements; the length and the ratio, which compares it against
    C(n,2)/k, are the plan's, so no symbol is made. When no logarithm is
    supplied, the first CANDIDATES search representatives are compared by
    measured translate count (then cover size before pruning) and the best
    one is used; the count depends only on the tiling lattice, so
    scalar-equivalent logarithms measure alike. The chosen cover, one run
    of multipliers per coset pair, then goes once through
    covers.irredundant, and the plan, its cover_size and its length are
    the pruned ones; translate_count stays w. A prime with (p-1)/2 above
    MAX_HALF_ORDER raises OutOfRange before the subgroup walk.
    """
    if n < 2:
        raise OutOfRange("n must be >= 2")
    if f is not None and f.k != k:
        raise ValueError("logarithm length does not match k")
    p = admissible_prime(n, k)
    if (p - 1) // 2 > MAX_HALF_ORDER:
        raise OutOfRange(
            f"the tiling prime p={p} has (p-1)/2 above the cap {MAX_HALF_ORDER} "
            "on the subgroup walk"
        )
    region = _subgroup_region(p, k)
    if f is None:
        best = None
        candidates = logarithms.search_many(k, limit=CANDIDATES)
        for multipliers, w in _region_covers(p, k, region, candidates):
            if best is None or (w, len(multipliers)) < best[:2]:
                best = (w, len(multipliers), multipliers)
        if best is None:
            raise NotBijective(f"no logarithm of length {k} exists")
        w, _, multipliers = best
    else:
        multipliers, w = _region_cover(p, k, region, f)
    ell = len(region)
    # -1 is a non-residue and H holds only residues, so the cosets of H
    # pair off with their negations and reps holds one minimum per pair.
    reps = coset_minima(p, region)
    if 2 * len(reps) * ell != p - 1:
        raise AssertionError("coset decomposition of Z_p* is inconsistent")
    # translates at the region's boundary overlap modulo the relation
    # lattice, so some blocks are covered by the others
    plan = irredundant(CoverPlan(p, k, tuple(c * d % p for c in reps for d in multipliers)))
    report = TilingReport(
        p=p,
        k=k,
        subgroup_order=ell,
        coset_count=(p - 1) // ell,
        translate_count=w,
        cover_size=len(plan.multipliers),
        seq_length=plan.length,
        ratio_to_lower_bound=Fraction(plan.length * k, math.comb(n, 2)),
    )
    return plan, report


def tiling_sequence(
    n: int, k: int, f: logarithms.LogFn | None = None
) -> tuple[RadiusSequence, TilingReport]:
    """tiling_plan's plan spliced into a p-ary k-radius sequence, and its
    report. The sequence is not verified here."""
    plan, report = tiling_plan(n, k, f)
    return sequence_from_cover(plan), report
