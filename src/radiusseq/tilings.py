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

from . import logarithms, numtheory
from .covers import CoverPlan, block_A, sequence_from_cover
from .errors import BadPrime, NotBijective
from .sequences import RadiusSequence


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
    k = f.k
    qs = numtheory.primes(k)
    psi = tuple(f.prime_values[q] for q in qs)
    table: dict[int, tuple[int, ...]] = {}
    for pt in cluster(k).points:
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


def _invert_rational(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _exponent_map_value(z, qs, p) -> int:
    out = 1
    for q, e in zip(qs, z):
        out = out * pow(q, e, p) % p
    return out


def _subgroup_cover_detail(p: int, k: int, f: logarithms.LogFn):
    """Multipliers covering H plus the measured pipeline quantities.

    Returns (multipliers, w, subgroup, ell) where w counts the tiling
    translates meeting the fundamental region.
    """
    qs = numtheory.primes(k)
    r = len(qs)
    if numtheory.legendre(-1, p) != -1:
        raise BadPrime(f"-1 must be a non-residue mod {p}")
    for q in qs:
        if numtheory.legendre(q, p) != 1:
            raise BadPrime(f"{q} must be a quadratic residue mod {p}")
    if r == 0:
        return [1], 1, {1}, 1
    alpha = numtheory.primitive_root(p)
    exps = [numtheory.discrete_log(alpha, q, p) for q in qs]
    # The relation lattice of q_1..q_r mod p, taken mod p-1, is the same
    # lattice as mod |H|; LLL keeps the fundamental region compact.
    lattice = numtheory.lll_reduce(numtheory.kernel_lattice(exps, p - 1))
    vec_of: dict[int, tuple[int, ...]] = {1: (0,) * r}
    queue = [1]
    while queue:
        h = queue.pop()
        v = vec_of[h]
        for i, q in enumerate(qs):
            h2 = h * q % p
            if h2 not in vec_of:
                nxt = list(v)
                nxt[i] += 1
                vec_of[h2] = tuple(nxt)
                queue.append(h2)
    ell = len(vec_of)
    if abs(lattice.determinant()) != ell:
        raise AssertionError("kernel determinant does not match |H|")
    inv = _invert_rational(lattice.rows)
    region = set()
    for v in vec_of.values():
        coeffs = [
            sum(Fraction(v[j]) * inv[j][i] for j in range(r)) for i in range(r)
        ]
        red = list(v)
        for i in range(r):
            fl = math.floor(coeffs[i])
            if fl:
                red = [x - fl * y for x, y in zip(red, lattice.rows[i])]
        region.add(tuple(red))
    if len(region) != ell:
        raise AssertionError("fundamental region misses cosets")
    tiling = tiling_from_log(f)
    translates = {locate(y, tiling)[0] for y in region}
    w = len(translates)
    multipliers = sorted({_exponent_map_value(z, qs, p) for z in translates})
    subgroup = set(vec_of)
    covered = set()
    for d in multipliers:
        covered |= block_A(d, k, p)
    if not subgroup <= covered:
        raise AssertionError("multiplier blocks fail to cover the subgroup")
    return multipliers, w, subgroup, ell


def subgroup_cover(p: int, k: int, f: logarithms.LogFn) -> list[int]:
    """Multipliers d in H = <primes <= k> whose blocks d*{1..k} cover H.

    Requires every prime <= k to be a quadratic residue mod p while -1 is
    not; raises BadPrime otherwise.
    """
    multipliers, _, _, _ = _subgroup_cover_detail(p, k, f)
    return multipliers


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
    """Machine-readable record of one pipeline run."""

    p: int
    k: int
    subgroup_order: int
    coset_count: int
    translate_count: int
    cover_size: int
    seq_length: int
    ratio_to_lower_bound: Fraction


def tiling_sequence(
    n: int, k: int, f: logarithms.LogFn | None = None, candidates: int = 8
) -> tuple[RadiusSequence, TilingReport]:
    """Full pipeline: admissible prime, subgroup cover, coset assembly.

    Returns a p-ary k-radius sequence (p the chosen prime >= n) together
    with measurements; the ratio compares the length against C(n,2)/k.
    The sequence is not verified here: the CLI `construct` path runs
    `sequences.verify` on it. When no logarithm is supplied, the first
    `candidates` search representatives are compared by measured
    translate count (then cover size) and the best one is used; the count
    depends only on the tiling lattice, so scalar-equivalent logarithms
    measure alike.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    p = admissible_prime(n, k)
    if f is None:
        best = None
        for g in logarithms.search_many(k, limit=candidates):
            detail = _subgroup_cover_detail(p, k, g)
            key = (detail[1], len(detail[0]))
            if best is None or key < best[0]:
                best = (key, g, detail)
        if best is None:
            raise NotBijective(f"no logarithm of length {k} exists")
        _, f, (multipliers, w, subgroup, ell) = best
    else:
        if f.k != k:
            raise ValueError("logarithm length does not match k")
        multipliers, w, subgroup, ell = _subgroup_cover_detail(p, k, f)
    residues = sorted(subgroup)
    t = (p - 1) // ell
    member: dict[int, int] = {}
    cosets: list[list[int]] = []
    for c in range(1, p):
        if c in member:
            continue
        cs = sorted(c * h % p for h in residues)
        idx = len(cosets)
        for x in cs:
            member[x] = idx
        cosets.append(cs)
    if len(cosets) != t or t % 2 != 0:
        raise AssertionError("coset decomposition of Z_p* is inconsistent")
    reps = []
    paired = set()
    for idx, cs in enumerate(cosets):
        if idx in paired:
            continue
        neg = member[(p - cs[0]) % p]
        if neg == idx:
            raise AssertionError("a coset equals its own negation")
        paired.add(idx)
        paired.add(neg)
        reps.append(cs[0])
    plan = CoverPlan(
        p, k, tuple(c * d % p for c in reps for d in multipliers)
    )
    seq = sequence_from_cover(plan)
    report = TilingReport(
        p=p,
        k=k,
        subgroup_order=ell,
        coset_count=t,
        translate_count=w,
        cover_size=len(plan.multipliers),
        seq_length=len(seq),
        ratio_to_lower_bound=Fraction(len(seq) * k, math.comb(n, 2)),
    )
    return seq, report
