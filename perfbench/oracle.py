"""Reference computations made apart from radiusseq.

Nothing here imports radiusseq. The checkers compare the program's outputs
against these functions, against literature values, or against the
definitions in the paper; never against a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import itertools
import math
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np

# Exact counts of logarithms and of special-class logarithms of length k,
# k <= 42: the literature table that the repository's tests also use.
REFERENCE_COUNTS = Path(__file__).resolve().parents[1] / "tests" / "reference_counts.py"


@functools.cache
def known_counts() -> dict[str, dict[int, int]]:
    """{"log": KNOWN_LOG, "special": KNOWN_SPECIAL} of tests/reference_counts.py."""
    table = runpy.run_path(str(REFERENCE_COUNTS))
    return {"log": table["KNOWN_LOG"], "special": table["KNOWN_SPECIAL"]}


PRIME_COUNTS = {10**6: 78_498, 10**7: 664_579}  # pi(x), literature values


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about n below 10**5."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def small_primes(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime(q)]


def sieve(limit: int) -> np.ndarray:
    """All primes <= limit, by a numpy sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return np.nonzero(flags)[0].astype(np.int64)


def prime_factors(n: int) -> list[int]:
    return [q for q in small_primes(n) if n % q == 0]


def primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


def is_k_radius_prime(p: int, k: int) -> bool:
    """p = 1 mod 2k and the k-th power residues of 1..k are distinct."""
    if not is_prime(p) or p % (2 * k) != 1:
        return False
    e = (p - 1) // k
    return len({pow(i, e, p) for i in range(1, k + 1)}) == k


def next_k_radius_prime(n: int, k: int) -> int:
    p = max(n, 3)
    while not is_k_radius_prime(p, k):
        p += 1
    return p


def admissible_prime(n: int, k: int) -> int:
    """Smallest prime p >= max(n, 2k+1) with p = -1 mod 8*(odd primes <= k)."""
    modulus = 8 * math.prod(q for q in small_primes(k) if q > 2)
    p = max(n, 2 * k + 1)
    while p % modulus != modulus - 1 or not is_prime(p):
        p += 1
    return p


def prime_splice(p: int, k: int, multipliers) -> np.ndarray:
    """The spliced progression sequence of a multiplier cover of Z_p*.

    Segment i holds p+k terms of the step-d_i progression; each later
    segment starts at the previous segment's last term, which is merged.
    """
    parts = []
    start = 0
    steps = np.arange(p + k, dtype=np.int64)
    for idx, d in enumerate(multipliers):
        a = start * pow(d, -1, p) % p
        seg = (a + steps) * d % p
        parts.append(seg if idx == 0 else seg[1:])
        start = int(seg[-1])
    return np.concatenate(parts).astype(np.int32)


def missing_pairs(symbols: np.ndarray, n: int, k: int) -> tuple[int, np.ndarray | None]:
    """Count the pairs x < y of {0..n-1} never within distance k.

    Marks every pair seen at distances 1..k in an n*n table. Returns the
    missing count and, when it is not zero, the missing pairs as rows
    (x, y). Symbols must already lie in [0, n).
    """
    marks = np.zeros(n * n, dtype=bool)
    s = np.asarray(symbols, dtype=np.int64)
    chunk = 1 << 20
    for lo in range(0, len(s), chunk):
        window = s[lo : lo + chunk + k]
        for d in range(1, k + 1):
            a, b = window[:-d], window[d:]
            if len(a) == 0:
                break
            marks[np.minimum(a, b) * n + np.maximum(a, b)] = True
    table = marks.reshape(n, n)
    covered = int(table.sum()) - int(np.count_nonzero(np.diagonal(table)))
    missing = n * (n - 1) // 2 - covered
    if missing == 0:
        return 0, None
    rows, cols = np.nonzero(np.triu(~table, 1))
    return missing, np.stack([rows, cols], axis=1)


def eulerian_length(n: int) -> int:
    """Optimal 1-radius length: C(n,2)+1 for odd n, C(n,2)+n/2 for even n."""
    return math.comb(n, 2) + (1 if n % 2 else n // 2)


def log_vector(k: int, prime_values: dict[int, int]) -> list[int]:
    """f(1..k) from the values at the primes, by factorization."""
    out = []
    for m in range(1, k + 1):
        v, t = 0, m
        for q in prime_values:
            while t % q == 0:
                t //= q
                v += prime_values[q]
        out.append(v % k)
    return out


def is_bijective_log(k: int, vector) -> bool:
    """f(ab) = f(a)+f(b) mod k whenever ab <= k, and f is onto Z_k."""
    vector = list(vector)
    if len(vector) != k or sorted(vector) != list(range(k)):
        return False
    return all(
        vector[a * b - 1] == (vector[a - 1] + vector[b - 1]) % k
        for a in range(1, k + 1)
        for b in range(1, k // a + 1)
    )


def is_special(k: int, vector) -> bool:
    """Special class: for even k, f(m) is even for every divisor m of k/2."""
    if k % 2:
        return True
    return all(vector[m - 1] % 2 == 0 for m in range(1, k // 2 + 1) if (k // 2) % m == 0)


@functools.cache
def brute_force(k: int) -> dict[str, int]:
    """Exhaust all k**pi(k) functions: log and special counts, M_k and R_k.

    M_k is the largest image size; R_k the largest y such that some
    function is injective on the y-smooth part of {1..k}.
    """
    qs = small_primes(k)
    smooth = {
        y: [m for m in range(1, k + 1) if all(q <= y for q in prime_factors(m))]
        for y in range(1, k + 1)
    }
    logs = special = 0
    m_k = r_k = 1
    for values in itertools.product(range(k), repeat=len(qs)):
        vec = log_vector(k, dict(zip(qs, values)))
        m_k = max(m_k, len(set(vec)))
        for y in range(k, r_k, -1):
            if len({vec[m - 1] for m in smooth[y]}) == len(smooth[y]):
                r_k = y
                break
        if is_bijective_log(k, vec):
            logs += 1
            special += is_special(k, vec)
    return {"log": logs, "special": special, "M": m_k, "R": r_k}


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def predicted_density(k: int) -> Fraction:
    """Closed form F_special(k) / (phi(2k) k^pi(k)), times 2^omega(k/2) for even k."""
    value = Fraction(known_counts()["special"][k], euler_phi(2 * k) * k ** len(small_primes(k)))
    if k % 2 == 0:
        value *= 2 ** len(prime_factors(k // 2))
    return value


def subgroup_order(gens, p: int) -> int:
    """Order of the subgroup of Z_p* generated by `gens`."""
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % p
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _modpow(base: int, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    result = np.ones_like(mod)
    b = np.full_like(mod, base) % mod
    e = exp.copy()
    while e.any():
        result = np.where(e & 1, result * b % mod, result)
        b = b * b % mod
        e >>= 1
    return result


def k_radius_hits(k: int, limit: int) -> int:
    """Number of k-radius primes <= limit, by a vectorized predicate."""
    ps = sieve(limit)
    ps = ps[ps % (2 * k) == 1]
    if k == 1:
        return len(ps)
    e = (ps - 1) // k
    residues = np.stack([np.ones_like(ps)] + [_modpow(i, e, ps) for i in range(2, k + 1)], axis=1)
    residues.sort(axis=1)
    return int(np.all(residues[:, 1:] != residues[:, :-1], axis=1).sum())
