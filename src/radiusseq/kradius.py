"""k-radius primes: the predicate, scanning, and density measurements.

A prime p qualifies for radius k when p = 1 mod 2k and the k-th power
residues of 1..k are pairwise distinct; such primes admit a partition of
Z_p* into (p-1)/2k multiplier blocks and hence near-optimal sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import logarithms, numtheory
from .errors import NotKRadiusPrime, OutOfRange

DEFAULT_HORIZON = 10**7
CSV_HEADER = "k,limit,primes_scanned,hits,observed,predicted"


def _spf_for(k: int, bound: int) -> list[int]:
    """The smallest-prime-factor table _qualifies reads, for primes up to
    bound. A k-radius prime is at least 2k + 1, so below that no table is
    built and a huge k costs no memory."""
    return numtheory.spf_table(k) if 2 * k < bound else []


def _qualifies(p: int, k: int, spf: list[int]) -> bool:
    """Predicate body; assumes p is prime and spf = _spf_for(k, bound) for
    some bound >= p.

    The congruence p = 1 mod 2k makes (p-1)/k even, which the
    block-disjointness argument relies on. The k-th power character
    chi(i) = i**((p-1)/k) mod p is completely multiplicative, so `pow` runs
    at the primes <= k only and every other value is chi(q) * chi(i/q) for
    the smallest prime factor q of i; the scan stops at the first repeat.
    """
    if p % (2 * k) != 1:
        return False
    e = (p - 1) // k
    chi = [1] * (k + 1)
    seen = {1}
    for i in range(2, k + 1):
        q = spf[i]
        c = pow(i, e, p) if q == i else chi[q] * chi[i // q] % p
        if c in seen:
            return False
        seen.add(c)
        chi[i] = c
    return True


def is_k_radius_prime(p: int, k: int) -> bool:
    """True iff prime p = 1 mod 2k and 1..k have distinct k-th power residues."""
    if k < 1:
        raise OutOfRange("k must be >= 1")
    if not numtheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _qualifies(p, k, _spf_for(k, p))


def next_k_radius_prime(n: int, k: int, horizon: int = DEFAULT_HORIZON) -> int | None:
    """Smallest k-radius prime >= n, or None if none up to the horizon."""
    if k < 1:
        raise OutOfRange("k must be >= 1")
    step = 2 * k
    spf = _spf_for(k, horizon)
    p = max(n, 3)
    p += (1 - p) % step  # first candidate = 1 mod 2k
    while p <= horizon:
        if numtheory.is_prime(p) and _qualifies(p, k, spf):
            return p
        p += step
    return None


def induced_log(p: int, k: int) -> logarithms.LogFn:
    """The length-k function read off a k-radius prime's power residues.

    The residue a**((p-1)/k) is the power of the k-th root of unity
    alpha**((p-1)/k) with exponent dlog(a) mod k, and logarithms.dlog_logfn
    reads that exponent off the k powers of the root.
    """
    if not is_k_radius_prime(p, k):
        raise NotKRadiusPrime(f"{p} is not a {k}-radius prime")
    return logarithms.dlog_logfn(p, k)


def predicted_density(k: int, max_k: int = logarithms.DEFAULT_MAX_K) -> Fraction:
    """Closed-form density of k-radius primes among all primes.

    Needs the exact special-class count for length k, so the counting
    budget applies. At k=5 the formula gives 2/125 = 0.016; a scan to 10**6
    finds 1,252 of 78,498 primes (0.015949), well within one binomial
    standard error (about 0.00045). The value 0.00160 printed for k=5 in
    the reference density table is a misprint for 0.0160.
    """
    f_spec = logarithms.count(k, logarithms.SPECIAL, max_k=max_k)
    phi2k = numtheory.euler_phi(2 * k)
    denom = phi2k * k ** numtheory.prime_count(k)
    if k % 2 == 1:
        return Fraction(f_spec, denom)
    omega = len(numtheory.factorize(k // 2))
    return Fraction(f_spec * 2**omega, denom)


@dataclass(frozen=True)
class DensityReport:
    """Predicted versus observed proportion of k-radius primes up to a limit."""

    k: int
    limit: int
    primes_scanned: int
    k_radius_count: int
    observed: Fraction
    predicted: Fraction


def _scan_interval(args) -> tuple[int, list[int]]:
    """(number of primes, ascending k-radius primes) in [lo, hi], with
    numtheory.segmented_sieve; only the primes = 1 mod 2k reach the
    predicate."""
    k, lo, hi = args
    lo = max(lo, 2)
    flags = numtheory.segmented_sieve(lo, hi)
    step = 2 * k
    spf = _spf_for(k, hi)
    found = [
        lo + i
        for i in range((1 - lo) % step, len(flags), step)
        if flags[i] and _qualifies(lo + i, k, spf)
    ]
    return flags.count(1), found


def _validate_scan(k: int, limit: int, workers: int) -> None:
    if k < 1 or limit < 2:
        raise OutOfRange("need k >= 1 and limit >= 2")
    if workers < 1:
        raise OutOfRange("workers must be >= 1")


def scan_k_radius_primes(k: int, limit: int, workers: int = 1) -> list[int]:
    """All k-radius primes <= limit, ascending; shardable across workers."""
    _validate_scan(k, limit, workers)
    return [p for _, found in _run_shards(k, limit, workers) for p in found]


def _run_shards(k: int, limit: int, workers: int) -> list[tuple[int, list[int]]]:
    """_scan_interval over [2, limit] cut into one interval per process;
    the caller has run _validate_scan."""
    span = (limit - 1) // logarithms.pool_size(workers, limit - 1) + 1
    tasks = [(k, lo, min(lo + span - 1, limit)) for lo in range(2, limit + 1, span)]
    return logarithms.pool_map(_scan_interval, tasks, workers)


def density_scan(
    k: int,
    limit: int,
    workers: int = 1,
    max_k: int = logarithms.DEFAULT_MAX_K,
) -> DensityReport:
    """Scan all primes <= limit and compare the hit rate with the prediction;
    the arguments and the counting budget are checked before any sieving."""
    _validate_scan(k, limit, workers)
    predicted = predicted_density(k, max_k=max_k)
    parts = _run_shards(k, limit, workers)
    n_primes = sum(n for n, _ in parts)
    hits = sum(len(found) for _, found in parts)
    observed = Fraction(hits, n_primes) if n_primes else Fraction(0)
    return DensityReport(
        k=k,
        limit=limit,
        primes_scanned=n_primes,
        k_radius_count=hits,
        observed=observed,
        predicted=predicted,
    )


def csv_row(report: DensityReport) -> str:
    """One CSV row: k, limit, primes_scanned, hits, observed, predicted."""
    return (
        f"{report.k},{report.limit},{report.primes_scanned},"
        f"{report.k_radius_count},{float(report.observed)!r},"
        f"{float(report.predicted)!r}"
    )
