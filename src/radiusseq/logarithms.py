"""Logarithmic functions of length k: search, classification, exact counting.

A logarithmic function maps {1..k} into Z_k with f(ab) = f(a) + f(b)
whenever ab <= k, so it is determined by its values at the primes <= k.
A logarithm is a bijective logarithmic function.

One backtracking engine walks the representatives of the symmetry
classes (value-sorted blocks of interchangeable primes, f(2) scaled onto
a divisor of k) and has two uses: counting weights each representative
by its exact class size, which reproduces the known counts for k <= 42,
and stops before the top block of primes above k/2 (they take the values
left over in increasing order) instead of walking it; search returns the
first representative (or the first N). A count is
a sum of one task per value of f(2), and `pool_map` runs those tasks,
like the shards of a prime scan, in-process or in a process pool.
`dlog_logfn` reads the function q -> dlog(q) mod k off the k-th power
character of a prime modulus, and `image_stats` answers from `search`: a
logarithm has the largest image.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, permutations

from . import numtheory
from .errors import BudgetExceeded, CountingError, NotBijective, OutOfRange
from .sequences import content_lines, parse_fields, usable_cpus

LOG = "log"
KM = "km"
SPECIAL = "special"
CLASSES = (LOG, KM, SPECIAL)

DEFAULT_MAX_K = 42
DEFAULT_IMAGE_MAX_K = 20


@dataclass
class LogFn:
    """A logarithmic function: values at primes plus the induced vector."""

    k: int
    prime_values: dict[int, int]
    full_vector: tuple[int, ...]

    def value(self, m: int) -> int:
        return self.full_vector[m - 1]


@dataclass(frozen=True)
class Classification:
    is_logarithm: bool
    is_km: bool
    is_special_km: bool


@dataclass(frozen=True)
class BlockPartition:
    """Primes <= k grouped into interchangeable blocks."""

    k: int
    blocks: tuple[tuple[int, ...], ...]


def eval_vector(k: int, prime_values: dict[int, int]) -> LogFn:
    """Build the LogFn induced by one value in Z_k per prime <= k."""
    qs = numtheory.primes(k)
    if sorted(prime_values) != qs:
        raise ValueError(f"need exactly one value per prime <= {k}")
    if any(not 0 <= v < k for v in prime_values.values()):
        raise ValueError("prime values must lie in [0, k)")
    spf = numtheory.spf_table(k)
    vec = [0] * (k + 1)
    for m in range(2, k + 1):
        q = spf[m]
        vec[m] = (vec[m // q] + prime_values[q]) % k
    return LogFn(k, dict(prime_values), tuple(vec[1:]))


def classify(f: LogFn) -> Classification:
    """Flag f as a logarithm and, if so, test the KM / special parities.

    For odd k every logarithm qualifies for both. For even k the special
    condition asks f(m) to be even for every divisor m of k/2; the KM
    condition asks the same for divisors of k that are 1 mod 4 (when
    k = 2 mod 4) or for divisors of k/4 (when 4 | k). Both index sets come
    from _parity_targets, which the search prunes with.
    """
    k = f.k
    is_log = len(set(f.full_vector)) == k
    if not is_log:
        return Classification(False, False, False)
    km, special = (
        all(f.value(m) % 2 == 0 for m in _parity_targets(k, cls)) for cls in (KM, SPECIAL)
    )
    return Classification(True, km, special)


def blocks(k: int, cls: str = LOG) -> BlockPartition:
    """Partition the primes <= k into interchangeable blocks.

    Primes up to sqrt(k) sit alone; a prime q in (sqrt(k), k] joins the
    primes sharing floor(k/q). The prime 2 is always kept alone (its value
    anchors the scaling normal form), and for the KM / special classes any
    prime dividing k is pulled into a singleton as well.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    singles: list[tuple[int, ...]] = []
    grouped: dict[int, list[int]] = {}
    for q in numtheory.primes(k):
        if q == 2 or q * q <= k:
            singles.append((q,))
        elif cls in (KM, SPECIAL) and k % q == 0:
            singles.append((q,))
        else:
            grouped.setdefault(k // q, []).append(q)
    parts = singles + [tuple(g) for g in grouped.values()]
    parts.sort(key=lambda b: b[0])
    return BlockPartition(k, tuple(parts))


def _parity_targets(k: int, cls: str) -> set[int]:
    """Indices m whose value must be even for membership in cls."""
    if k % 2 == 1:
        return set()
    if cls == SPECIAL:
        return set(numtheory.divisors(k // 2))
    if cls == KM:
        if k % 4 == 2:
            return {m for m in numtheory.divisors(k) if m % 4 == 1}
        return set(numtheory.divisors(k // 4))
    return set()


def _prime_tables(k: int, qs: list[int], targets: set[int]):
    """Per prime q <= k, the indices m <= k that its value moves.

    Returns (new_items, mult_items). new_items[j] holds (m, e, m in
    targets) for each m whose largest prime factor is qs[j], i.e. the
    values fixed once qs[j] is assigned; mult_items[j] holds (m, e) for
    every multiple m of qs[j]. In both, e is the exponent of qs[j] in m.
    """
    spf = numtheory.spf_table(k)
    lpf = [0] * (k + 1)
    for m in range(2, k + 1):
        lpf[m] = max(lpf[m // spf[m]], spf[m])
    new_items: list[list[tuple[int, int, bool]]] = []
    mult_items: list[list[tuple[int, int]]] = []
    for q in qs:
        new = []
        mult = []
        for m in range(q, k + 1, q):
            e = 0
            t = m
            while t % q == 0:
                t //= q
                e += 1
            mult.append((m, e))
            if lpf[m] == q:
                new.append((m, e, m in targets))
        new_items.append(new)
        mult_items.append(mult)
    return new_items, mult_items


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start for `tasks` independent tasks.

    Never more than the tasks or the usable CPUs, so no argument can make a
    pool start an unbounded number of processes; at least 1.
    """
    return max(1, min(workers, tasks, usable_cpus()))


def pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in order, run by pool_size(workers, len(tasks))
    processes; in this process, starting none, when that size is 1."""
    size = pool_size(workers, len(tasks))
    if size == 1:
        return list(map(fn, tasks))
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))


class _Engine:
    """Backtracking search over prime values with symmetry breaking.

    Values are assigned in ascending prime order; after each assignment
    the components at newly-smooth indices are checked for repeats (and
    for the parity conditions of the requested class). Within a block the
    values must increase, f(2) must divide k, and in search mode f(3) is
    forced minimal under the scalars fixing f(2). Counting and searching
    are loops over the one walk in `_leaves`.
    """

    def __init__(self, k: int, cls: str, enforce_f3: bool):
        self.k = k
        self.enforce_f3 = enforce_f3
        self.qs = numtheory.primes(k)
        self.r = len(self.qs)
        part = blocks(k, cls)
        self.block_fact = 1
        for b in part.blocks:
            self.block_fact *= math.factorial(len(b))
        pred = {}
        for b in part.blocks:
            for prev, q in zip(b, b[1:]):
                pred[q] = prev
        qidx = {q: j for j, q in enumerate(self.qs)}
        self.pred = [qidx[pred[q]] if q in pred else -1 for q in self.qs]
        self.singleton_idx = [
            qidx[b[0]] for b in part.blocks if len(b) == 1
        ]
        self.new_items, self.mult_items = _prime_tables(
            k, self.qs, _parity_targets(k, cls)
        )
        # The tail: the last primes whose value moves their own index alone
        # (2q > k), with all of Z_k as candidates (not f(2), nor f(3) when
        # it is forced minimal) and no block reaching below them. Once the
        # primes before the tail are assigned, exactly len(tail) values are
        # unused, and every bijection onto them that keeps each block
        # increasing survives, so count weights each node at the tail start
        # by the number of those bijections instead of walking them.
        tail = self.r
        first_free = 2 if enforce_f3 else 1
        while tail > first_free and (
            self.new_items[tail - 1] == [(self.qs[tail - 1], 1, False)]
            and self.mult_items[tail - 1] == [(self.qs[tail - 1], 1)]
        ):
            tail -= 1
        while any(0 <= self.pred[j] < tail for j in range(tail, self.r)):
            tail += 1
        self.tail = tail
        # Singleton tail primes are enumerated so that _check_representative
        # sees each of their values. Every other tail prime has k // q = 1,
        # so they form one block and take the values left over in the one
        # increasing order.
        self.tail_singles = [j for j in self.singleton_idx if j >= tail]
        self.f2_candidates = [d for d in numtheory.divisors(k) if d < k]
        self.units = [a for a in range(1, k) if math.gcd(a, k) == 1]
        self._stab_cache: dict[int, list[int]] = {}
        self.partial = [0] * (k + 1)
        self.used = bytearray(k)
        self.used[0] = 1  # f(1) = 0 is always taken
        self.assigned = [0] * self.r

    def _stab(self, f2: int) -> list[int]:
        cached = self._stab_cache.get(f2)
        if cached is None:
            cached = [a for a in self.units if a * f2 % self.k == f2]
            self._stab_cache[f2] = cached
        return cached

    def _candidates(self, j: int) -> list[int]:
        k = self.k
        q = self.qs[j]
        if q == 2:
            base = self.f2_candidates
        elif q == 3 and self.enforce_f3:
            stab = self._stab(self.assigned[0])
            base = [
                v for v in range(k) if all(a * v % k >= v for a in stab)
            ]
        else:
            base = range(k)
        if self.pred[j] >= 0:
            lo = self.assigned[self.pred[j]] + 1
            return [v for v in base if v >= lo]
        return list(base)

    def _check_representative(self):
        # The scalars fixing f(2) must move the singleton-prime values to
        # pairwise distinct vectors, otherwise a class would be counted
        # more than once.
        k = self.k
        sing = [self.assigned[j] for j in self.singleton_idx]
        seen = set()
        for a in self._stab(self.assigned[0]):
            t = tuple(a * s % k for s in sing)
            if t in seen:
                raise CountingError(
                    f"singleton values {sing} collide under scaling (k={k})"
                )
            seen.add(t)

    def _leaves(self, j: int, depth: int, prefix: tuple[int, ...] = ()):
        """Yield once per surviving assignment of primes j..depth-1.

        While the generator is suspended the assignment is in
        self.assigned[:depth]; values given in `prefix` are forced rather
        than enumerated. A walk run to the end restores the state.
        """
        if j == depth:
            yield
            return
        k = self.k
        partial = self.partial
        used = self.used
        mult = self.mult_items[j]
        cands = (prefix[j],) if j < len(prefix) else self._candidates(j)
        for v in cands:
            vals = []
            for m, e, needs_even in self.new_items[j]:
                val = (partial[m] + e * v) % k
                if used[val] or (needs_even and val & 1):
                    break
                used[val] = 1
                vals.append(val)
            else:
                for m, e in mult:
                    partial[m] = (partial[m] + e * v) % k
                self.assigned[j] = v
                yield from self._leaves(j + 1, depth, prefix)
                for m, e in mult:
                    partial[m] = (partial[m] - e * v) % k
            for val in vals:
                used[val] = 0

    def _logfn(self) -> LogFn:
        return eval_vector(self.k, dict(zip(self.qs, self.assigned)))

    def count(self, f2: int) -> int:
        """Number of class members with f(2) = f2: each representative
        stands for phi(k/f2) scalings times the block orderings."""
        k = self.k
        used = self.used
        assigned = self.assigned
        singles = self.tail_singles
        weight = numtheory.euler_phi(k // f2) * self.block_fact
        total = 0
        for _ in self._leaves(0, self.tail, (f2,)):
            free = [v for v in range(k) if not used[v]] if singles else ()
            for vals in permutations(free, len(singles)):
                for j, v in zip(singles, vals):
                    assigned[j] = v
                self._check_representative()
                total += weight
        return total

    def search_many(self, limit: int) -> list[LogFn]:
        return [self._logfn() for _ in islice(self._leaves(0, self.r), limit)]


def search(k: int, cls: str = LOG) -> LogFn | None:
    """First logarithm of the requested class in lexicographic order,
    or None when none exists."""
    found = search_many(k, cls, 1)
    return found[0] if found else None


def search_many(k: int, cls: str = LOG, limit: int = 8) -> list[LogFn]:
    """Up to `limit` class representatives in lexicographic search order."""
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if k < 1:
        raise OutOfRange("k must be >= 1")
    if limit < 1:
        return []
    return _Engine(k, cls, enforce_f3=True).search_many(limit)


def _count_shard(args) -> int:
    k, cls, f2 = args
    return _Engine(k, cls, enforce_f3=False).count(f2)


def count(k: int, cls: str = LOG, max_k: int = DEFAULT_MAX_K, workers: int = 1) -> int:
    """Exact number of length-k functions of the given class.

    The count is a sum of one task per divisor f(2) < k, run by `pool_map`
    on at most `workers` processes (prime k has one task and runs
    in-process). Each search representative contributes phi(k/f(2)) times
    the product of the block-size factorials. The walk stops before the
    primes q > k/2 whose value moves index q alone: they share one block,
    so the values still unused go to them in increasing order, and only
    the values of singleton blocks among them are enumerated, for the
    representative check. A k below 1, workers below 1 or a k above the
    budget ceiling raise OutOfRange (BudgetExceeded for the budget), in
    that order; results are identical for any worker count.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if k < 1:
        raise OutOfRange("k must be >= 1")
    if workers < 1:
        raise OutOfRange("workers must be >= 1")
    if k > max_k:
        raise BudgetExceeded(f"k={k} exceeds the counting budget {max_k}")
    if k <= 2:
        return 1
    tasks = [(k, cls, f2) for f2 in numtheory.divisors(k)[:-1]]
    return sum(pool_map(_count_shard, tasks, workers))


def dlog_logfn(p: int, k: int) -> LogFn:
    """The length-k function q -> dlog(q) mod k, for the smallest
    primitive root alpha of the prime p, evaluated at every prime q <= k.

    With e = (p-1)/k, q**e is the k-th power character of q, the power
    zeta**(dlog(q) mod k) of zeta = alpha**e, which has order k. Raises
    ValueError unless k divides p-1: otherwise dlog mod k is not a
    homomorphism.
    """
    if (p - 1) % k:
        raise ValueError(f"k={k} does not divide p-1={p - 1}")
    e = (p - 1) // k
    zeta = pow(numtheory.primitive_root(p), e, p)
    index, power = {}, 1
    for i in range(k):
        index[power] = i
        power = power * zeta % p
    return eval_vector(k, {q: index[pow(q, e, p)] for q in numtheory.primes(k)})


def log_from_safe_prime(k: int) -> LogFn | None:
    """Discrete-log construction when 2k+1 or k+1 is prime.

    With p = 2k+1 the dlog is reduced from Z_2k onto Z_k and the result
    always satisfies the special parity conditions, so that route is
    preferred; with p = k+1 the map a -> dlog(a) mod p is itself a
    logarithm (special whenever 8 | k). Returns None when neither modulus
    is prime.
    """
    for p in (2 * k + 1, k + 1):
        if numtheory.is_prime(p):
            return dlog_logfn(p, k)
    return None


def image_stats(k: int) -> tuple[int, int]:
    """Exact (M_k, R_k): the largest image size of a logarithmic function of
    length k, and the largest y such that one is injective on the y-smooth
    part of {1..k}. Both are at most k, and a logarithm, injective on all of
    {1..k}, reaches k in both, so one found by `search` makes (k, k) exact."""
    if k > DEFAULT_IMAGE_MAX_K:
        raise BudgetExceeded(f"k={k} exceeds the image-statistics budget {DEFAULT_IMAGE_MAX_K}")
    if search(k) is None:
        raise NotBijective(f"no logarithm of length {k} exists")
    return k, k


def format_logfn(f: LogFn) -> str:
    """Serialize as ``k=<int>`` then ``q=<prime> f=<value>`` lines."""
    lines = [f"k={f.k}"]
    lines.extend(f"q={q} f={f.prime_values[q]}" for q in sorted(f.prime_values))
    return "\n".join(lines) + "\n"


def parse_logfn(text: str) -> LogFn:
    k = None
    pv = {}
    for line in content_lines(text):
        if line.startswith("k="):
            k = int(line.split("=", 1)[1])
        else:
            q, value = parse_fields(line, "logarithm line", ("q", "f"))
            pv[q] = value
    if k is None:
        raise ValueError("missing 'k=<int>' line")
    return eval_vector(k, pv)
