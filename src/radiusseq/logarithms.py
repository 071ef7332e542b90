"""Logarithmic functions of length k: search, classification, exact counting.

A logarithmic function maps {1..k} into Z_k with f(ab) = f(a) + f(b)
whenever ab <= k, so it is determined by its values at the primes <= k.
A logarithm is a bijective logarithmic function.

One backtracking engine walks the representatives of the symmetry
classes (value-sorted blocks of interchangeable primes, f(2) scaled onto
a divisor of k). Each node of the walk holds the values taken so far as
the bits of an int and reduces a prime q's candidates to one k-bit mask,
an AND of the free values rotated right by f(m/q) for each index m that q
fixes, so dead ends are cut before they are entered. The walk stops at its last prime with that
prime's mask, which serves two uses: counting adds the mask's popcount
times each representative's exact class size, which reproduces the known
counts for k <= 42, and stops before the top block of primes above k/2
(they take the values left over in increasing order) instead of walking
it; search takes the mask's values in ascending order and returns the
first representative (or the first N) in lexicographic order. A count is
a sum of one task per value of f(2); `sequences.pool_map` runs them, like
a prime scan's intervals, in this process and in forked children.
`dlog_logfn` reads the function q -> dlog(q) mod k off the k-th power
character of a prime modulus, and `image_stats` answers from `search`: a
logarithm has the largest image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from . import numtheory
from .errors import BudgetExceeded, CountingError, NotBijective, OutOfRange
from .sequences import content_lines, parse_fields, pool_map

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
    """Per prime q <= k, the indices m <= k whose values it fixes.

    new_items[j] holds (m, s, e, m in targets) for each m whose largest
    prime factor is qs[j], where e is the exponent of qs[j] in m and
    s = m // qs[j]**e is already fixed by the smaller primes, so that
    f(m) = f(s) + e * f(qs[j]).
    """
    spf = numtheory.spf_table(k)
    lpf = [0] * (k + 1)
    for m in range(2, k + 1):
        lpf[m] = max(lpf[m // spf[m]], spf[m])
    new_items: list[list[tuple[int, int, int, bool]]] = []
    for q in qs:
        new = []
        for m in range(q, k + 1, q):
            if lpf[m] != q:
                continue
            e = 0
            s = m
            while s % q == 0:
                s //= q
                e += 1
            new.append((m, s, e, m in targets))
        new_items.append(new)
    return new_items


def _bits(mask: int):
    """The set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Engine:
    """Backtracking search over prime values with symmetry breaking.

    Values are assigned in ascending prime order. The values taken so far
    (f(1) = 0 and every index whose largest prime factor is assigned) are
    the bits of an int passed down the walk, and each node computes the
    k-bit mask of the values its prime can still take: an index m that the
    prime q fixes with exponent 1 takes f(m/q) + f(q), so the free values
    rotated right by f(m/q) (the even free values, where the class needs
    f(m) even) hold the allowed f(q); the mask is the AND of these
    rotations and of the base set: f(2) a divisor of k, f(3) minimal under
    the scalars fixing f(2) when enforced (cached per f(2)), and within a
    block values above the previous prime's. Values fixed with e > 1 (only
    for q <= sqrt(k)) are checked one candidate at a time. Two e = 1
    indices never share a base value, as those bases are distinct indices
    already fixed injectively. Counting and searching are loops over the
    one walk in `_leaves`.
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
        new_items = _prime_tables(k, self.qs, _parity_targets(k, cls))
        # Per prime, the bases s of the indices it fixes with e = 1: those
        # with any value, then those whose index needs an even value.
        self.plain = [[s for _, s, e, ev in new if e == 1 and not ev] for new in new_items]
        self.evens = [[s for _, s, e, ev in new if e == 1 and ev] for new in new_items]
        # The indices fixed with e > 1, and those whose value a later
        # prime reads as a base.
        self.heavy = [[item for item in new if item[2] > 1] for new in new_items]
        bases = {s for new in new_items for _, s, _, _ in new}
        self.keep = [[(m, s, e) for m, s, e, _ in new if m in bases] for new in new_items]
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
            new_items[tail - 1] == [(self.qs[tail - 1], 1, 1, False)]
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
        self.full = (1 << k) - 1
        self.even_values = sum(1 << v for v in range(0, k, 2))
        self.f2_mask = sum(1 << d for d in numtheory.divisors(k) if d < k)
        self.units = [a for a in range(1, k) if math.gcd(a, k) == 1]
        self._stab_cache: dict[int, list[int]] = {}
        self._f3_cache: dict[int, int] = {}
        self.value = [0] * (k + 1)
        # Per prime, the values f(m/q) of its e = 1 bases as bits, twice
        # over (bits v and v + k), so that a shift rotates them; see _take.
        self.spread = [0] * self.r
        self.assigned = [0] * self.r

    def _stab(self, f2: int) -> list[int]:
        cached = self._stab_cache.get(f2)
        if cached is None:
            cached = [a for a in self.units if a * f2 % self.k == f2]
            self._stab_cache[f2] = cached
        return cached

    def _f3_mask(self, f2: int) -> int:
        # f(3) minimal in its orbit under the scalars fixing f(2)
        cached = self._f3_cache.get(f2)
        if cached is None:
            k = self.k
            stab = self._stab(f2)
            cached = sum(
                1 << v for v in range(k) if all(a * v % k >= v for a in stab)
            )
            self._f3_cache[f2] = cached
        return cached

    def _mask(self, j: int, used: int, prefix: tuple[int, ...]) -> int:
        """The values prime j can take, as bits, with `used` taken so far;
        the value in `prefix` is the only candidate when j < len(prefix)."""
        k = self.k
        q = self.qs[j]
        if j < len(prefix):
            mask = 1 << prefix[j]
        elif q == 2:
            mask = self.f2_mask
        elif q == 3 and self.enforce_f3:
            mask = self._f3_mask(self.assigned[0])
        else:
            mask = self.full
        if self.pred[j] >= 0:
            lo = self.assigned[self.pred[j]] + 1
            mask = mask >> lo << lo
        value = self.value
        spread = 0
        free = self.full ^ used
        for bases, ok in ((self.plain[j], free), (self.evens[j], free & self.even_values)):
            twice = ok | ok << k
            for s in bases:
                c = value[s]
                spread |= 1 << c
                mask &= twice >> c
        self.spread[j] = spread | spread << k
        if self.heavy[j]:
            mask = sum(1 << v for v in _bits(mask) if self._take(j, v, used))
        return mask

    def _take(self, j: int, v: int, used: int) -> int:
        """Fix the indices of prime j for f(qs[j]) = v; return `used` with
        their values added, or 0 when a value fixed with e > 1 is taken or
        breaks parity. The e = 1 values, f(m/q) + v, are `spread` rotated
        left by v, and `_mask` has already checked them."""
        k = self.k
        value = self.value
        used |= self.spread[j] >> (k - v) & self.full
        for _, s, e, needs_even in self.heavy[j]:
            val = (value[s] + e * v) % k
            bit = 1 << val
            if used & bit or (needs_even and val & 1):
                return 0
            used |= bit
        for m, s, e in self.keep[j]:
            value[m] = (value[s] + e * v) % k
        return used

    def _check_representative(self):
        # The scalars fixing f(2) must move the singleton-prime values to
        # pairwise distinct vectors, otherwise a class would be counted
        # more than once. They form a group, so two of them agree on the
        # vector exactly when one scalar other than 1 fixes every value.
        k = self.k
        sing = [self.assigned[j] for j in self.singleton_idx]
        for a in self._stab(self.assigned[0])[1:]:
            if all(a * s % k == s for s in sing):
                raise CountingError(
                    f"singleton values {sing} collide under scaling (k={k})"
                )

    def _leaves(self, depth: int, prefix: tuple[int, ...] = ()):
        """Yield (mask, used) once per surviving assignment of primes
        0..depth-2 that leaves prime depth-1 some value: mask holds those
        values, and used the values taken before it (bit 0 is f(1) = 0).

        While the generator is suspended the assignment is in
        self.assigned[:depth-1]; values given in `prefix` are forced rather
        than enumerated. Each level keeps the values it has yet to try.
        """
        last = depth - 1
        assigned = self.assigned
        masks = [0] * depth
        useds = [1] * depth
        masks[0] = self._mask(0, 1, prefix)
        j = 0
        while j >= 0:
            mask = masks[j]
            if j == last or not mask:
                if mask:
                    yield mask, useds[j]
                j -= 1
                continue
            low = mask & -mask
            masks[j] = mask ^ low
            v = low.bit_length() - 1
            assigned[j] = v
            used = self._take(j, v, useds[j])
            j += 1
            useds[j] = used
            masks[j] = self._mask(j, used, prefix)

    def _logfn(self) -> LogFn:
        return eval_vector(self.k, dict(zip(self.qs, self.assigned)))

    def count(self, f2: int) -> int:
        """Number of class members with f(2) = f2: each representative
        stands for phi(k/f2) scalings times the block orderings.

        Each node of the walk adds weight times the values its last prime
        can take, and the representative check runs once per distinct
        singleton assignment: once per node, or once per value when the
        last walked prime or a tail prime is a singleton.
        """
        k = self.k
        assigned = self.assigned
        singles = self.tail_singles
        last = self.tail - 1
        per_value = bool(singles) or last in self.singleton_idx
        weight = numtheory.euler_phi(k // f2) * self.block_fact
        total = 0
        for mask, used in self._leaves(self.tail, (f2,)):
            if not per_value:
                self._check_representative()
                total += weight * mask.bit_count()
                continue
            for v in _bits(mask):
                assigned[last] = v
                if singles:
                    taken = self._take(last, v, used)
                    free = [u for u in range(k) if not taken >> u & 1]
                else:
                    free = ()
                for vals in permutations(free, len(singles)):
                    for j, u in zip(singles, vals):
                        assigned[j] = u
                    self._check_representative()
                    total += weight
        return total

    def search_many(self, limit: int) -> list[LogFn]:
        if not self.r:
            return [self._logfn()]
        found = []
        for mask, _ in self._leaves(self.r):
            for v in _bits(mask):
                self.assigned[-1] = v
                found.append(self._logfn())
                if len(found) == limit:
                    return found
        return found


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


def count(k: int, cls: str = LOG, max_k: int = DEFAULT_MAX_K, workers: int = 1) -> int:
    """Exact number of length-k functions of the given class.

    The count is a sum of one walk of one engine per divisor f(2) < k, run
    by `pool_map` on at most `workers` processes (prime k has one task and
    runs in this process). Each representative contributes phi(k/f(2)) times
    the product of the block-size factorials, and the walk adds these for
    all values of its last prime at once, by the popcount of that prime's
    candidate mask. The walk stops before the primes q > k/2 whose value
    moves index q alone: they share one block, so the values still unused
    go to them in increasing order, and only the values of singleton
    blocks among them are enumerated. The representative check (no two
    scalars fixing f(2) move the singleton values alike) runs once per
    distinct singleton assignment. A k below 1, workers below 1 or a k
    above the budget ceiling raise OutOfRange (BudgetExceeded for the
    budget), in that order; results are identical for any worker count.
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
    engine = _Engine(k, cls, enforce_f3=False)
    return sum(pool_map(engine.count, numtheory.divisors(k)[:-1], workers))


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
