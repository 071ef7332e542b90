"""Exact modular and lattice arithmetic underpinning every construction.

Everything here is pure integer / rational arithmetic: deterministic
primality, orders, Legendre symbols, primitive roots, baby-step
giant-step discrete logs, the integer relation lattice of units mod p
read off one walk over the subgroup they generate, and LLL reduction
with exact Gram-Schmidt coefficients (the one use of Fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NoSolution

# Witnesses 2..37 make Miller-Rabin deterministic for all n < 3.3 * 10^24,
# comfortably covering the 64-bit range this library targets.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The classical Lovasz condition parameter of lll_reduce.
LOVASZ_DELTA = Fraction(3, 4)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit: int) -> bytearray:
    """Flags[i] == 1 iff i is prime, for 0 <= i <= limit."""
    flags = bytearray([1]) * (limit + 1) if limit >= 0 else bytearray()
    for i in range(min(1, limit) + 1):
        flags[i] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    flags = sieve(limit)
    return [i for i in range(2, limit + 1) if flags[i]]


def spf_table(k: int) -> list[int]:
    """spf[m] = smallest prime factor of m for 2 <= m <= k (spf[0] = 0,
    spf[1] = 1)."""
    spf = list(range(k + 1))
    for i in range(2, math.isqrt(k) + 1):
        if spf[i] == i:
            for j in range(i * i, k + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = n
    for p, _ in factorize(n):
        phi -= phi // p
    return phi


def prime_count(n: int) -> int:
    """pi(n): number of primes <= n."""
    if n < 2:
        return 0
    return sum(sieve(n))


def multiplicative_order(a: int, n: int) -> int:
    """Least l >= 1 with a**l == 1 mod n; requires gcd(a, n) == 1."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1: no multiplicative order")
    t = euler_phi(n)
    for p, _ in factorize(t):
        while t % p == 0 and pow(a, t // p, n) == 1:
            t //= p
    return t


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def primitive_root(p: int) -> int:
    """Smallest positive residue generating Z_p*, for prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    fac = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


def discrete_log(base: int, target: int, p: int) -> int:
    """Least x >= 0 with base**x == target mod p, by baby-step giant-step.

    Raises NoSolution when target is outside the subgroup generated by base.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    base %= p
    target %= p
    if base == 0 or target == 0:
        raise ValueError("base and target must be nonzero mod p")
    if target == 1:
        return 0
    d = multiplicative_order(base, p)
    m = math.isqrt(d) + 1
    baby = {}
    cur = 1
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * base % p
    giant = pow(base, -m, p)
    y = target
    for i in range(m + 1):
        j = baby.get(y)
        if j is not None:
            return (i * m + j) % d
        y = y * giant % p
    raise NoSolution(f"{target} is not a power of {base} mod {p}")


@dataclass(frozen=True)
class IntBasis:
    """Basis of a full-rank sublattice of Z^dim, stored as integer rows."""

    dim: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.dim or any(len(r) != self.dim for r in self.rows):
            raise ValueError("basis must be square")
        if self.dim > 0 and self.determinant() == 0:
            raise ValueError("basis rows are linearly dependent")

    def determinant(self) -> int:
        return determinant(self.rows)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def relation_lattice(gens, p: int) -> tuple[IntBasis, dict[int, tuple[int, ...]]]:
    """Relation lattice {v in Z^r : prod(g_i ** v_i) == 1 mod p} of units
    g_1..g_r mod p, and an exponent vector for each h in H = <g_1..g_r>.

    With H_i = <g_i..g_r>, d_i is the least d >= 1 with g_i**d in H_{i+1},
    and each h in H_i is g_i**s * h' for exactly one s < d_i and h' in
    H_{i+1}. Walking the generators from last to first thus gives every h
    one box vector v (0 <= v_i < d_i) and row i = d_i * e_i plus the box
    vector of g_i**-d_i. The rows are the lattice's row-style Hermite
    normal form: upper triangular, pivots d_i, entries above each pivot in
    [0, pivot). Their determinant prod(d_i) is |H|.
    """
    if any(math.gcd(g, p) != 1 for g in gens):
        raise ValueError(f"generators must be units mod {p}")
    r = len(gens)
    vec_of: dict[int, tuple[int, ...]] = {1: ()}
    rows = []
    for i in reversed(range(r)):
        g = gens[i] % p
        x, d = g, 1
        while x not in vec_of:
            x = x * g % p
            d += 1
        rows.append((0,) * i + (d,) + vec_of[pow(x, -1, p)])
        powers = [pow(g, s, p) for s in range(d)]
        vec_of = {gs * h % p: (s,) + v for s, gs in enumerate(powers) for h, v in vec_of.items()}
    return IntBasis(r, tuple(reversed(rows))), vec_of


def _gram_schmidt(b: list[list[int]]):
    n = len(b)
    ortho: list[list[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            denom = _dot(ortho[j], ortho[j])
            if denom == 0:
                raise ValueError("rank-deficient basis")
            mu[i][j] = _dot(b[i], ortho[j]) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, ortho[j])]
        if all(x == 0 for x in v):
            raise ValueError("rank-deficient basis")
        ortho.append(v)
    return ortho, mu


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll_reduce(basis: IntBasis) -> IntBasis:
    """LLL-reduce an integer basis with exact rational arithmetic.

    Returns a basis of the same lattice whose rows are sorted by
    Euclidean length ascending; with the classical Lovasz parameter
    LOVASZ_DELTA = 3/4 the product of the row norms is at most
    2**(r(r-1)/4) * |det|.
    """
    n = basis.dim
    if n == 0:
        return basis
    b = [list(r) for r in basis.rows]
    ortho, mu = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in reversed(range(k)):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                ortho, mu = _gram_schmidt(b)
        if _dot(ortho[k], ortho[k]) >= (LOVASZ_DELTA - mu[k][k - 1] ** 2) * _dot(
            ortho[k - 1], ortho[k - 1]
        ):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    b.sort(key=lambda row: sum(x * x for x in row))
    return IntBasis(n, tuple(tuple(row) for row in b))
