"""Multiplier blocks in Z_p*, cover plans, and the cover-to-sequence builder.

A block B(d) = d*{+-1..+-k} collects the differences realized at distance
<= k by the arithmetic progression with step d. Covering all of Z_p* with
such blocks yields a p-ary k-radius sequence of length |D|(p+k-1)+1 by
splicing one progression segment per multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kradius, numtheory
from .errors import CoverIncomplete, NotKRadiusPrime
from .sequences import RadiusSequence, parse_fields


@dataclass(frozen=True)
class CoverPlan:
    """A prime p, radius k, and multipliers whose blocks cover Z_p*."""

    p: int
    k: int
    multipliers: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2 * self.k + 1:
            raise ValueError(f"need p >= 2k+1, got p={self.p}, k={self.k}")
        if not numtheory.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "multipliers", tuple(self.multipliers))
        if len(set(self.multipliers)) != len(self.multipliers):
            raise ValueError("multipliers must be distinct")
        if any(not 1 <= d <= self.p - 1 for d in self.multipliers):
            raise ValueError("multipliers must lie in [1, p-1]")


def block_B(d: int, k: int, p: int) -> set[int]:
    """The 2k-element set d*{+-1,...,+-k} mod p."""
    if p < 2 * k + 1:
        raise ValueError(f"need p >= 2k+1, got p={p}, k={k}")
    d %= p
    if d == 0:
        raise ValueError("multiplier must be nonzero mod p")
    out = set()
    for i in range(1, k + 1):
        out.add(i * d % p)
        out.add(-i * d % p)
    return out


def block_A(d: int, k: int, p: int) -> set[int]:
    """The k-element set d*{1,...,k} mod p; block_B = block_A U -block_A."""
    if p < 2 * k + 1:
        raise ValueError(f"need p >= 2k+1, got p={p}, k={k}")
    d %= p
    if d == 0:
        raise ValueError("multiplier must be nonzero mod p")
    return {i * d % p for i in range(1, k + 1)}


def verify_cover(plan: CoverPlan) -> tuple[bool, set[int]]:
    """Check that the union of the plan's blocks is all of Z_p*."""
    covered = set()
    for d in plan.multipliers:
        covered |= block_B(d, plan.k, plan.p)
    uncovered = set(range(1, plan.p)) - covered
    return not uncovered, uncovered


def sequence_from_cover(plan: CoverPlan) -> RadiusSequence:
    """Splice one progression segment per multiplier into a k-radius sequence.

    Segment i consists of p+k consecutive terms of the step-d_i progression
    0, d_i, 2*d_i, ...; the phase of each later segment is chosen so its
    first term repeats the previous segment's last term, and the repeat is
    merged away. The result has length exactly |D|(p+k-1)+1.
    """
    ok, _ = verify_cover(plan)
    if not ok:
        raise CoverIncomplete(f"plan for p={plan.p}, k={plan.k} does not cover Z_p*")
    p, k = plan.p, plan.k
    symbols: list[int] = []
    start = 0
    for idx, d in enumerate(plan.multipliers):
        # Solve start == a*d mod p so the segment begins at the junction value.
        a = start * pow(d, -1, p) % p
        segment = [(a + j) * d % p for j in range(p + k)]
        symbols.extend(segment[1:] if idx > 0 else segment)
        start = segment[-1]
    seq = RadiusSequence(p, k, tuple(symbols))
    if len(seq) != len(plan.multipliers) * (p + k - 1) + 1:
        raise AssertionError("constructed length deviates from |D|(p+k-1)+1")
    return seq


def _cosets_of_two(p: int):
    """Cosets of the subgroup generated by 2 in Z_p*, ordered by smallest
    element; each coset starts at its minimum and walks by doubling."""
    order = numtheory.multiplicative_order(2, p)
    member = {}
    cosets = []
    for c in range(1, p):
        if c in member:
            continue
        coset = []
        x = c
        for _ in range(order):
            coset.append(x)
            member[x] = len(cosets)
            x = x * 2 % p
        cosets.append(coset)
    return order, cosets, member


def two_radius_cover(p: int) -> CoverPlan:
    """Cover of Z_p* with k=2 driven by the multiplicative order of 2.

    With l = ord_2(p) and t = (p-1)/l the plan has (t/2)*(l+1)/2
    multipliers when l is odd, and t*ceil(l/4) multipliers when l is even.
    """
    if p < 5 or not numtheory.is_prime(p):
        raise ValueError("need an odd prime p >= 5")
    order, cosets, member = _cosets_of_two(p)
    multipliers: list[int] = []
    if order % 2 == 1:
        # Cosets pair with their negations; use the one with the smaller
        # minimum and walk it by even powers of 2, covering the pair.
        paired = set()
        for idx, coset in enumerate(cosets):
            if idx in paired:
                continue
            neg = member[(-coset[0]) % p]
            if neg == idx:
                raise AssertionError("odd order of 2 forces -C != C")
            paired.add(idx)
            paired.add(neg)
            c = coset[0]
            for i in range((order + 1) // 2):
                multipliers.append(c * pow(2, 2 * i, p) % p)
    else:
        reach = -(-order // 4)  # ceil(l/4)
        for coset in cosets:
            c = coset[0]
            for j in range(reach):
                multipliers.append(c * pow(2, 2 * j, p) % p)
    return CoverPlan(p, 2, tuple(multipliers))


def two_radius_cover_size(p: int) -> int:
    """Closed-form size of the two_radius_cover plan."""
    order = numtheory.multiplicative_order(2, p)
    t = (p - 1) // order
    if order % 2 == 1:
        return (t // 2) * ((order + 1) // 2)
    return t * (-(-order // 4))


def prime_cover(p: int, k: int) -> CoverPlan:
    """Partition Z_p* into (p-1)/2k pairwise disjoint blocks.

    Requires p to be a k-radius prime; the multipliers are the powers
    alpha**(k*i) of the smallest primitive root alpha.
    """
    if not kradius.is_k_radius_prime(p, k):
        raise NotKRadiusPrime(f"{p} is not a {k}-radius prime")
    alpha = numtheory.primitive_root(p)
    count = (p - 1) // (2 * k)
    multipliers = tuple(pow(alpha, k * i, p) for i in range(count))
    return CoverPlan(p, k, multipliers)


def format_cover(plan: CoverPlan) -> str:
    """Serialize as one ``p=<int> k=<int>`` line then one residue per line."""
    lines = [f"p={plan.p} k={plan.k}"]
    lines.extend(str(d) for d in plan.multipliers)
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> CoverPlan:
    header = None
    multipliers = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = parse_fields(line, "cover header", ("p", "k"))
        else:
            multipliers.append(int(line))
    if header is None:
        raise ValueError("missing 'p=<int> k=<int>' header")
    return CoverPlan(header[0], header[1], tuple(multipliers))
