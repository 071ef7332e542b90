"""Multiplier blocks in Z_p*, cover plans, and the cover-to-sequence builder.

A block B(d) = d*{+-1..+-k} collects the differences realized at distance
<= k by the arithmetic progression with step d. Covering all of Z_p* with
such blocks yields a p-ary k-radius sequence of length |D|(p+k-1)+1 by
splicing one progression segment per multiplier.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import kradius, numtheory, sequences
from .errors import CoverIncomplete, NotKRadiusPrime
from .sequences import _TABLE_REPEATS, RadiusSequence, content_lines, parse_fields, residue_table


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

    @property
    def length(self) -> int:
        """|D|(p+k-1)+1, the length of the plan's spliced sequence."""
        return len(self.multipliers) * (self.p + self.k - 1) + 1

    @cached_property
    def covers(self) -> bool:
        """verify_cover's verdict, computed once per plan: a plan is
        immutable, so sequence_from_cover and check_pieces share it."""
        return verify_cover(self)[0]


def block_B(d: int, k: int, p: int) -> set[int]:
    """The 2k-element set d*{+-1,...,+-k} mod p: block_A and its negations."""
    a = block_A(d, k, p)
    return a | {p - x for x in a}


def block_A(d: int, k: int, p: int) -> set[int]:
    """The k-element set d*{1,...,k} mod p."""
    if p < 2 * k + 1:
        raise ValueError(f"need p >= 2k+1, got p={p}, k={k}")
    d %= p
    if d == 0:
        raise ValueError("multiplier must be nonzero mod p")
    return {i * d % p for i in range(1, k + 1)}


def _copies(plan: CoverPlan) -> int:
    """Copies of 0..p-1 in the residue table: never longer than the splice."""
    return min(_TABLE_REPEATS, len(plan.multipliers))


def verify_cover(plan: CoverPlan) -> tuple[bool, set[int]]:
    """Check that the union of the plan's blocks is all of Z_p*."""
    covered = set()
    for d in plan.multipliers:
        covered |= block_B(d, plan.k, plan.p)
    uncovered = set(range(1, plan.p)) - covered
    return not uncovered, uncovered


def irredundant(plan: CoverPlan) -> CoverPlan:
    """The plan without each multiplier, taken in the plan's order, whose
    block B(d) is covered by the multipliers still kept.

    A residue x lies in B(d) exactly when p-x does, so the pass counts,
    for each pair {x, p-x}, the kept blocks that hold it; B(d) holds k
    such pairs, as p >= 2k+1. A multiplier is dropped when every pair of
    its block is counted at least twice, and its counts go down. A kept
    multiplier holds a pair counted once, which no later drop can touch,
    so the result is irredundant: dropping any one of its multipliers
    uncovers some residue. It covers what the plan covers, keeps the
    plan's order, and costs O(|D|*k).
    """
    p, k = plan.p, plan.k
    blocks = [[min(x, p - x) for x in (j * d % p for j in range(1, k + 1))]
              for d in plan.multipliers]
    count = [0] * p
    for block in blocks:
        for x in block:
            count[x] += 1
    kept = []
    for d, block in zip(plan.multipliers, blocks):
        if min(map(count.__getitem__, block)) > 1:
            for x in block:
                count[x] -= 1
        else:
            kept.append(d)
    return CoverPlan(p, k, tuple(kept))


def plan_pieces(plan: CoverPlan, start: int = 0, chunk: int | None = None):
    """Yield the plan's splice from residue `start` as (start, stop, step)
    triples into the residue table, min(_TABLE_REPEATS, |D|) copies of
    0..p-1. Segment i is the p+k terms of the step-d_i progression from its
    junction: `start`, or the last term of the segment before, after which
    it starts. Each piece is the longest slice that ends inside the table
    and holds at most `chunk` terms (no cap for None), about
    d_i/_TABLE_REPEATS a segment. check_pieces certifies them."""
    p, k = plan.p, plan.k
    last = p * _copies(plan) - 1
    chunk = chunk or p + k
    junction, lo = start, 0
    for d in plan.multipliers:
        s, left = (junction + lo * d) % p, p + k - lo
        while left:
            m = min(left, (last - s) // d + 1, chunk)
            yield s, s + m * d, d
            s, left = (s + m * d) % p, left - m
        junction, lo = (s - d) % p, 1


def check_pieces(plan: CoverPlan, pieces) -> int | None:
    """The splice certificate, on the triples alone: None when `pieces`,
    (start, stop, step) triples into the residue table laid end to end,
    spell out a splice of `plan`, else -1 for a plan that does not cover,
    a partial triple or one past the last segment, else the first failing
    segment. Segment i passes when each of its triples has step d_i, holds
    a term, lies inside the table and starts, mod p, where the one before
    stopped, and they hold p+k terms (segment 0) or p+k-1 from one step
    past the last term of the segment before. Table entry x is x mod p, so
    each segment with that junction is a step-d_i progression of p+k
    terms, holding each pair {x, x + j*d_i}, j <= k, within distance j: a
    cover makes that every pair, so sequences.verify would accept the
    splice. O(pieces + |D|*k)."""
    p, k = plan.p, plan.k
    if len(pieces) % 3 or not plan.covers:
        return -1
    last = p * _copies(plan) - 1
    triples = zip(*[iter(pieces)] * 3)
    # segment 0 starts where its first triple does
    junction, lo = (pieces[0] % p if pieces else 0), 0
    for i, d in enumerate(plan.multipliers):
        # `at` is where the last triple stopped, mod p
        at, left = (junction + lo * d) % p, p + k - lo
        while left:
            # a missing triple fails: no multiplier is 0
            s, stop, step = next(triples, (-1, 0, 0))
            m = len(range(s, stop, d))
            if step != d or not 0 < m <= left or s < 0 or s + (m - 1) * d > last or s % p != at:
                return i
            at, left = (s + m * d) % p, left - m
        junction, lo = (at - d) % p, 1
    return None if next(triples, None) is None else -1


def sequence_from_cover(plan: CoverPlan) -> RadiusSequence:
    """Splice one progression segment per multiplier into a k-radius
    sequence of length ``plan.length``: the pieces of plan_pieces(plan),
    each copied in C from its strided slice of the residue table."""
    if not plan.covers:
        raise CoverIncomplete(f"plan for p={plan.p}, k={plan.k} does not cover Z_p*")
    table = residue_table(plan.p, _copies(plan))
    symbols = array("I")
    for s, stop, d in plan_pieces(plan):
        symbols += table[s:stop:d]
    seq = RadiusSequence(plan.p, plan.k, symbols)
    if len(seq) != plan.length:
        raise AssertionError("constructed length deviates from plan.length")
    return seq


def check_splice(plan: CoverPlan, seq: RadiusSequence) -> int | None:
    """None when `seq`, a sequence read from outside, is a certified
    splice of `plan`, else -1 for a plan that does not cover Z_p* or a
    sequence whose n, k or length is not the plan's, otherwise the index
    of the first failing segment; segment i holds positions
    [i(p+k-1), i(p+k-1)+p+k). `seq` passes when it equals, slice against
    table slice in C, the certified plan_pieces from its first symbol."""
    p, k = plan.p, plan.k
    if (seq.n, seq.k, len(seq)) != (p, k, plan.length) or not plan.covers:
        return -1
    symbols = seq.symbols
    if symbols[0] >= p:
        return 0
    pieces = array("q", chain.from_iterable(plan_pieces(plan, symbols[0])))
    failed = check_pieces(plan, pieces)
    if failed is not None:
        return failed
    table = residue_table(p, _copies(plan))
    at = 0
    for s, stop, d in zip(*[iter(pieces)] * 3):
        run = table[s:stop:d]
        if symbols[at:at + len(run)] != run:
            # a piece lies inside one segment
            return max(0, (at - 1) // (p + k - 1))
        at += len(run)
    return None


def shrink_labels(plan: CoverPlan, pieces, x: int) -> tuple[list, int]:
    """The labels that sequences._drop_frequent(seq, x) gives the residues
    of `seq`, the splice that certified `pieces` spell out (None for a
    dropped one), and the length of the sequence it leaves. Residue r
    occurs |D| times plus once per r among the first k terms of each
    segment, junctions left out, which each segment's first triple gives."""
    p, k = plan.p, plan.k
    freq = [len(plan.multipliers)] * p
    at = first = 0  # the positions of the next triple and the next segment
    for s, stop, d in zip(*[iter(pieces)] * 3):
        if at == first:
            lo = at > 0
            for j in range(k - lo):
                freq[(s + j * d) % p] += 1
            first += p + k - lo
        at += len(range(s, stop, d))
    labels = sequences._relabelling(freq, x)
    return labels, sum(f for f, label in zip(freq, labels) if label is not None)


def splice_runs(plan: CoverPlan, pieces: array, labels, sep: str):
    """Yield the symbols of the splice that certified `pieces` spell out,
    residue r written as labels[r] (left out where that is None), joined by
    `sep` in runs of one piece: every run after the first starts with
    `sep`. Each run is ``"".join(names[start:stop:step])`` over the residue
    table's layout of names, each with its `sep` in front, so Python makes
    one step per piece, not one per symbol."""
    names = [sep + str(label) if label is not None else "" for label in labels] * _copies(plan)
    lead = len(sep)  # the first run's, cut off
    triples = iter(pieces)
    for start, stop, step in zip(triples, triples, triples):
        run = "".join(names[start:stop:step])
        if run:
            yield run[lead:]
            lead = 0


def coset_minima(p: int, subgroup) -> list[int]:
    """Ascending minima of the cosets of +-H in Z_p*, H the given subgroup.

    When -1 is in H every coset of H is its own negation and each coset's
    minimum is returned; otherwise only the smaller minimum of each pair
    {C, -C}.
    """
    seen = bytearray(p)
    minima = []
    for c in range(1, p):
        if seen[c]:
            continue
        minima.append(c)
        for h in subgroup:
            x = c * h % p
            seen[x] = seen[p - x] = 1
    return minima


def two_radius_cover(p: int) -> CoverPlan:
    """Cover of Z_p* with k=2 driven by the multiplicative order of 2.

    With l = ord_2(p) and t = (p-1)/l the plan has (t/2)*(l+1)/2
    multipliers when l is odd, and t*ceil(l/4) multipliers when l is even.
    """
    if p < 5 or not numtheory.is_prime(p):
        raise ValueError("need an odd prime p >= 5")
    order = numtheory.multiplicative_order(2, p)
    # With l odd, -1 is not in <2>: each minimum c stands for a pair
    # {C, -C}, which the (l+1)/2 even powers of 2 from c cover. With l
    # even, 2**(l/2) = -1 and ceil(l/4) even powers cover each coset.
    steps = (order + 1) // 2 if order % 2 == 1 else -(-order // 4)
    powers = [pow(2, i, p) for i in range(order)]
    multipliers = tuple(
        c * pow(2, 2 * i, p) % p for c in coset_minima(p, powers) for i in range(steps)
    )
    return CoverPlan(p, 2, multipliers)


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
    for line in content_lines(text):
        if header is None:
            header = parse_fields(line, "cover header", ("p", "k"))
        else:
            multipliers.append(int(line))
    if header is None:
        raise ValueError("missing 'p=<int> k=<int>' header")
    return CoverPlan(header[0], header[1], tuple(multipliers))
