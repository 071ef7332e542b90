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

from . import kradius, numtheory, sequences
from .errors import CoverIncomplete, NotKRadiusPrime
from .sequences import RadiusSequence, content_lines, parse_fields

# copies of 0..p-1 in sequence_from_cover's residue table: on the tiling
# covers at p = 1,319 to 7,079, 16 spliced 2-4x slower, and 256 was no
# faster from p = 3,359 on with a table 4x the size
_TABLE_REPEATS = 64


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
        immutable, so sequence_from_cover and splice_pieces share it."""
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


def sequence_from_cover(plan: CoverPlan) -> RadiusSequence:
    """Splice one progression segment per multiplier into a k-radius sequence.

    Segment i is the p+k terms (a_i+j)*d_i mod p, j = 0..p+k-1, of the
    step-d_i progression, with its phase in closed form: a_i =
    start*d_i^-1 mod p makes its first term the junction value start (0
    for the first segment), and the next junction is (a_i+p+k-1)*d_i mod p.
    Every later segment starts one step on, which merges the repeated
    junction away. Each segment is copied from strided slices of one
    residue table, min(_TABLE_REPEATS, |D|) copies of 0..p-1, in which
    ``table[s : s + m*d : d]`` is m consecutive terms of the step-d
    progression from residue s. The array copies them in C, so no int is
    made per symbol, and a segment takes about d/_TABLE_REPEATS slices.
    The result has length exactly ``plan.length``, |D|(p+k-1)+1.
    """
    if not plan.covers:
        raise CoverIncomplete(f"plan for p={plan.p}, k={plan.k} does not cover Z_p*")
    p, k = plan.p, plan.k
    # entry i is i mod p
    table = array("I", range(p)) * _copies(plan)
    last = len(table) - 1
    symbols = array("I")
    start = lo = 0
    for d in plan.multipliers:
        a = start * pow(d, -1, p) % p
        s = (a + lo) * d % p
        left = p + k - lo
        while left:
            # the longest slice from s that ends inside the table
            m = min(left, (last - s) // d + 1)
            symbols += table[s:s + m * d:d]
            s = (s + m * d) % p
            left -= m
        start = (a + p + k - 1) * d % p
        lo = 1
    seq = RadiusSequence(p, k, symbols)
    if len(seq) != plan.length:
        raise AssertionError("constructed length deviates from plan.length")
    return seq


def splice_pieces(plan: CoverPlan, seq: RadiusSequence) -> tuple[int | None, array]:
    """check_splice's verdict on `seq`, and the pieces it compared.

    The pieces are slices of the residue table, ``array("I", range(p))
    * _copies(plan)``, whose terms in order are the symbols of `seq`: an
    array of (start, stop, step) triples, each ``table[start:stop:step]``
    compared equal to the symbols at its place. None spans more than
    sequences._WRITE_CHUNK symbols, and none holds the first symbol of a
    later segment, which is the last of the one before. The array is
    empty unless the verdict is None; it holds 24 bytes a piece, and
    segment i takes about d_i/_TABLE_REPEATS pieces.
    """
    p, k = plan.p, plan.k
    if (seq.n, seq.k, len(seq)) != (p, k, plan.length) or not plan.covers:
        return -1, array("q")
    table = array("I", range(p)) * _copies(plan)
    last = len(table) - 1
    symbols = seq.symbols
    pieces = array("q")
    at = lo = 0
    for i, d in enumerate(plan.multipliers):
        # segment 0 runs from its own first symbol, which fails the
        # comparison at or past p, as the table holds residues only; a
        # later one from one step past the last symbol compared before it
        s = (symbols[at - lo] + lo * d) % p
        end = at + p + k - lo
        while at < end:
            # the longest slice from s that ends inside the table
            m = min(end - at, (last - s) // d + 1, sequences._WRITE_CHUNK)
            if symbols[at:at + m] != table[s:s + m * d:d]:
                return i, array("q")
            pieces.extend((s, s + m * d, d))
            s = (s + m * d) % p
            at += m
        lo = 1
    return None, pieces


def check_splice(plan: CoverPlan, seq: RadiusSequence) -> int | None:
    """None when `seq` is a certified splice of `plan`, else what fails:
    -1 for a plan that does not cover Z_p* or a sequence whose n, k or
    length is not the plan's p, k and length, otherwise the index of the
    first failing segment.

    Segment i holds positions [i(p+k-1), i(p+k-1)+p+k), so consecutive
    segments share one symbol; it passes when its first symbol s is below
    p and it equals the step-d_i progression (s + j*d_i) mod p, j =
    0..p+k-1. Such a segment holds every pair {x, x + j*d_i}, 1 <= j <= k,
    within distance j, and a cover makes every pair of distinct residues
    one of these, so a certified splice is a p-ary k-radius sequence:
    sequences.verify would accept it. This costs O(length + |D|*k) and no
    pair table. Each segment is compared at C level, slice against the
    strided slices of sequence_from_cover's residue table, so Python makes
    about d_i/_TABLE_REPEATS steps per segment. Those slices are
    splice_pieces, from which construct prints a certified splice.
    """
    return splice_pieces(plan, seq)[0]


def shrink_labels(plan: CoverPlan, seq: RadiusSequence, x: int) -> tuple[list, int]:
    """The labels that sequences._drop_frequent(seq, x) gives the residues
    of `seq`, a certified splice of `plan` (None for a dropped one), and
    the length of the sequence it leaves.

    The frequencies are counted from |D|*k symbols: segment i's p+k terms
    hold every residue once plus its first k terms again, and a later
    segment's first term is the last of the one before, so residue r
    occurs |D| times plus once per symbol r at positions i(p+k-1) + j,
    (i > 0) <= j < k."""
    p, k = plan.p, plan.k
    freq = [len(plan.multipliers)] * p
    for i in range(len(plan.multipliers)):
        at = i * (p + k - 1)
        for s in seq.symbols[at + (i > 0):at + k]:
            freq[s] += 1
    labels = sequences._relabelling(freq, x)
    return labels, sum(f for f, label in zip(freq, labels) if label is not None)


def splice_runs(plan: CoverPlan, pieces: array, labels, sep: str):
    """Yield the symbols of the certified splice whose splice_pieces are
    `pieces`, residue r written as labels[r] (left out where that is
    None), joined by `sep` in runs of one piece: every run after the
    first starts with `sep`. Each run is ``"".join(names[start:stop:step])``
    over the residue table's layout of names, each name with its `sep` in
    front, so Python makes one step per piece, not one per symbol."""
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
