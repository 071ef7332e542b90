"""The k-radius sequence type, its verifier, bounds and basic constructions.

An n-ary k-radius sequence is a finite word over {0..n-1} in which every
pair of distinct alphabet symbols occurs somewhere at positions at most k
apart.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import threading
from array import array
from contextlib import suppress
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, mul, or_

from .errors import AlphabetViolation, NotVerified, OutOfRange, RadiusSeqError

# symbols per scatter block of verify up to reach 7, fewer beyond: a few
# small lists, never O(length)
_VERIFY_BLOCK = 4096
# pairs marked cell by cell from which verify marks the later positions in
# a forked child; the child's start paid for itself from about 120,000 cells
_SPLIT_CELLS = 200_000
# pair_rows gathers its cells in a set, not an n*n table, while _FILL times
# the cells it may mark stays below n*n. On random words at n = 500 to
# 9,239 the set's fold took 1.0-1.4x the table's time at one cell in 64
# of n*n, 0.8-1.0x at one in 96 and 0.6-0.8x at one in 128
_FILL = 96
# copies of 0..n-1 in the residue table that splices are cut from and that
# parsed stretches are compared with: on the tiling covers at p = 1,319 to
# 7,079, 16 spliced 2-4x slower, and 256 was no faster from p = 3,359 on
# with a table 4x the size
_TABLE_REPEATS = 64
# the terms of the first compare at each token where the parse tries a
# progression stretch
_RUN_PROBE = 8
# characters of text per alphabet symbol from which the parse builds its
# O(n) tables. They take about 870 bytes and 620 ns per symbol, so from here
# on they are smaller than the text; on a (2011, 3) prime splice the reader
# was as fast as the plain parse at 64 characters per symbol, 1.8x at 1,024
_READ_GATE = 1024
# the byte 0 or 1 of a marks cell as the digit "0" or "1", and a digit
# of a folded row back as 1 for a clear bit (a missing pair), 0 for a set one
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_CLEAR = bytes.maketrans(b"01", b"\1\0")
# missing_rows finds each clear bit of a row's digits with str.find while
# _FEW_CLEAR times their count stays within the row's width, and else
# lists the row with compress: the two cost the same at a clear bit in
# 8 to 16 of widths 100 to 9,000, and find was 7-47x faster at one bit.
# A splice missing a few pairs lists its rows of 1-3 clear bits in 1.7 ms
# by find, 12-19 ms by compress, at p = 2,011; a random word's rows, most
# past the cut, take 2.2 ms by compress and 2.9-3.2 ms by find
_FEW_CLEAR = 12
# symbols per written piece, and characters per parsed window of a long
# line: serializing and parsing hold O(these) Python objects, not O(length)
_WRITE_CHUNK = 1 << 16
_PARSE_WINDOW = 1 << 16
# the characters of a window that the JSON scanner may read
_PLAIN = b"0123456789 "
# the line boundaries of str.splitlines besides "\n", and all of them; each
# is whitespace to str.strip and to \s. _BREAK.search alone cuts any text,
# but scans it a character at a time: on the bench's p = 2,011 splice it
# took 14 ms to cut the lines against 1.0 ms for the test for these and
# str.find, and read_rows 40 against 26 ms; on the one-line (3000, 12)
# tiling, 145 against 12 ms (best of 9 and of 3)
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(f"[\n{_BREAKS}]")
_SPACE = re.compile(r"\s*")


def _outside(symbol: int, n: int) -> AlphabetViolation:
    return AlphabetViolation(f"symbol {symbol} outside alphabet of size {n}")


def _check_alphabet(symbols, n: int) -> None:
    """Raise AlphabetViolation naming the first of `symbols` (a list or an
    array) that is n or more."""
    if symbols and max(symbols) >= n:
        raise _outside(next(s for s in symbols if s >= n), n)


@dataclass(frozen=True)
class RadiusSequence:
    """A candidate n-ary k-radius sequence.

    The symbols are held in an ``array("I")``, 4 bytes each: an array of
    that type is kept as given, and any other iterable of ints is copied
    into one. A symbol that does not fit (negative, or at least 2**32)
    raises AlphabetViolation. An array is mutable, so a RadiusSequence is
    not hashable.
    """

    n: int
    k: int
    symbols: array

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.n > 1 << 32:
            raise ValueError("n must be at most 2**32, the range of a stored symbol")
        symbols = self.symbols
        if not (isinstance(symbols, array) and symbols.typecode == "I"):
            if iter(symbols) is symbols:
                symbols = list(symbols)  # one pass only; the error below reads it again
            try:
                symbols = array("I", symbols)
            except OverflowError:
                bad = next(s for s in symbols if not 0 <= s < self.n)
                raise _outside(bad, self.n) from None
            object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the installed count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, tasks: int) -> int:
    """Processes for pool_map to run `tasks` tasks on: at least 1, at most
    the tasks and the usable CPUs, and 1 without the "fork" start method
    or while another thread runs (a fork copies no thread but the
    caller's, so a lock another thread holds would stay locked)."""
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return max(1, min(workers, tasks, usable_cpus()))


def _send(conn, fn, share: list) -> None:
    """A forked child's work: send [fn(t) for t in share] to the parent."""
    try:
        conn.send(list(map(fn, share)))
    except BaseException:  # any error at all, a failed send included
        raise SystemExit(1) from None  # quietly: the parent runs this share itself


def pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in order: the package's one way to start a
    process. The tasks are cut into pool_size(workers, len(tasks))
    contiguous shares. This process runs the first; one forked child per
    other share, which inherits fn instead of receiving a pickled copy,
    sends its results through a pipe. Every message is read before any
    child is joined, and every child is stopped first if this process
    raises. A share whose child cannot start, exits non-zero or sends
    nothing runs here again, so every error is raised in this process."""
    size = pool_size(workers, len(tasks))
    cuts = [len(tasks) * i // size for i in range(size + 1)]
    shares = [tasks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = {}  # share index: the child and its pipe's receiving end
    results = [None] * size
    try:
        for i in range(1, size):
            context = multiprocessing.get_context("fork")  # only where fork exists
            receiver, sender = context.Pipe(duplex=False)
            # this Process flushes stdout and stderr before it forks, so
            # nothing buffered is written twice
            child = context.Process(target=_send, args=(sender, fn, shares[i]))
            with suppress(OSError):  # no process could be forked
                child.start()
                children[i] = child, receiver
            sender.close()
        results[0] = list(map(fn, shares[0]))
        for i, (_, receiver) in children.items():
            with suppress(EOFError, OSError):  # no whole message came
                results[i] = receiver.recv()
    except BaseException:
        # a child holds a copy of its receiving end, so one left to send
        # more than the pipe's buffer would wait forever
        for child, _ in children.values():
            child.terminate()
        raise
    finally:
        for i, (child, receiver) in children.items():
            receiver.close()
            child.join()
            if child.exitcode:  # whatever it sent is not trusted
                results[i] = None
    return [r for part, share in zip(results, shares)
            for r in (map(fn, share) if part is None else part)]


def _marks_table(symbols: array, n: int) -> bytearray:
    """A zeroed n*n table. One that cannot be allocated raises
    RadiusSeqError naming n and its size, unless `symbols` hold a symbol
    outside the alphabet, which is named first."""
    try:
        return bytearray(n * n)
    except (MemoryError, OverflowError):
        _check_alphabet(symbols, n)
        raise RadiusSeqError(
            f"n={n} needs a marks table of {n * n} bytes, more than can be allocated"
        ) from None


def _marked_rows(symbols: array, n: int, reach: int, lo: int, hi: int,
                 spans: list[tuple[int, int]], marks: bytearray | None) -> list[int]:
    """The pairs that the positions of `spans` in lo..hi-1 meet within
    `reach` symbols after them, as n-1 ints: row x holds a bit for each
    y > x, the most significant for y = x+1, set when x and y occur at
    most reach apart.

    With `marks` None the cells are gathered in one set and each sets
    its bit in its row, so the work follows the cells, not n*n. Else they
    are marked into the n*n table `marks` and the rows folded from all
    of it, so a table that already holds another share's cells folds to
    the rows of both.

    Each block of positions checks the alphabet of the symbols it reads
    before marking them. Blocks run in order and each reads `reach`
    symbols past its end, so the symbol outside the alphabet that this
    names is the first one from lo on: _rows leaves out of `spans` only
    terms of progression runs, all inside the alphabet."""
    # cell x*n + y marks "x occurs at most reach before y". Blocks shrink
    # as the reach grows, so one gathers fewer than 8 * _VERIFY_BLOCK
    # cells until it is down to a single symbol
    step = max(1, _VERIFY_BLOCK // max(1, reach // 4))
    seen = set()
    for first, stop in spans:
        first, stop = max(first, lo), min(stop, hi)
        for start in range(first, stop, step):
            end = min(start + step, stop)
            block = symbols[start:end + reach].tolist()
            _check_alphabet(block, n)
            scaled = list(map(mul, block[:end - start], repeat(n)))
            cells = []
            # each offset slices only the symbols it pairs, and offsets past
            # the end of the sequence are skipped, so the work follows the cells
            for d in range(1, min(reach + 1, len(block))):
                cells += map(add, scaled, block[d:d + end - start])
            if marks is None:
                seen.update(cells)
            else:
                for i in cells:
                    marks[i] = 1
    if marks is None:
        rows = [0] * (n - 1)
        for cell in seen:
            x, y = divmod(cell, n)
            if x < y:
                rows[x] |= 1 << (n - 1 - y)
            elif y < x:
                rows[y] |= 1 << (n - 1 - x)
        return rows
    # fold column x (y before x) into row x (x before y), right of the diagonal
    return [
        int(marks[x * n + x + 1:(x + 1) * n].translate(_DIGITS), 2)
        | int(marks[(x + 1) * n + x::n].translate(_DIGITS), 2)
        for x in range(n - 1)
    ]


def residue_table(n: int, copies: int) -> array:
    """`copies` copies of 0..n-1 in one array("I"): entry x is x mod n, so
    table[s:s+m*d:d] is the step-d progression of m terms from s mod n
    wherever s + (m-1)*d lies inside the table."""
    return array("I", range(n)) * copies


def _agreement(a, b) -> int:
    """The length of the longest common prefix of two strs or two
    memoryviews, bisected with C slice compares: the search of
    _StretchReader's progression matcher."""
    lo, hi = 0, min(len(a), len(b)) + 1  # a[:lo] == b[:lo]; a[:hi] != b[:hi] or hi is past one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def pair_rows(seq: RadiusSequence) -> list[int]:
    """The pairs of distinct symbols that occur within distance k in `seq`,
    as n-1 ints: row x holds a bit for each y > x, the most significant
    for y = x+1, set when x and y occur at most k apart. A symbol outside
    the alphabet raises AlphabetViolation naming the first one.

    Every position is marked one cell at a time, as _rows marks the
    positions outside runs: the array of a RadiusSequence is mutable, so
    no progression in it is taken on trust. read_rows marks as diagonals
    the runs that its parse matched against the text.
    """
    return _rows(seq, [])


def _rows(seq: RadiusSequence, runs: list[tuple[int, int, int]]) -> list[int]:
    """pair_rows of `seq`, given `runs`: (a, b, d) in order, each sharing at
    most one position with the one before, such that symbols[a:b] is the
    step-d progression mod n from symbols[a].

    With reach = min(k, L-1), a run of R >= n + reach terms s, s+d,
    s+2d, ... mod n with gcd(d, n) = 1 is marked as diagonals, with no
    work per cell: its first R - reach positions, at least n of them,
    hold every residue a and pair it with a + j*d for each j <= reach, so
    every pair at an offset +-j*d mod n occurs. The other positions are
    marked one cell at a time. When C(n,2) <= L*reach (no sequence below
    that bound is k-radius) and _FILL times the cells they look at stays
    below n*n, the cells are gathered in a set and each sets its bit in
    its row, with no work per pair of the alphabet. Otherwise they are
    marked in an n*n table, which is folded into rows.

    When those positions look at _SPLIT_CELLS pairs or more and
    pool_size(2, 2) is 2, the sequence is cut at c into two spans that
    pool_map marks, [c, L) in a forked child, and their rows are ORed.
    The cut halves the positions marked cell by cell. With a table, both
    spans mark into it, each process into its own copy, so a span marked
    here again after its child failed folds to the union, which the OR
    leaves unchanged. An n*n table that cannot be allocated raises
    RadiusSeqError.
    """
    n, symbols = seq.n, seq.symbols
    length = len(symbols)
    # offsets past the end pair nothing; capping them keeps a huge k cheap
    reach = min(seq.k, length - 1)
    # past the counting bound no cells are gathered
    bounded = math.comb(n, 2) <= length * reach
    marks = None if bounded else _marks_table(symbols, n)
    runs = [(a, b, d) for a, b, d in runs if b - a >= n + reach and math.gcd(d, n) == 1]
    # the positions marked cell by cell: all but the first R - reach of each run
    spans = list(zip([0] + [b - reach for _, b, _ in runs], [a for a, _, _ in runs] + [length]))
    positions = sum(b - a for a, b in spans)
    if bounded and _FILL * positions * reach >= n * n:
        marks = _marks_table(symbols, n)
    bounds = [(0, length)]
    if positions * reach >= _SPLIT_CELLS and pool_size(2, 2) == 2:
        rank = positions // 2
        for a, b in spans:
            if rank <= b - a:
                break
            rank -= b - a
        bounds = [(0, a + rank), (a + rank, length)]
    halves = pool_map(lambda bound: _marked_rows(symbols, n, reach, *bound, spans, marks), bounds, 2)
    del marks  # frees any n*n table before the rows are ORed
    rows = [reduce(or_, row) for row in zip(*halves)]
    if runs:
        # offsets[c] is 1 when each a meets a + c (or a - c) in a run
        offsets = bytearray(n)
        for d in {d for _, _, d in runs}:
            for j in range(1, min(reach, n) + 1):
                offsets[j * d % n] = offsets[-(j * d % n)] = 1
        diagonals = int(offsets[1:].translate(_DIGITS), 2)
        rows = [row | diagonals >> x for x, row in enumerate(rows)]
    return rows


def missing_rows(rows: list[int]):
    """Yield (x, ys) for each row x of pair_rows with a clear bit, in
    order: ys lists, ascending, the y > x whose bit is clear."""
    n = len(rows) + 1
    for x, row in enumerate(rows):
        width = n - 1 - x
        clear = width - row.bit_count()
        if not clear:
            continue
        bits = format(row, f"0{width}b")
        if clear * _FEW_CLEAR <= width:
            ys = []
            at = bits.find("0")
            while at >= 0:
                ys.append(x + 1 + at)
                at = bits.find("0", at + 1)
            yield x, ys
        else:
            yield x, list(compress(range(x + 1, n), bits.encode().translate(_CLEAR)))


def verify(seq: RadiusSequence) -> tuple[bool, list[tuple[int, int]]]:
    """Check the k-radius property through pair_rows: every position by
    ordered-pair marking into a set of cells or, for dense marking, an
    n*n table, then the rows.

    Returns (ok, missing) where missing lists every unordered pair of
    distinct alphabet symbols that never co-occurs within distance k, in
    lexicographic order. The marking is pair_rows, with its processes and
    errors, so every position is marked cell by cell, a cover splice
    built in process too: only read_rows marks runs as diagonals, those
    its parse matched against the text. A caller that only reports the
    missing pairs can read them row by row from missing_rows instead of
    holding this list.
    """
    missing = [(x, y) for x, ys in missing_rows(pair_rows(seq)) for y in ys]
    return not missing, missing


def lower_bound(n: int, k: int) -> int:
    """Smallest length not excluded by the counting bound C(n,2)/k < length."""
    return math.comb(n, 2) // k + 1


def _symbol_table(n: int, length: int) -> array:
    """An array("I") of `length` zeros, allocated once; a length that
    cannot be allocated is a RadiusSeqError naming n and the bytes."""
    try:
        return array("I", [0]) * length
    except (MemoryError, OverflowError):
        raise RadiusSeqError(
            f"n={n} needs a sequence of {length} symbols ({4 * length} bytes), "
            "more than can be allocated"
        ) from None


def naive_sequence(n: int, k: int) -> RadiusSequence:
    """Concatenation of all two-symbol words x,y with x < y; length 2*C(n,2).

    Each x's block x,x+1,x,x+2,...,x,n-1 is two strided slice assignments
    into one table of the exact length: x at the even offsets, x+1..n-1 at
    the odd ones.
    """
    symbols = _symbol_table(n, 2 * math.comb(n, 2))
    pos = 0
    for x in range(n - 1):
        end = pos + 2 * (n - 1 - x)
        symbols[pos:end:2] = array("I", [x]) * (n - 1 - x)
        symbols[pos + 1:end:2] = array("I", range(x + 1, n))
        pos = end
    return RadiusSequence(n, k, symbols)


def one_radius_length(n: int) -> int:
    """The optimal 1-radius length: C(n,2) + 1 for odd n, C(n,2) + n/2 for even n."""
    return math.comb(n, 2) + (n // 2 if n % 2 == 0 else 1)


def one_radius_optimal(n: int) -> RadiusSequence:
    """A 1-radius sequence of the exact optimal length, one_radius_length(n).

    It is an Eulerian trail on the complete graph, so consecutive symbols
    differ; for even n a perfect matching on 2..n-1 is doubled, leaving 0
    and 1 as the odd-degree ends. The trail is written block by block. For
    a = 0, 2, 4, ... below n-2 the block is a, a+1, then v = a+2..n-1 with
    a, a+1, a, ... between consecutive v, and for even n and a > 0 one extra
    a+1 (the doubled edge) just before the final n-1. Even n adds the block
    n-2, n-1. The trail ends with 0 for odd n, 1 for even n > 2. Each block
    is two strided slice assignments into one table of the exact length,
    so Python makes O(n) steps, not one per edge. This is the trail that
    Hierholzer's walk from 0 takes with ascending neighbours and each
    doubled edge last.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    even = n % 2 == 0
    length = one_radius_length(n)
    trail = _symbol_table(n, length)
    pos = 0
    for a in range(0, n - 2, 2):
        m = n - 2 - a  # the v after a, a+1
        trail[pos] = a
        trail[pos + 2:pos + 2 * m + 1:2] = array("I", range(a + 2, n))
        trail[pos + 1:pos + 2 * m:2] = (array("I", [a + 1, a]) * ((m + 1) // 2))[:m]
        pos += 2 * m + 1
        if even and a:  # the doubled edge {a, a+1}, then the final n-1
            trail[pos - 1] = a + 1
            trail[pos] = n - 1
            pos += 1
    if even:
        trail[pos:pos + 2] = array("I", [n - 2, n - 1])
        pos += 2
    if n != 2:
        trail[pos] = 1 if even else 0
        pos += 1
    if pos != length:
        raise AssertionError("Eulerian trail blocks do not fill the exact length")
    return RadiusSequence(n, 1, trail)


def shrink_alphabet(seq: RadiusSequence, x: int) -> RadiusSequence:
    """Drop the x most frequent symbols and relabel onto {0..n-x-1}.

    Frequency ties are broken in favour of the smaller symbol. The input
    must verify; the output then verifies as an (n-x)-ary k-radius
    sequence of length at most len(seq) - ceil(x*len(seq)/n).
    """
    if not 1 <= x < seq.n:
        raise ValueError("need 1 <= x < n")
    ok, _ = verify(seq)
    if not ok:
        raise NotVerified("input sequence fails the k-radius check")
    return _drop_frequent(seq, x)


def _drop_frequent(seq: RadiusSequence, x: int) -> RadiusSequence:
    """shrink_alphabet without its checks, for an input known to verify.

    The output needs no check of its own: deleting symbols never moves two
    remaining occurrences further apart, and the relabelling is injective,
    so every pair of kept symbols still meets within distance k. It is
    written one _WRITE_CHUNK block at a time, never as one whole list."""
    freq = [0] * seq.n
    for s in seq.symbols:
        freq[s] += 1
    labels = _relabelling(freq, x)
    symbols = array("I")
    for start in range(0, len(seq), _WRITE_CHUNK):
        chunk = seq.symbols[start:start + _WRITE_CHUNK]
        symbols.fromlist([label for label in map(labels.__getitem__, chunk) if label is not None])
    return RadiusSequence(seq.n - x, seq.k, symbols)


def _relabelling(freq: list[int], x: int) -> list[int | None]:
    """The label of each symbol once the x with the highest `freq` are
    dropped, ties dropping the smaller symbol: None for a dropped symbol,
    else the number of kept symbols below it."""
    ranked = sorted(range(len(freq)), key=lambda s: (-freq[s], s))
    dropped = set(ranked[:x])
    keep = [s not in dropped for s in range(len(freq))]
    return [label if kept else None for label, kept in zip(accumulate(keep, initial=0), keep)]


class _Names(dict):
    """Decimal names of symbols, each made on first use, so a sequence
    costs one str per distinct symbol, not one per position."""

    def __missing__(self, s: int) -> str:
        name = self[s] = str(s)
        return name


def symbol_runs(symbols: array, sep: str):
    """Yield ``sep.join`` of the symbols' decimal names in pieces of at most
    _WRITE_CHUNK symbols; every piece after the first starts with `sep`."""
    names = _Names()
    lead = ""
    for start in range(0, len(symbols), _WRITE_CHUNK):
        yield lead + sep.join(map(names.__getitem__, symbols[start:start + _WRITE_CHUNK]))
        lead = sep


def format_text(n: int, k: int, runs, comments: list[str] | None = None):
    """Yield the shared text format in pieces: optional comments, a header
    line ``n=<int> k=<int>``, then the line of space-separated decimal
    symbols that the pieces `runs` join to, such as symbol_runs(symbols,
    " ") yields. ``"".join`` of the pieces is the whole text."""
    for c in comments or []:
        yield f"# {c}\n"
    yield f"n={n} k={k}\n"
    yield from runs
    yield "\n"


def parse_fields(line: str, what: str, names: tuple[str, ...]) -> list[int]:
    """The integer values of the fields `names` on a ``name=value ...`` line.

    A token without '=', a field given twice or a missing field raises a
    ValueError that names it; `what` says which kind of line was read.
    """
    fields = {}
    for tok in line.split():
        name, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"{what} {line!r} has a token {tok!r} without '='")
        if name in fields:
            raise ValueError(f"{what} {line!r} has more than one '{name}=' field")
        fields[name] = value
    for name in names:
        if name not in fields:
            raise ValueError(f"{what} {line!r} has no '{name}=' field")
    return [int(fields[name]) for name in names]


def _content_spans(text: str):
    """Yield (a, b) for each line of content_lines(text), in order:
    text[a:b].rstrip() is the line, cut from the text only when asked
    for. A text with no line boundary of str.splitlines but "\n", and
    "\r" only before "\n", is cut at each "\n" by str.find; any other is
    cut at each boundary by _BREAK (see _BREAKS for why both)."""
    odd = (any(map(text.__contains__, _BREAKS[1:]))
           or "\r" in text and text.count("\r") != text.count("\r\n"))
    start = 0
    while start <= len(text):
        if odd:
            found = _BREAK.search(text, start)
            end = found.start() if found else len(text)
        else:
            end = text.find("\n", start)
            end = len(text) if end == -1 else end
        first = _SPACE.match(text, start, end).end()
        if first < end and text[first] != "#":
            yield first, end
        start = end + 1


def content_lines(text: str):
    """Yield the lines of `text` stripped, skipping blank lines and
    ``#`` comments: the comment rule of every text format. The lines are
    those of str.splitlines, cut one at a time."""
    for a, b in _content_spans(text):
        yield text[a:b].rstrip()


def _windows(text: str, start: int, end: int):
    """Yield text[start:end] in pieces cut at the first space past every
    _PARSE_WINDOW characters, so that no token is split."""
    while end - start > _PARSE_WINDOW:
        cut = text.find(" ", start + _PARSE_WINDOW, end)
        if cut == -1:
            break
        yield text[start:cut]
        start = cut + 1
    yield text[start:end]


def _tokens(window: str) -> list[int]:
    """The integers of the whitespace-separated tokens of `window`, as int()
    reads them: the plain reading of a window, or of the part of one that
    the stretch reader hands over. A window of ASCII digits and spaces
    alone goes through the C JSON scanner, which reads such a window as
    int() does or not at all; what it refuses (a leading zero, a double
    space, a number past the interpreter's digit limit) and every other
    window go through int()."""
    if window.isascii() and not window.encode().translate(None, _PLAIN):
        with suppress(ValueError):
            return json.loads("[" + window.replace(" ", ",") + "]")
    return list(map(int, window.split()))


class _StretchReader:
    """Reads windows over an alphabet of n >= 2 symbols as chains of
    progression stretches s, s+d, s+2d, ... mod n. Its names are the
    canonical decimal names below n, each with a space after it, and each
    window is read with a space after it. At a token, the residues s, t of
    it and the next token are looked up by name, d = t - s mod n, and the
    text is compared in C with the joined names of the next _RUN_PROBE
    terms, then of as many more as the residue table holds at a time; the
    names whose space lies in the part that agrees (_agreement) are whole
    tokens. A failed probe hands _tokens the text up to the first space
    past `gap` characters, or to the window's end: the width of _RUN_PROBE
    names, doubled per failure in a row up to _PARSE_WINDOW. The tables
    are O(n): the names laid out as the residue table, a dict from each
    name to its residue, and the residue table itself. Each stretch is
    handed on with its first residue s and step d, so the parse knows the
    progression of every stretch it appends."""

    def __init__(self, n: int):
        self.n = n
        self.table = residue_table(n, _TABLE_REPEATS)
        self.names = [str(s) + " " for s in range(n)]
        self.index = {name: s for s, name in enumerate(self.names)}
        self.names *= _TABLE_REPEATS
        # characters that the next failed probe hands to _tokens, carried
        # from window to window
        self.base = self.gap = _RUN_PROBE * (len(str(n - 1)) + 1)

    def _match(self, text: str, pos: int, s: int, d: int, m: int) -> tuple[int, int]:
        """(j, after): text[pos:after] is the names, each with its space,
        of the first j of the m terms from s of the step-d progression, or
        of as many of them as the table holds from s."""
        terms = self.names[s:s + m * d:d]
        names = "".join(terms)
        if text.startswith(names, pos):
            return len(terms), pos + len(names)
        agree = _agreement(text[pos:pos + len(names)], names)
        return names.count(" ", 0, agree), pos + names.rfind(" ", 0, agree) + 1

    def __call__(self, window: str):
        """Yield the symbols of `window` in order: each stretch as (s, d,
        its terms), the terms an array("I") joined from slices of the
        residue table, everything else as the list that _tokens reads."""
        n, table, index = self.n, self.table, self.index
        text = window + " "
        last, end, pos = len(table) - 1, len(window), 0
        while pos < end:
            # the names of the token at pos and of the next, each with its space
            first = text.find(" ", pos) + 1
            s = index.get(text[pos:first])
            t = index.get(text[first:text.find(" ", first) + 1]) if s is not None else None
            j = 0
            if t is not None and t != s:
                d = (t - s) % n
                j, after = self._match(text, pos, s, d, _RUN_PROBE)
            if j < _RUN_PROBE:
                cut = text.find(" ", min(pos + self.gap, end))
                self.gap = min(2 * self.gap, _PARSE_WINDOW)
                yield _tokens(window[pos:cut])
                pos = cut + 1
                continue
            self.gap = self.base
            # the stretch goes on in pieces inside the table, each of at most
            # as many terms as the rest of the text could hold, until one
            # agrees only in part
            terms, r, m = array("I"), s, j
            while j:
                terms += table[r:r + j * d:d]
                pos, r = after, (r + j * d) % n
                if j < m or pos >= end:
                    break
                m = min((last - r) // d + 1, (end + 1 - pos) // 2)
                j, after = self._match(text, pos, r, d, m)
            yield s, d, terms


def parse_sequence(text: str, n: int | None = None, k: int | None = None) -> RadiusSequence:
    """Parse the text format; explicit n/k arguments override the header.

    The lines are cut from the text one at a time, and long lines are read
    in windows of about _PARSE_WINDOW characters cut from the text itself,
    so no copy of a line is held. When n is known (the header or the
    argument) and the text holds at least _READ_GATE characters per
    symbol, _StretchReader reads the windows as progression stretches, the
    shape of a cover splice, and each stretch is appended as a slice of
    the residue table, with no int per symbol; below the gate no O(n) table
    is built. All else goes through _tokens. Either way the symbols and
    errors are those of int() over the tokens: a token that is not an
    integer raises int()'s ValueError naming it. A symbol that does not fit
    in 32 bits raises AlphabetViolation naming the first symbol outside the
    alphabet; other symbols outside it are left to verify. read_rows reads
    the same way and keeps the progression of each stretch for its runs.
    """
    return _parse(text, n, k)[0]


def read_rows(text: str, n: int | None = None, k: int | None = None) -> tuple[RadiusSequence, list[int]]:
    """(parse_sequence(text, n, k), its pair_rows), with the runs of the
    parse marked as diagonals: the `verify` command's one read path.

    Each piece that _StretchReader matched against the text is a slice of
    the residue table whose progression (s, d) is known. The parse joins
    a piece to the run before it when the piece, and the symbols between
    them, continue that run's progression. Otherwise the piece starts a
    run, at the first of the symbols before it that continue it backwards,
    back to the last term of the run before at most. So a line break or a
    window's cut inside a stretch, the few tokens at a line's end that no
    probe could read, or a splice segment sharing its first term with the
    one before, leave a run whole, and a piece after a deletion starts a
    run of its own. Runs are never searched for in the symbols, and never
    taken from anywhere but the text this call parsed.
    """
    seq, runs = _parse(text, n, k)
    return seq, _rows(seq, runs)


def _parse(text: str, n: int | None, k: int | None) -> tuple[RadiusSequence, list[tuple[int, int, int]]]:
    """parse_sequence, and the runs (a, b, d) of more than n terms that its
    stretches join to, in order, as read_rows says (a run of at most n
    terms is never marked as diagonals)."""
    header_n = header_k = None
    symbols = array("I")
    misfit = None
    read = None  # at the first symbol line: the stretch reader, or False below the gate
    runs = []
    start = end = step = 0  # the last run: symbols[start:end] steps by `step` mod n
    for i, (a, b) in enumerate(_content_spans(text)):
        if i == 0 and text.startswith("n=", a):
            header_n, header_k = parse_fields(text[a:b].rstrip(), "sequence header", ("n", "k"))
            continue
        if read is None:
            size = n if n is not None else header_n
            read = (_StretchReader(size) if size is not None and 2 <= size
                    and _READ_GATE * size <= len(text) else False)
        for window in _windows(text, a, b):
            for values in read(window) if read else (_tokens(window),):
                if misfit is not None:
                    continue
                at = first = len(symbols)
                if isinstance(values, list):
                    try:
                        symbols.fromlist(values)
                    except OverflowError:
                        misfit = values
                        continue
                else:
                    s, d, terms = values
                    symbols += terms
                    # the symbols before it that continue it backwards, back to
                    # the last term of the run before at most
                    while first > max(end - 1, 0) and symbols[first - 1] == (s - (at + 1 - first) * d) % size:
                        first -= 1
                    if first < end and d == step:  # it continues the run before
                        end = len(symbols)
                        continue
                # the symbols right after the run before that continue it join
                # it: loose ones, or the first term of a stretch of another step
                if end == at and step:
                    while end < len(symbols) and symbols[end] == (symbols[end - 1] + step) % size:
                        end += 1
                if isinstance(values, tuple):
                    if end - start > size:
                        runs.append((start, end, step))
                    start, end, step = first, len(symbols), d
    if read and end - start > size:
        runs.append((start, end, step))
    n = n if n is not None else header_n
    k = k if k is not None else header_k
    if n is None or k is None:
        raise ValueError("alphabet size and radius not given and no header found")
    if misfit is not None:
        # these values hold a symbol past 32 bits, so the first symbol outside
        # the alphabet lies in them or before them; RadiusSequence names that one
        symbols = chain(symbols, misfit)
    return RadiusSequence(n, k, symbols), runs
