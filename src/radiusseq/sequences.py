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
# length * reach from which verify marks the later positions in a forked
# child; the child's start paid for itself from about 120,000 cells
_SPLIT_CELLS = 200_000
# the byte 0 or 1 of a marks cell as the digit "0" or "1", and a digit
# of a folded row back as 1 for a clear bit (a missing pair), 0 for a set one
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_CLEAR = bytes.maketrans(b"01", b"\1\0")
# symbols per written piece, and characters per parsed window of a long
# line: serializing and parsing hold O(these) Python objects, not O(length)
_WRITE_CHUNK = 1 << 16
_PARSE_WINDOW = 1 << 16
# the characters of a window that the JSON scanner may read
_PLAIN = b"0123456789 "


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


def _marked_rows(symbols: array, n: int, reach: int, lo: int, hi: int) -> list[int]:
    """The pairs that positions lo..hi-1 meet within `reach` symbols after
    them, as n-1 ints: row x holds a bit for each y > x, the most
    significant for y = x+1, set when x and y occur at most reach apart.

    Each block of positions checks the alphabet of the symbols it reads
    before marking them. Blocks run in order and each reads `reach`
    symbols past its end, so the symbol outside the alphabet that this
    names is the first one from lo on. It is named before a table that
    cannot be allocated, wherever in the sequence it lies."""
    try:
        # cell x*n + y marks "x occurs at most reach before y"
        marks = bytearray(n * n)
    except (MemoryError, OverflowError):
        _check_alphabet(symbols, n)
        raise RadiusSeqError(
            f"n={n} needs a marks table of {n * n} bytes, more than can be allocated"
        ) from None
    # blocks shrink as the reach grows, so one gathers fewer than
    # 8 * _VERIFY_BLOCK cells until it is down to a single symbol
    step = max(1, _VERIFY_BLOCK // max(1, reach // 4))
    for start in range(lo, hi, step):
        end = min(start + step, hi)
        block = symbols[start:end + reach].tolist()
        _check_alphabet(block, n)
        scaled = list(map(mul, block[:end - start], repeat(n)))
        cells = []
        # each offset slices only the symbols it pairs, and offsets past
        # the end of the sequence are skipped, so the work follows the cells
        for d in range(1, min(reach + 1, len(block))):
            cells += map(add, scaled, block[d:d + end - start])
        for i in cells:
            marks[i] = 1
    # fold column x (y before x) into row x (x before y), right of the diagonal
    return [
        int(marks[x * n + x + 1:(x + 1) * n].translate(_DIGITS), 2)
        | int(marks[(x + 1) * n + x::n].translate(_DIGITS), 2)
        for x in range(n - 1)
    ]


def _balanced_cut(length: int, reach: int) -> int:
    """The cut that splits the cells min(reach, length-1-i) of the
    positions i most evenly between i < cut and i >= cut: the two halves
    differ by at most reach cells. Needs 1 <= reach < length."""
    full = (length - reach) * reach  # positions with a whole reach
    total = full + reach * (reach - 1) // 2
    if 2 * full >= total:
        # the cut holds cut*reach cells: the nearest to total/2
        return (total + reach) // (2 * reach)
    # the last u positions hold u(u-1)/2 cells, u <= reach; take the u
    # whose u(u-1) lies nearest total
    u = (1 + math.isqrt(1 + 4 * total)) // 2
    if (u + 1) * u - total < total - u * (u - 1):
        u += 1
    return length - u


def pair_rows(seq: RadiusSequence) -> list[int]:
    """The pairs of distinct symbols that occur within distance k in `seq`,
    as n-1 ints: row x holds a bit for each y > x, the most significant
    for y = x+1, set when x and y occur at most k apart. A symbol outside
    the alphabet raises AlphabetViolation naming the first one.

    A sequence of length L with L * min(k, L-1) at least _SPLIT_CELLS is
    cut at c, when pool_size(2, 2) is 2, into two spans that pool_map
    marks, [c, L) in a forked child's own n*n table, and their folded rows
    are ORed. The cut balances the pairs min(k, L-1-i) that the two look
    at to within k. An n*n table that cannot be allocated raises
    RadiusSeqError.
    """
    n, symbols = seq.n, seq.symbols
    length = len(symbols)
    # offsets past the end pair nothing; capping them keeps a huge k cheap
    reach = min(seq.k, length - 1)
    spans = [(0, length)]
    if length * reach >= _SPLIT_CELLS and pool_size(2, 2) == 2:
        cut = _balanced_cut(length, reach)
        spans = [(0, cut), (cut, length)]
    halves = pool_map(lambda span: _marked_rows(symbols, n, reach, *span), spans, 2)
    return [reduce(or_, row) for row in zip(*halves)]


def missing_rows(rows: list[int]):
    """Yield (x, ys) for each row x of pair_rows with a clear bit, in
    order: ys lists, ascending, the y > x whose bit is clear."""
    n = len(rows) + 1
    for x, row in enumerate(rows):
        width = n - 1 - x
        if row.bit_count() < width:
            clear = format(row, f"0{width}b").encode().translate(_CLEAR)
            yield x, list(compress(range(x + 1, n), clear))


def verify(seq: RadiusSequence) -> tuple[bool, list[tuple[int, int]]]:
    """Check the k-radius property by ordered-pair marking plus fold.

    Returns (ok, missing) where missing lists every unordered pair of
    distinct alphabet symbols that never co-occurs within distance k, in
    lexicographic order. The marking is pair_rows, with its processes and
    errors; a caller that only reports the missing pairs can read them
    row by row from missing_rows instead of holding this list.
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


def one_radius_optimal(n: int) -> RadiusSequence:
    """A 1-radius sequence of the exact optimal length: C(n,2) + 1 for odd
    n, C(n,2) + n/2 for even n.

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
    length = math.comb(n, 2) + (n // 2 if even else 1)
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
    ranked = sorted(range(seq.n), key=lambda s: (-freq[s], s))
    dropped = set(ranked[:x])
    keep = [s not in dropped for s in range(seq.n)]
    # a kept symbol's new label is the number of kept symbols below it
    relabel = list(accumulate(keep, initial=0))
    symbols = array("I")
    for start in range(0, len(seq), _WRITE_CHUNK):
        symbols.fromlist([relabel[s] for s in seq.symbols[start:start + _WRITE_CHUNK] if keep[s]])
    return RadiusSequence(seq.n - x, seq.k, symbols)


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


def format_sequence(seq: RadiusSequence, comments: list[str] | None = None):
    """Yield the shared text format in pieces: optional comments, a header
    line ``n=<int> k=<int>``, then a line of space-separated decimal
    symbols. ``"".join`` of the pieces is the whole text; no piece holds
    more than _WRITE_CHUNK symbols."""
    for c in comments or []:
        yield f"# {c}\n"
    yield f"n={seq.n} k={seq.k}\n"
    yield from symbol_runs(seq.symbols, " ")
    yield "\n"


def parse_fields(line: str, what: str, names: tuple[str, ...]) -> list[int]:
    """The integer values of the fields `names` on a ``name=value ...`` line.

    A token without '=' or a missing field raises a ValueError that names
    it; `what` says which kind of line was read.
    """
    fields = {}
    for tok in line.split():
        name, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"{what} {line!r} has a token {tok!r} without '='")
        fields[name] = value
    for name in names:
        if name not in fields:
            raise ValueError(f"{what} {line!r} has no '{name}=' field")
    return [int(fields[name]) for name in names]


def content_lines(text: str):
    """Yield the lines of `text` stripped, skipping blank lines and
    ``#`` comments: the comment rule of every text format."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _windows(line: str):
    """Yield `line` in pieces cut at the first space past every
    _PARSE_WINDOW characters, so that no token is split."""
    start = 0
    while len(line) - start > _PARSE_WINDOW:
        cut = line.find(" ", start + _PARSE_WINDOW)
        if cut == -1:
            break
        yield line[start:cut]
        start = cut + 1
    yield line[start:]


def _tokens(window: str) -> list[int]:
    """The integers of the whitespace-separated tokens of `window`, as int()
    reads them. A window of ASCII digits and spaces alone goes through the
    C JSON scanner, which reads such a window as int() does or not at all;
    what it refuses (a leading zero, a double space, a number past the
    interpreter's digit limit) and every other window go through int()."""
    if window.isascii() and not window.encode().translate(None, _PLAIN):
        with suppress(ValueError):
            return json.loads("[" + window.replace(" ", ",") + "]")
    return list(map(int, window.split()))


def parse_sequence(text: str, n: int | None = None, k: int | None = None) -> RadiusSequence:
    """Parse the text format; explicit n/k arguments override the header.

    Long lines are read in windows of about _PARSE_WINDOW characters, each
    through the JSON scanner where it can read it (see _tokens). A token
    that is not an integer raises int()'s ValueError naming it. A symbol
    that does not fit in 32 bits raises AlphabetViolation naming the first
    symbol outside the alphabet; other symbols outside it are left to
    verify.
    """
    header_n = header_k = None
    symbols = array("I")
    misfit = None
    for i, line in enumerate(content_lines(text)):
        if i == 0 and line.startswith("n="):
            header_n, header_k = parse_fields(line, "sequence header", ("n", "k"))
            continue
        for window in _windows(line):
            values = _tokens(window)
            if misfit is None:
                try:
                    symbols.fromlist(values)
                except OverflowError:
                    misfit = values
    n = n if n is not None else header_n
    k = k if k is not None else header_k
    if n is None or k is None:
        raise ValueError("alphabet size and radius not given and no header found")
    if misfit is not None:
        # this line holds a symbol past 32 bits, so the first symbol outside
        # the alphabet lies in it or before it; RadiusSequence names that one
        symbols = chain(symbols, misfit)
    return RadiusSequence(n, k, symbols)
