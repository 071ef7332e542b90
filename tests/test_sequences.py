import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
from array import array
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radiusseq import covers as cv
from radiusseq import kradius as kr
from radiusseq import logarithms as lg
from radiusseq import sequences as sq
from radiusseq import tilings as tl
from radiusseq.errors import AlphabetViolation, NotVerified, OutOfRange, RadiusSeqError

from reference_counts import KNOWN_LOG
from test_covers import damaged_splices


def brute_force_verify(seq):
    """Quadratic oracle: scan every pair of positions directly."""
    covered = set()
    m = len(seq.symbols)
    for i in range(m):
        for j in range(i + 1, min(i + seq.k + 1, m)):
            a, b = seq.symbols[i], seq.symbols[j]
            if a != b:
                covered.add((min(a, b), max(a, b)))
    return len(covered) == seq.n * (seq.n - 1) // 2


def brute_force_missing(seq):
    """Every unordered pair with no two occurrences at most k apart, sorted."""
    pos = {}
    for i, s in enumerate(seq.symbols):
        pos.setdefault(s, []).append(i)
    return [
        (x, y)
        for x in range(seq.n)
        for y in range(x + 1, seq.n)
        if not any(abs(i - j) <= seq.k for i in pos.get(x, ()) for j in pos.get(y, ()))
    ]


def straddle(gap, half=60, cut=None):
    """A word of length 2*half whose only (0, 2) pair has its 0 just
    before position cut (half by default) and its 2 `gap` symbols later."""
    cut = half if cut is None else cut
    return (1,) * (cut - 1) + (0,) + (1,) * (gap - 1) + (2,) + (1,) * (2 * half - cut - gap)


def straddle_without_run(gap, **kwargs):
    """straddle with the symbol after its 2 made a 2 too. For gap 1,
    straddle holds 1 0 2 1, a step-2 progression of n + k = 4 terms that
    verify marks as diagonals, which moves the cut and the split size;
    this word holds no such run."""
    word = list(straddle(gap, **kwargs))
    word[word.index(2) + 1] = 2
    return word


@st.composite
def radius_sequences(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 8))
    symbols = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return sq.RadiusSequence(n, k, tuple(symbols))


class TestVerify:
    def test_five_ary_two_radius_example(self):
        ok, missing = sq.verify(sq.RadiusSequence(5, 2, (0, 1, 2, 3, 4, 0, 1)))
        assert ok and missing == []

    def test_adjacent_pair(self):
        ok, _ = sq.verify(sq.RadiusSequence(2, 1, (0, 1)))
        assert ok

    def test_missing_pair_reported(self):
        ok, missing = sq.verify(sq.RadiusSequence(3, 1, (0, 1, 2)))
        assert not ok and missing == [(0, 2)]

    def test_absent_symbol_means_missing_pairs(self):
        ok, missing = sq.verify(sq.RadiusSequence(3, 2, (0, 1, 0)))
        assert not ok
        assert set(missing) == {(0, 2), (1, 2)}

    def test_alphabet_violation(self):
        with pytest.raises(AlphabetViolation):
            sq.verify(sq.RadiusSequence(3, 1, (0, 5)))

    def test_against_quadratic_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(2, 8)
            k = rng.randrange(1, 5)
            m = rng.randrange(0, 25)
            seq = sq.RadiusSequence(n, k, tuple(rng.randrange(n) for _ in range(m)))
            assert sq.verify(seq)[0] == brute_force_verify(seq)

    @settings(max_examples=300, deadline=None)
    @given(radius_sequences())
    def test_matches_pair_enumeration(self, seq):
        missing = brute_force_missing(seq)
        assert sq.verify(seq) == (not missing, missing)

    def test_single_symbol_alphabet(self):
        assert sq.verify(sq.RadiusSequence(1, 1, ())) == (True, [])
        assert sq.verify(sq.RadiusSequence(1, 3, (0, 0))) == (True, [])

    def test_empty_sequence(self):
        assert sq.verify(sq.RadiusSequence(3, 2, ())) == (False, [(0, 1), (0, 2), (1, 2)])

    @pytest.mark.parametrize("k", [4, 5, 10**9])
    def test_radius_at_least_length(self, k):
        # every pair of positions is within reach; a huge k costs nothing extra
        missing = [(0, 3), (1, 3), (2, 3), (3, 4)]
        assert sq.verify(sq.RadiusSequence(5, k, (0, 1, 2, 4))) == (False, missing)

    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_pair_straddling_block_boundary(self, gap):
        # the only (0, 2) occurrence has its 0 as the last symbol of the
        # first scatter block and its 2 `gap` symbols later
        block = sq._VERIFY_BLOCK
        assert sq.verify(sq.RadiusSequence(3, gap, straddle(gap, block))) == (True, [])
        assert sq.verify(sq.RadiusSequence(3, gap, straddle(gap + 1, block))) == (False, [(0, 2)])

    def test_alphabet_violation_names_first_offender(self):
        with pytest.raises(AlphabetViolation, match="^symbol 7 outside alphabet of size 3$"):
            sq.verify(sq.RadiusSequence(3, 1, (0, 7, -1, 9)))
        with pytest.raises(AlphabetViolation, match="^symbol -1 outside alphabet of size 3$"):
            sq.verify(sq.RadiusSequence(3, 1, (0, -1, 7)))
        with pytest.raises(AlphabetViolation, match="^symbol 4294967296 outside alphabet of size 3$"):
            sq.verify(sq.RadiusSequence(3, 1, (0, 2**32)))
        with pytest.raises(AlphabetViolation, match=f"^symbol {-2**70} outside alphabet of size 3$"):
            sq.verify(sq.RadiusSequence(3, 1, (0, -2**70, 7)))

    def test_huge_radius_keeps_scratch_small(self):
        # every offset reaches the whole sequence; the marks are 2.5 KB
        rng = random.Random(41)
        seq = sq.RadiusSequence(50, 10**9, [rng.randrange(50) for _ in range(1000)])
        tracemalloc.start()
        try:
            sq.verify(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [10**9, 2**32])
    def test_impossible_table_is_one_error(self, n):
        with pytest.raises(RadiusSeqError, match=rf"^n={n} needs a marks table of {n * n} bytes"):
            sq.verify(sq.RadiusSequence(n, 2, (0, 1)))

    def test_radius_monotone(self):
        # a verified (n, k) sequence also verifies at radius k+1
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(2, 7)
            m = rng.randrange(1, 30)
            k = rng.randrange(1, 4)
            symbols = tuple(rng.randrange(n) for _ in range(m))
            if sq.verify(sq.RadiusSequence(n, k, symbols))[0]:
                assert sq.verify(sq.RadiusSequence(n, k + 1, symbols))[0]


FORK = "fork" in multiprocessing.get_all_start_methods()
needs_two_cpus = pytest.mark.skipif(
    sq.usable_cpus() < 2 or not FORK, reason="verify splits only with 2 usable CPUs and fork"
)


@pytest.fixture
def children(monkeypatch):
    """The pool_map children started during a test, each joined by then."""
    started = []
    context = multiprocessing.get_context("fork")

    class Recorded(context.Process):
        def start(self):
            started.append(self)
            self.share = self._args[-1]  # its tasks: for verify, [(lo, hi)] it marks
            super().start()

    monkeypatch.setattr(context, "Process", Recorded)
    return started


@needs_two_cpus
def test_forced_split_halves_the_positions_marked_cell_by_cell(monkeypatch, children):
    # a damaged splice after a random word: its runs are marked as
    # diagonals, and the word, the damage and the last k positions of each
    # run cell by cell; the child marks the later half of those positions
    monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
    rng = random.Random(3)
    symbols = cv.sequence_from_cover(cv.two_radius_cover(31)).symbols.tolist()
    for at in rng.sample(range(len(symbols)), 4):
        symbols[at] = (symbols[at] + rng.randrange(1, 31)) % 31
    seq = sq.RadiusSequence(31, 2, [rng.randrange(31) for _ in range(50)] + symbols)
    runs = sq._long_runs(seq.symbols, seq.n, seq.k)
    marked = [i for i in range(len(seq)) if not any(a <= i < b - seq.k for a, b, _ in runs)]
    assert runs and len(marked) < len(seq)
    missing = brute_force_missing(seq)
    assert sq.verify(seq) == (not missing, missing)
    assert [c.exitcode for c in children] == [0]
    [(cut, end)] = children[0].share
    assert end == len(seq) and [i for i in marked if i >= cut] == marked[len(marked) // 2:]


@pytest.mark.skipif(not FORK, reason="the split needs the fork start method")
class TestSplitVerify:
    @settings(max_examples=150, deadline=None)
    @given(radius_sequences())
    def test_forced_split_matches_pair_enumeration(self, seq):
        missing = brute_force_missing(seq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sq, "_SPLIT_CELLS", 1)
            assert sq.verify(seq) == (not missing, missing)

    @needs_two_cpus
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_pair_straddling_the_half_is_found(self, monkeypatch, children, gap):
        monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
        cut = 60  # the median of the 120 positions, all marked cell by cell
        word = straddle_without_run(gap, cut=cut)
        assert sq.verify(sq.RadiusSequence(3, gap, word)) == (True, [])
        word = straddle_without_run(gap + 1, cut=cut)
        assert sq.verify(sq.RadiusSequence(3, gap, word)) == (False, [(0, 2)])
        assert [c.exitcode for c in children] == [0, 0]
        assert [c.share for c in children] == [[(cut, 120)]] * 2

    @needs_two_cpus
    @pytest.mark.parametrize("sends", [False, True])
    def test_failed_child_is_not_trusted(self, monkeypatch, capfd, children, sends):
        # each run forks one child and must return its one-worker result; a
        # lying child sends what would be wrong if trusted: rows claiming
        # every pair (which would pass the word), a count too large, an
        # interval without primes
        rng = random.Random(7)
        seqs = [sq.RadiusSequence(6, 2, [rng.randrange(6) for _ in range(40)]) for _ in range(5)]
        seqs.append(sq.RadiusSequence(3, 2, straddle(3)))
        runs = [(partial(sq.verify, seq), sq.verify(seq),
                 [(1 << (seq.n - 1 - x)) - 1 for x in range(seq.n - 1)]) for seq in seqs]
        runs += [(partial(lg.count, 42, workers=2), lg.count(42), 10**9),
                 (partial(kr.scan_k_radius_primes, 3, 3000, workers=2),
                  kr.scan_k_radius_primes(3, 3000), (0, [])),
                 (partial(kr.density_scan, 3, 3000, workers=2), kr.density_scan(3, 3000), (0, []))]
        monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
        parent = os.getpid()

        def lying_send(conn, fn, share):
            conn.send([lie] * len(share))
            sys.exit(1)

        def dies_in_a_child(task, death):
            def run(*args):
                if os.getpid() != parent:
                    if death == "os-exit":
                        os._exit(1)
                    raise RuntimeError("a task failed in a child")
                return task(*args)
            return run

        # without sending, a child exits, calls os._exit or raises in a task
        deaths = ["lie"] if sends else ["exit", "os-exit", "raise"]
        for death in deaths:
            with pytest.MonkeyPatch.context() as mp:
                if death in ("lie", "exit"):
                    mp.setattr(sq, "_send", lying_send if sends else lambda *args: sys.exit(1))
                else:
                    for owner, name in [(sq, "_marked_rows"), (lg._Engine, "count"),
                                        (kr, "_scan_interval")]:
                        mp.setattr(owner, name, dies_in_a_child(getattr(owner, name), death))
                for run, expected, lie in runs:
                    assert run() == expected, (death, run)
        assert [c.exitcode for c in children] == [1] * (len(runs) * len(deaths))
        # a failed child prints nothing, not even a traceback
        assert capfd.readouterr() == ("", "")

    def test_short_sequence_starts_no_process(self, monkeypatch, no_process):
        seq = sq.RadiusSequence(3, 1, straddle_without_run(1, half=1000))
        assert len(seq) * seq.k < sq._SPLIT_CELLS
        assert sq.verify(seq) == (True, [])
        if sq.usable_cpus() >= 2:
            # control: the same word past the split size does fork
            monkeypatch.setattr(sq, "_SPLIT_CELLS", len(seq))
            with pytest.raises(AssertionError, match="a process was started"):
                sq.verify(seq)

    def test_one_usable_cpu_starts_no_process(self, monkeypatch, no_process):
        monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sq.usable_cpus() == 1
        assert sq.verify(sq.RadiusSequence(3, 2, straddle(2))) == (True, [])

    def test_other_thread_starts_no_process(self, monkeypatch, no_process):
        monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert sq.pool_size(2, 2) == 1
            assert sq.verify(sq.RadiusSequence(3, 2, straddle(3))) == (False, [(0, 2)])
            assert lg.count(42, workers=2) == KNOWN_LOG[42]
            assert kr.scan_k_radius_primes(3, 3000, workers=2) == kr.scan_k_radius_primes(3, 3000)
            assert kr.density_scan(3, 3000, workers=2) == kr.density_scan(3, 3000)
        finally:
            release.set()
            waiter.join(60)
        assert not waiter.is_alive()

    def test_unflushed_stdout_appears_once(self):
        # stdout to a pipe is block-buffered (unless PYTHONUNBUFFERED is
        # set), so "before" and the verify result are still in the buffer
        # when verify and count fork
        code = (
            "import sys\n"
            "from radiusseq import logarithms as lg, sequences as sq\n"
            "sq._SPLIT_CELLS = 1\n"
            "sys.stdout.write('before\\n')\n"
            "print(sq.verify(sq.RadiusSequence(3, 1, (0, 1, 2, 1, 0))))\n"
            "print(lg.count(42, workers=2))\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == f"before\n(False, [(0, 2)])\n{KNOWN_LOG[42]}\n"
        assert proc.stderr == ""


class TestPool:
    """pool_map, the package's one way to start a process."""

    def test_pool_map_keeps_task_order(self):
        assert sq.pool_map(abs, [-3, 1, -2], 1) == [3, 1, 2]
        assert sq.pool_map(abs, [], 2) == []
        tasks = list(range(-50, 51))
        for workers in (1, 2, 5):
            assert sq.pool_map(abs, tasks, workers) == list(map(abs, tasks))

    @needs_two_cpus
    def test_children_run_the_later_shares(self, children):
        # three shares on 3 usable CPUs, two on 2; a closure needs no pickling
        offset = 7
        assert sq.pool_map(lambda t: t + offset, list(range(10)), 3) == list(range(7, 17))
        shares = [c.share for c in children]
        assert [c.exitcode for c in children] == [0] * len(shares)
        size = sq.pool_size(3, 10)
        assert len(shares) == size - 1
        assert [t for share in shares for t in share] == list(range(10 // size, 10))

    @needs_two_cpus
    def test_error_in_a_child_share_is_raised_here(self, capfd, children):
        def task(t):
            if t == 5:
                raise ValueError(f"task {t} failed")
            return t

        with pytest.raises(ValueError, match="^task 5 failed$"):
            sq.pool_map(task, list(range(6)), 2)
        assert [c.exitcode for c in children] == [1]
        assert capfd.readouterr() == ("", "")

    @needs_two_cpus
    def test_child_that_cannot_start_is_replaced(self, monkeypatch):
        def no_fork(self):
            raise OSError("no process could be forked")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", no_fork)
        assert sq.pool_map(abs, list(range(-5, 5)), 2) == list(map(abs, range(-5, 5)))
        assert lg.count(42, workers=2) == KNOWN_LOG[42]

    def test_pool_size_is_capped(self):
        cpus = sq.usable_cpus() if FORK else 1
        assert sq.pool_size(10**9, 10**9) == cpus
        assert sq.pool_size(10**9, 1) == 1
        assert sq.pool_size(0, 10**9) == 1
        assert sq.pool_size(-5, 3) == 1
        assert sq.pool_size(2, 10**9) == min(2, cpus)

    def test_pool_size_counts_usable_cpus(self, monkeypatch):
        # under `taskset -c 0` the machine still has its CPUs, the process one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sq.usable_cpus() == 1
        assert sq.pool_size(2, 10**9) == 1
        assert sq.pool_size(10**9, 10**9) == 1

    def test_no_fork_means_one_process(self, monkeypatch, no_process):
        def no_fork_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        # as on a platform without fork
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)
        assert sq.pool_size(2, 10**9) == 1
        assert sq.pool_map(abs, [-3, 1, -2], 2) == [3, 1, 2]
        assert lg.count(42, workers=2) == KNOWN_LOG[42]


def with_offenders(n, k, length, offenders, seed=5):
    """A seeded random word over n symbols with the symbols `offenders`
    ({position: symbol}) put in."""
    rng = random.Random(seed)
    symbols = [rng.randrange(n) for _ in range(length)]
    for pos, s in offenders.items():
        symbols[pos] = s
    return sq.RadiusSequence(n, k, symbols)


class TestBlockAlphabet:
    """verify checks the alphabet block by block while it marks, and still
    names the first symbol outside it."""

    N, K, LENGTH = 40, 4, 60_000

    @pytest.fixture
    def cut(self):
        assert self.LENGTH * self.K >= sq._SPLIT_CELLS
        # the median of the positions, all marked cell by cell
        return self.LENGTH // 2

    @needs_two_cpus
    @pytest.mark.parametrize("offset", [0, K - 1, K, 20_000],
                             ids=["at-cut", "end-of-lookahead", "past-lookahead", "far"])
    def test_offender_from_the_cut_on(self, children, cut, offset):
        # at offsets below K the parent's last block reads it; past them
        # only the child does, exits 1, and the parent marks its half again
        seq = with_offenders(self.N, self.K, self.LENGTH, {cut + offset: self.N + 3})
        message = f"^symbol {self.N + 3} outside alphabet of size {self.N}$"
        with pytest.raises(AlphabetViolation, match=message):
            sq.verify(seq)
        assert [c.exitcode for c in children] == [1]
        assert [c.share for c in children] == [[(cut, self.LENGTH)]]

    @needs_two_cpus
    def test_earlier_offender_is_named(self, children, cut):
        # the later offender is smaller, so the largest symbol would be wrong
        seq = with_offenders(self.N, self.K, self.LENGTH, {100: self.N + 7, cut + 100: self.N + 1})
        with pytest.raises(AlphabetViolation, match=f"^symbol {self.N + 7} outside"):
            sq.verify(seq)
        with pytest.raises(AlphabetViolation, match=f"^symbol {self.N + 1} outside"):
            sq.verify(with_offenders(self.N, self.K, self.LENGTH, {cut + 100: self.N + 1}))
        # the first child is stopped when the parent raises, unless it
        # met its own offender first
        assert children[0].exitcode in (1, -signal.SIGTERM)
        assert children[1].exitcode == 1

    @needs_two_cpus
    def test_offender_before_the_cut_stops_the_child(self):
        # at n = 1500 the child's rows (about 140 KB) overfill the pipe, so a
        # child left to send them would block, and the join with it; the
        # subprocess's timeout turns such a hang into a failure
        code = (
            "import random\n"
            "from radiusseq import sequences as sq\n"
            "rng = random.Random(5)\n"
            "symbols = [rng.randrange(1500) for _ in range(60_000)]\n"
            "symbols[100] = 1503\n"
            "try:\n"
            "    sq.verify(sq.RadiusSequence(1500, 4, symbols))\n"
            "except sq.AlphabetViolation as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "symbol 1503 outside alphabet of size 1500\n", "")

    def test_offender_in_a_later_block(self):
        block = sq._VERIFY_BLOCK
        seq = with_offenders(self.N, 2, 3 * block, {block + 5: self.N, 2 * block + 5: self.N + 9})
        with pytest.raises(AlphabetViolation, match=f"^symbol {self.N} outside"):
            sq.verify(seq)

    @pytest.mark.parametrize("split", [False, True])
    def test_offender_beats_an_impossible_table(self, monkeypatch, split):
        if split:
            monkeypatch.setattr(sq, "_SPLIT_CELLS", 1)
        n = 10**9
        seq = sq.RadiusSequence(n, 2, [0, 1, 4_000_000_000, 2, 4_100_000_000, 3])
        with pytest.raises(AlphabetViolation, match=f"^symbol 4000000000 outside alphabet of size {n}$"):
            sq.verify(seq)


def check_against_pairs(seq):
    """verify names the first symbol outside the alphabet, or else agrees
    with brute_force_missing."""
    bad = next((s for s in seq.symbols if s >= seq.n), None)
    if bad is not None:
        with pytest.raises(AlphabetViolation, match=f"^symbol {bad} outside alphabet of size {seq.n}$"):
            sq.verify(seq)
    else:
        missing = brute_force_missing(seq)
        assert sq.verify(seq) == (not missing, missing)


@st.composite
def progression_words(draw):
    """Runs s, s+d, s+2d, ... mod n between short random words. The steps
    are any residue, so a composite n has steps that share a factor with
    it; a run has n+k-1, n+k, n+k+1 or about n+k terms; and a symbol >= n
    may replace a term of a run or follow it."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 5))
    symbols = []
    for _ in range(draw(st.integers(1, 4))):
        symbols += draw(st.lists(st.integers(0, n - 1), max_size=4))
        s, d = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        terms = n + k + draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-n, n)))
        run = [(s + t * d) % n for t in range(terms)]
        offender = draw(st.sampled_from([None, None, None, "inside", "after"]))
        if offender == "inside":
            run[draw(st.integers(0, terms - 1))] = n + draw(st.integers(0, 3))
        elif offender == "after":
            run.append(n + draw(st.integers(0, 3)))
        symbols += run
    return sq.RadiusSequence(n, k, symbols)


def plain_agreement(a, b):
    """The length of the longest common prefix, one element at a time."""
    i = 0
    while i < min(len(a), len(b)) and a[i] == b[i]:
        i += 1
    return i


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=40),
       st.sampled_from(["equal", "prefix", "first", "last", "any"]), st.data())
def test_agreement_is_the_longest_common_prefix(a, case, data):
    # b equals a, is a proper prefix of it, or differs from it in its
    # first, its last or any one element
    b = list(a)
    if case == "prefix" and a:
        b = a[:data.draw(st.integers(0, len(a) - 1))]
    elif case != "equal" and a:
        at = {"first": 0, "last": len(a) - 1}.get(case)
        if at is None:
            at = data.draw(st.integers(0, len(a) - 1))
        b[at] = (b[at] + data.draw(st.integers(1, 3))) % 4
    for x, y in ((a, b), (b, a)):
        expected = plain_agreement(x, y)
        assert sq._agreement("".join(map(str, x)), "".join(map(str, y))) == expected
        # the second view strided, as a slice of the residue table is
        strided = memoryview(array("I", [t for v in y for t in (v, 9)]))[::2]
        assert sq._agreement(memoryview(array("I", x)), strided) == expected


class TestProgressionRuns:
    """verify marks each long progression run as diagonals, and the rest
    of the sequence cell by cell."""

    @pytest.mark.parametrize("split", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(progression_words())
    def test_runs_match_pair_enumeration(self, split, seq):
        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(sq, "_SPLIT_CELLS", 1)
            check_against_pairs(seq)

    @pytest.mark.parametrize("split", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(damaged_splices())
    def test_damaged_splices_match_pair_enumeration(self, split, case):
        # a changed symbol may be p, outside the alphabet
        _, seq, _, _ = case
        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(sq, "_SPLIT_CELLS", 1)
            check_against_pairs(seq)

    @pytest.mark.parametrize("n, d", [(7, 3), (12, 5), (12, 1), (2, 1)])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 9])
    def test_a_run_is_long_from_n_plus_reach_terms(self, n, d, extra):
        # the run repeats its first and last terms around it, a step of 0
        k = 3
        run = [(4 + t * d) % n for t in range(n + k + extra)]
        symbols = array("I", run[:1] * 2 + run + run[-1:] * 2)
        expected = [(2, 2 + len(run), d)] if extra >= 0 else []
        assert sq._long_runs(symbols, n, k) == expected

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_a_step_sharing_a_factor_with_n_is_not_a_run(self, d):
        n, k = 12, 2
        symbols = array("I", [(1 + t * d) % n for t in range(4 * n)])
        assert sq._long_runs(symbols, n, k) == []
        check_against_pairs(sq.RadiusSequence(n, k, symbols))

    @pytest.mark.parametrize("at", [0, 4, 9, 10])
    def test_a_symbol_outside_the_alphabet_ends_a_run(self, at):
        # it replaces a term of a run of n + k = 10 terms, or follows it
        n, k = 7, 3
        word = [t * 2 % n for t in range(n + k)]
        word[at:at + 1] = [n + 1]
        expected = [(0, n + k, 2)] if at == n + k else []
        assert sq._long_runs(array("I", word), n, k) == expected
        check_against_pairs(sq.RadiusSequence(n, k, word))

    def test_splice_starts_no_process(self, no_process):
        # every position but the last k of each segment is marked as a
        # diagonal, so far fewer than _SPLIT_CELLS pairs are marked cell by cell
        seq = cv.sequence_from_cover(cv.two_radius_cover(653))
        assert len(seq) * seq.k >= sq._SPLIT_CELLS
        assert sq.verify(seq) == (True, [])



def rows_or_error(seq):
    """pair_rows of `seq`, or the text of the AlphabetViolation it raises."""
    try:
        return sq.pair_rows(seq)
    except AlphabetViolation as exc:
        return str(exc)


class TestCellFold:
    """pair_rows gathers the cells it marks in a set where that costs less
    than the n*n table, and both folds give the same rows."""

    @staticmethod
    def each_fold(seq, split):
        """rows_or_error(seq) with the table fold forced, then the set's.
        Past the counting bound both take the table, as pair_rows does."""
        results = []
        for fill in (10**30, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sq, "_FILL", fill)
                if split:
                    mp.setattr(sq, "_SPLIT_CELLS", 1)
                results.append(rows_or_error(seq))
        return results

    @pytest.mark.parametrize("split", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(radius_sequences())
    def test_random_words_fold_alike(self, split, seq):
        table, cells = self.each_fold(seq, split)
        assert table == cells == rows_or_error(seq)

    @pytest.mark.parametrize("split", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(damaged_splices())
    def test_damaged_splices_fold_alike(self, split, case):
        # a changed symbol, a swap or a deletion; a changed symbol may be p,
        # outside the alphabet, which both folds name
        _, seq, _, _ = case
        table, cells = self.each_fold(seq, split)
        assert table == cells == rows_or_error(seq)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls of _marks_table and _long_runs made in the test, in order."""
        made = []
        for name in ("_marks_table", "_long_runs"):
            real = getattr(sq, name)
            monkeypatch.setattr(sq, name, lambda *args, name=name, real=real:
                                made.append(name) or real(*args))
        return made

    def test_small_prime_splice_gathers_cells(self, calls):
        rows = sq.pair_rows(cv.sequence_from_cover(cv.prime_cover(139, 3)))
        assert calls == ["_long_runs"]
        assert sum(map(int.bit_count, rows)) == math.comb(139, 2)

    def test_random_word_marks_the_table(self, calls):
        rng = random.Random(9)
        seq = sq.RadiusSequence(50, 3, [rng.randrange(50) for _ in range(1000)])
        assert math.comb(50, 2) <= len(seq) * seq.k  # the counting bound holds
        missing = brute_force_missing(seq)
        assert sq.verify(seq) == (not missing, missing)
        assert calls == ["_long_runs", "_marks_table"]

    def test_header_past_the_counting_bound_marks_the_table_first(self, calls):
        # one run of n + 1 terms meets n pairs at k = 1, far below C(n,2):
        # the table comes before the run search, as for an impossible n
        n = 3000
        rows = sq.pair_rows(sq.RadiusSequence(n, 1, [t % n for t in range(n + 1)]))
        assert calls == ["_marks_table", "_long_runs"]
        assert sum(map(int.bit_count, rows)) == n
        assert rows[0] == 1 << (n - 2) | 1 and rows[1] == 1 << (n - 3)


def clear_ys(rows):
    """The oracle of missing_rows: [(x, ys)] bit by bit."""
    n = len(rows) + 1
    listed = [(x, [y for y in range(x + 1, n) if not row >> (n - 1 - y) & 1])
              for x, row in enumerate(rows)]
    return [(x, ys) for x, ys in listed if ys]


@st.composite
def pair_row_lists(draw):
    """n-1 rows of pair_rows' shape, each with no, one, a few, most or all
    of its bits clear."""
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for x in range(n - 1):
        width = n - 1 - x
        clear = rng.choice([0, 1, min(width, 3), width - width // 8, width])
        rows.append(((1 << width) - 1) & ~sum(1 << b for b in rng.sample(range(width), clear)))
    return rows


@pytest.mark.parametrize("few", [0, None, 10**9], ids=["find", "default", "compress"])
@settings(max_examples=200, deadline=None)
@given(pair_row_lists())
def test_missing_rows_lists_every_clear_bit(few, rows):
    with pytest.MonkeyPatch.context() as mp:
        if few is not None:
            mp.setattr(sq, "_FEW_CLEAR", few)
        assert list(sq.missing_rows(rows)) == clear_ys(rows)


class TestLowerBound:
    @pytest.mark.parametrize("n,k,expected", [(5, 2, 6), (2, 1, 2), (7, 3, 8)])
    def test_examples(self, n, k, expected):
        assert sq.lower_bound(n, k) == expected

    def test_strictness(self):
        for n in range(2, 30):
            for k in range(1, 8):
                assert sq.lower_bound(n, k) * k > math.comb(n, 2)


def reference_naive_symbols(n):
    """The pairwise append loop that naive_sequence replaced."""
    symbols = array("I")
    for x in range(n):
        for y in range(x + 1, n):
            symbols.append(x)
            symbols.append(y)
    return symbols


class TestNaiveSequence:
    def test_lengths_and_verification_grid(self):
        for n in range(2, 41):
            for k in range(1, 11):
                seq = sq.naive_sequence(n, k)
                assert len(seq) == 2 * math.comb(n, 2)
                assert sq.verify(seq)[0], (n, k)

    def test_two_symbols(self):
        assert sq.naive_sequence(2, 1).symbols.tolist() == [0, 1]

    def test_exceeds_lower_bound(self):
        for n in range(2, 20):
            for k in (1, 2, 5):
                seq = sq.naive_sequence(n, k)
                assert len(seq) > math.comb(n, 2) / k

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_pairwise_loop(self, k):
        for n in range(1, 65):
            assert sq.naive_sequence(n, k).symbols == reference_naive_symbols(n), n

    def test_impossible_length_is_one_error(self):
        # 2 * C(n, 2) symbols of 4 bytes: the allocation fails at once
        n = 10**9
        length = 2 * math.comb(n, 2)
        with pytest.raises(RadiusSeqError, match=rf"^n={n} needs a sequence of {length} "
                                                 rf"symbols \({4 * length} bytes\)"):
            sq.naive_sequence(n, 2)


def reference_one_radius_trail(n):
    """The Hierholzer walk over explicit edge ids that one_radius_optimal
    replaced: neighbours in ascending order, then the doubled matching
    edge {v, v^1} for even n and v >= 2."""
    if n == 1:
        return [0]
    edges = [(x, y) for x in range(n) for y in range(x + 1, n)]
    if n % 2 == 0:
        edges.extend((2 * i, 2 * i + 1) for i in range(1, (n - 2) // 2 + 1))
    adj = [[] for _ in range(n)]
    for eid, (x, y) in enumerate(edges):
        adj[x].append((eid, y))
        adj[y].append((eid, x))
    used = bytearray(len(edges))
    ptr = [0] * n
    stack = [0]
    trail = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and used[lst[i][0]]:
            i += 1
        ptr[v] = i
        if i == len(lst):
            trail.append(stack.pop())
        else:
            eid, w = lst[i]
            used[eid] = 1
            stack.append(w)
    trail.reverse()
    return trail


class TestOneRadiusOptimal:
    # both parities, and every n the benchmark's eulerian case draws from
    @pytest.mark.parametrize("n", [*range(1, 129), 255, 256, *range(590, 611)])
    def test_trail_matches_reference(self, n):
        assert sq.one_radius_optimal(n).symbols.tolist() == reference_one_radius_trail(n)

    def exact_optimum(self, n):
        return math.comb(n, 2) + (1 if n % 2 else n // 2)

    @pytest.mark.parametrize("n", [2000, 2001])
    def test_large_trail_is_exact_and_verifies(self, n):
        seq = sq.one_radius_optimal(n)
        assert len(seq) == self.exact_optimum(n)
        assert all(map(int.__ne__, seq.symbols, seq.symbols[1:]))
        assert sq.verify(seq)[0]

    def test_impossible_length_is_one_error(self):
        # the exact length is known before any symbol, and its one
        # allocation fails at once
        n = 10**9
        length = self.exact_optimum(n)
        with pytest.raises(RadiusSeqError, match=rf"^n={n} needs a sequence of {length} "
                                                 rf"symbols \({4 * length} bytes\)"):
            sq.one_radius_optimal(n)

    def test_exact_lengths_and_verify_up_to_200(self):
        for n in range(2, 201):
            seq = sq.one_radius_optimal(n)
            assert len(seq) == self.exact_optimum(n), n
            assert sq.verify(seq)[0], n

    def test_consecutive_symbols_differ(self):
        for n in (2, 3, 4, 9, 16, 25):
            seq = sq.one_radius_optimal(n)
            assert all(a != b for a, b in zip(seq.symbols, seq.symbols[1:]))

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 8)])
    def test_small_cases(self, n, expected):
        assert len(sq.one_radius_optimal(n)) == expected

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_alphabet_is_out_of_range(self, n):
        with pytest.raises(OutOfRange, match=r"^n must be >= 1$"):
            sq.one_radius_optimal(n)


class TestShrinkAlphabet:
    def test_flagship_example(self):
        seq = sq.RadiusSequence(5, 2, (0, 1, 2, 3, 4, 0, 1))
        out = sq.shrink_alphabet(seq, 1)
        assert out.n == 4 and out.k == 2
        assert len(out) <= 5
        assert sq.verify(out)[0]
        # frequency tie between 0 and 1 resolves to deleting 0
        assert out.symbols.tolist() == [0, 1, 2, 3, 0]

    def test_shrink_to_single_symbol(self):
        seq = sq.naive_sequence(4, 2)
        out = sq.shrink_alphabet(seq, 3)
        assert out.n == 1
        assert sq.verify(out)[0]

    def test_naive_pipeline(self):
        out = sq.shrink_alphabet(sq.naive_sequence(4, 1), 1)
        assert out.n == 3 and sq.verify(out)[0]
        assert len(out) <= 9

    def test_length_bound(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randrange(3, 8)
            base = sq.naive_sequence(n, 2)
            x = rng.randrange(1, n)
            out = sq.shrink_alphabet(base, x)
            assert sq.verify(out)[0]
            assert len(out) <= len(base) - math.ceil(x * len(base) / n)

    @given(
        st.one_of(
            st.builds(sq.naive_sequence, st.integers(2, 12), st.integers(1, 4)),
            st.builds(sq.one_radius_optimal, st.integers(2, 20)),
            st.builds(lambda p: cv.sequence_from_cover(cv.two_radius_cover(p)),
                      st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31])),
            st.builds(lambda pk: cv.sequence_from_cover(cv.prime_cover(*pk)),
                      st.sampled_from([(5, 2), (7, 3), (13, 2), (29, 2), (37, 3),
                                       (61, 2), (11, 5), (13, 6)])),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_postcondition(self, seq, data):
        x = data.draw(st.integers(1, seq.n - 1))
        out = sq.shrink_alphabet(seq, x)
        assert out.n == seq.n - x and out.k == seq.k
        assert sq.verify(out)[0]
        assert len(out) <= len(seq) - math.ceil(x * len(seq) / seq.n)

    def test_rejects_unverified_input(self):
        with pytest.raises(NotVerified):
            sq.shrink_alphabet(sq.RadiusSequence(4, 1, (0, 1, 2, 3)), 1)

    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shrinking_a_verified_word_keeps_it_k_radius(self, n, k, data):
        symbols = data.draw(st.lists(st.integers(0, n - 1), min_size=4 * n, max_size=80))
        seq = sq.RadiusSequence(n, k, symbols)
        assume(sq.verify(seq)[0])
        freq = sorted(map(symbols.count, range(n)), reverse=True)
        for x in range(1, n):
            out = sq._drop_frequent(seq, x)
            assert (out.n, out.k) == (n - x, k)
            assert len(out) == len(seq) - sum(freq[:x])
            assert sq.verify(out)[0], (symbols, k, x)

    @given(st.integers(2, 9), st.lists(st.integers(0, 8), max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunked_drop_equals_one_list(self, n, symbols, data):
        def one_list(seq, x):
            # the whole shrunk sequence as one list, as _drop_frequent once built it
            freq = [0] * seq.n
            for s in seq.symbols:
                freq[s] += 1
            ranked = sorted(range(seq.n), key=lambda s: (-freq[s], s))
            dropped = set(ranked[:x])
            keep = [s not in dropped for s in range(seq.n)]
            relabel = list(accumulate(keep, initial=0))
            return [relabel[s] for s in seq.symbols if keep[s]]

        seq = sq.RadiusSequence(n, 2, [s % n for s in symbols])
        x = data.draw(st.integers(1, n - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sq, "_WRITE_CHUNK", 3)
            out = sq._drop_frequent(seq, x)
        assert (out.n, out.k) == (n - x, 2)
        assert out.symbols.tolist() == one_list(seq, x)


def format_text(seq, comments=None):
    return "".join(sq.format_text(seq.n, seq.k, sq.symbol_runs(seq.symbols, " "), comments))


class TestSequenceFormat:
    def test_round_trip(self):
        seq = sq.RadiusSequence(5, 2, (0, 1, 2, 3, 4, 0, 1))
        text = format_text(seq, comments=["demo run"])
        assert text.startswith("# demo run\n")
        assert sq.parse_sequence(text) == seq

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 7])
    def test_chunked_text_equals_one_join(self, monkeypatch, length):
        monkeypatch.setattr(sq, "_WRITE_CHUNK", 3)
        seq = sq.RadiusSequence(900, 2, [(37 * i) % 900 for i in range(length)])
        pieces = list(sq.format_text(seq.n, seq.k, sq.symbol_runs(seq.symbols, " "), ["a", "b c"]))
        symbols = " ".join(str(s) for s in seq.symbols)
        assert "".join(pieces) == f"# a\n# b c\nn=900 k=2\n{symbols}\n"
        assert max(len(p.split()) for p in pieces) <= 3

    def test_empty_sequence_text(self):
        assert format_text(sq.naive_sequence(1, 3)) == "n=1 k=3\n\n"

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_windowed_parse_equals_whole_line(self, monkeypatch, window):
        monkeypatch.setattr(sq, "_PARSE_WINDOW", window)
        text = "n=900 k=2\n" + " ".join(str(i * 7 % 900) for i in range(50)) + "\n1 2\n"
        assert sq.parse_sequence(text).symbols.tolist() == [
            i * 7 % 900 for i in range(50)] + [1, 2]
        with pytest.raises(ValueError, match=r"with base 10: 'x'"):
            sq.parse_sequence("n=3 k=1\n0 1 2 0 1 2 x 1 y\n")
        with pytest.raises(AlphabetViolation, match="^symbol 5 outside alphabet of size 3$"):
            sq.parse_sequence(f"n=3 k=1\n0 1 2 0 1 2 5 1 {2**40} 7\n")

    def test_flags_override_header(self):
        text = "n=5 k=2\n0 1 2 3 4 0 1\n"
        seq = sq.parse_sequence(text, k=3)
        assert seq.k == 3 and seq.n == 5

    def test_headerless_needs_flags(self):
        with pytest.raises(ValueError):
            sq.parse_sequence("0 1 0\n")
        seq = sq.parse_sequence("0 1 0\n", n=2, k=1)
        assert seq.symbols.tolist() == [0, 1, 0]

    def test_header_without_radius(self):
        with pytest.raises(ValueError, match="no 'k=' field"):
            sq.parse_sequence("n=5\n0 1 2 3 4\n")

    def test_header_token_without_equals(self):
        with pytest.raises(ValueError, match="has a token 'k' without '='"):
            sq.parse_sequence("n=5 k\n0 1 2 3 4\n")

    def test_header_field_given_twice(self):
        # the later n= would otherwise win and the sequence verify at n = 4
        with pytest.raises(ValueError, match="^sequence header 'n=3 k=1 n=4' has more than one 'n=' field$"):
            sq.parse_sequence("n=3 k=1 n=4\n0 1 2\n")

    def test_bad_symbol_names_the_token(self):
        with pytest.raises(ValueError, match=r"invalid literal for int\(\) with base 10: 'x'"):
            sq.parse_sequence("n=3 k=1\n0 1\n2 x 1\n")

    def test_comments_ignored(self):
        text = "# comment\n# another\nn=2 k=1\n0 1\n"
        assert sq.parse_sequence(text).symbols.tolist() == [0, 1]


# the characters of a drawn token: digits, whitespace, and what int() or
# the JSON scanner read as part of a number or a literal, and a non-ASCII digit
TOKEN_CHARS = "0123456789 \t-+_.etruefalsn\u0663"


def int_tokens(window):
    """The int() reading of a window: the oracle of the JSON fast path."""
    return list(map(int, window.split()))


def parse_outcome(text):
    """parse_sequence's (n, k, symbols), or the type and text of its error."""
    try:
        seq = sq.parse_sequence(text)
    except (ValueError, RadiusSeqError) as exc:
        return type(exc), str(exc)
    return seq.n, seq.k, seq.symbols.tolist()


@st.composite
def symbol_lines(draw):
    token = st.one_of(
        st.integers(0, 3000).map(str),
        st.integers(2**32 - 2, 2**33).map(str),
        st.tuples(st.integers(1, 3), st.integers(0, 99)).map(lambda t: "0" * t[0] + str(t[1])),
        st.text(TOKEN_CHARS, min_size=1, max_size=6),
    )
    sep = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])
    lines = draw(st.lists(st.lists(st.tuples(token, sep), max_size=12), min_size=1, max_size=4))
    return "n=3000 k=2\n" + "\n".join("".join(tok + s for tok, s in line) for line in lines) + "\n"


class TestParseFastPath:
    @pytest.mark.parametrize("window", [None, 1, 2, 5])
    @settings(max_examples=200, deadline=None)
    @given(symbol_lines())
    def test_json_path_matches_int(self, window, text):
        with pytest.MonkeyPatch.context() as mp:
            if window is not None:
                mp.setattr(sq, "_PARSE_WINDOW", window)
            fast = parse_outcome(text)
            mp.setattr(sq, "_tokens", int_tokens)
            assert fast == parse_outcome(text)

    def test_digit_limit_falls_back_to_int(self):
        text = "n=5 k=2\n0 1 " + "1" * 5000 + "\n"
        fast = parse_outcome(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sq, "_tokens", int_tokens)
            assert fast == parse_outcome(text)

    @pytest.mark.parametrize("window,scanned", [
        ("0 12 3000", True), (f"7 {2**40}", True), ("01 2", True), ("1  2", True),
        ("1\t2", False), ("-1 2", False), ("+3", False), ("\u0663 1", False),
    ])
    def test_only_digits_and_spaces_reach_the_scanner(self, monkeypatch, window, scanned):
        # a window the scanner refuses ("01", a double space) is read by int() after it
        calls = []
        loads = sq.json.loads
        monkeypatch.setattr(sq.json, "loads", lambda text: calls.append(text) or loads(text))
        assert sq._tokens(window) == int_tokens(window)
        assert calls == (["[" + window.replace(" ", ",") + "]"] if scanned else [])


def split_oracle(text, n=None, k=None):
    """parse_sequence as int() over split() of each symbol line: no window,
    no JSON scanner and no stretch reader."""
    lines = list(sq.content_lines(text))
    header = [None, None]
    if lines and lines[0].startswith("n="):
        header = sq.parse_fields(lines.pop(0), "sequence header", ("n", "k"))
    values = [int(tok) for line in lines for tok in line.split()]
    n = header[0] if n is None else n
    k = header[1] if k is None else k
    if n is None or k is None:
        raise ValueError("alphabet size and radius not given and no header found")
    return sq.RadiusSequence(n, k, values)


def outcome(parse, text, n=None):
    """parse(text, n=n)'s (n, k, symbols), or the type and text of its error."""
    try:
        seq = parse(text, n=n)
    except (ValueError, RadiusSeqError) as exc:
        return type(exc), str(exc)
    return seq.n, seq.k, seq.symbols.tolist()


# tokens that int() reads but that are not the canonical name of a residue,
# tokens outside the alphabet or past 32 bits, and one that int() refuses
ODD_TOKENS = ["007", "+5", "1_0", "-1", "00", str(2**32), str(2**32 + 3), "x"]


@st.composite
def stretch_texts(draw):
    """(text, n override or None): an (n, k) header over a word of
    progression stretches of any step mod n, 0 and n-1 included, damaged
    by changed symbols, a deleted run and swaps, with some tokens written
    as ODD_TOKENS or symbols n and above, and some separators as two
    spaces, a tab or a line break."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 4))
    word = []
    for _ in range(draw(st.integers(1, 5))):
        s, d = draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 1, n - 1]) | st.integers(0, n - 1))
        length = draw(st.sampled_from([1, 7, 8, 9]) | st.integers(1, 200))
        word += [(s + i * d) % n for i in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(word) - 1))
        damage = draw(st.sampled_from(["change", "delete", "swap"]))
        if damage == "change":
            word[at] = draw(st.integers(0, n - 1))
        elif damage == "delete":
            del word[at:at + draw(st.integers(1, 30))]
        else:
            other = draw(st.integers(0, len(word) - 1))
            word[at], word[other] = word[other], word[at]
        if not word:
            word = [0]
    tokens = [str(s) for s in word]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens) - 1))
        # a name that the expected one is a prefix of, too: "7" as "70" or "7_1"
        tokens[at] = draw(st.sampled_from(ODD_TOKENS) | st.integers(n, n + 40).map(str)
                          | st.sampled_from(["0", "1", "_1", "00"]).map(tokens[at].__add__))
    seps = [" "] * len(tokens)
    for _ in range(draw(st.integers(0, 3))):
        seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(["  ", "\t", "\n", " \n "]))
    body = "".join(tok + sep for tok, sep in zip(tokens, seps))
    override = draw(st.none() | st.integers(2, 40))
    return f"# drawn\nn={n} k={k}\n{body}\n", override


class TestStretchReader:
    @pytest.mark.parametrize("window", [None, 1, 9, 100])
    @pytest.mark.parametrize("copies", [None, 1, 2])
    @settings(max_examples=150, deadline=None)
    @given(stretch_texts())
    def test_matches_split_oracle(self, window, copies, case):
        # the gate is lowered so that the reader reads every drawn text,
        # and a table of 1 or 2 copies makes its pieces wrap often
        text, override = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sq, "_READ_GATE", 0)
            if window is not None:
                mp.setattr(sq, "_PARSE_WINDOW", window)
            if copies is not None:
                mp.setattr(sq, "_TABLE_REPEATS", copies)
            assert outcome(sq.parse_sequence, text, override) == outcome(split_oracle, text, override)

    @pytest.mark.parametrize("copies", [1, 64])
    @pytest.mark.parametrize("at", [0, 6, 7, 8, 29, 30, 31, 59])
    @pytest.mark.parametrize("suffix", ["0", "_1", " 0", "\t0"])
    def test_a_token_that_extends_a_term_is_whole(self, monkeypatch, copies, at, suffix):
        # the term's name agrees with the start of the token: at the end of
        # the probe (7), of a piece inside a table of one copy (29, 59) or
        # of the window, it must still be read as the whole token
        monkeypatch.setattr(sq, "_READ_GATE", 0)
        monkeypatch.setattr(sq, "_TABLE_REPEATS", copies)
        tokens = [str(i % 30) for i in range(60)]
        tokens[at] += suffix
        text = "n=30 k=1\n" + " ".join(tokens) + "\n"
        assert outcome(sq.parse_sequence, text) == outcome(split_oracle, text)
        tokens[at] = "0" + tokens[at]
        text = "n=30 k=1\n" + " ".join(tokens) + "\n"
        assert outcome(sq.parse_sequence, text) == outcome(split_oracle, text)

    def read_through_tokens(self, monkeypatch, text, **kwargs):
        """(parse_sequence(text), how many tokens _tokens read)."""
        tokens, read = sq._tokens, []
        monkeypatch.setattr(sq, "_tokens", lambda window: read.append(tokens(window)) or read[-1])
        seq = sq.parse_sequence(text, **kwargs)
        return seq, sum(map(len, read))

    @pytest.mark.parametrize("n, d", [(7, 3), (12, 5), (101, 1), (101, 100), (2011, 1728)])
    def test_progressions_are_read_as_stretches(self, monkeypatch, n, d):
        monkeypatch.setattr(sq, "_READ_GATE", 0)
        word = [(3 + i * d) % n for i in range(70 * n)]
        seq, plain = self.read_through_tokens(monkeypatch, f"n={n} k=2\n" + " ".join(map(str, word)))
        assert seq.symbols.tolist() == word and plain == 0

    def test_damage_is_read_through_tokens_near_it(self, monkeypatch):
        # a changed symbol fails one probe, which hands the next few tokens
        # to _tokens; then the stretch is read again
        monkeypatch.setattr(sq, "_READ_GATE", 0)
        n, word = 1009, [i * 17 % 1009 for i in range(20_000)]
        word[5000] = 3
        text = f"n={n} k=2\n" + " ".join(map(str, word))
        seq, plain = self.read_through_tokens(monkeypatch, text)
        assert seq.symbols.tolist() == word and 0 < plain <= 2 * sq._RUN_PROBE

    def test_gate_reads_a_splice_as_stretches(self, monkeypatch):
        # a (2011, 3) prime splice holds more than _READ_GATE characters
        # per symbol, at the gate's real value
        seq = cv.sequence_from_cover(cv.prime_cover(2011, 3))
        text = format_text(seq)
        assert len(text) >= sq._READ_GATE * seq.n
        parsed, plain = self.read_through_tokens(monkeypatch, text)
        assert parsed.symbols == seq.symbols and plain < len(seq) // 1000

    def test_override_n_builds_its_own_tables(self, monkeypatch):
        # the header's n=5 would read nothing here; --n 2011 reads stretches
        monkeypatch.setattr(sq, "_READ_GATE", 0)
        word = [i * 10 % 2011 for i in range(5000)]
        text = "n=5 k=2\n" + " ".join(map(str, word))
        seq, plain = self.read_through_tokens(monkeypatch, text, n=2011)
        assert (seq.n, seq.symbols.tolist(), plain) == (2011, word, 0)

    def test_huge_header_n_builds_no_table(self):
        # n = 4*10**9 against a few symbols: below the gate, so none of the
        # reader's O(n) tables is built, and nothing near n bytes is held
        text = "n=4000000000 k=1\n0 1 2 3999999999 2\n"
        tracemalloc.start()
        try:
            seq = sq.parse_sequence(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (seq.n, seq.symbols.tolist()) == (4_000_000_000, [0, 1, 2, 3999999999, 2])
        assert peak < 64 * 1024


def held_bytes(build):
    """(result, bytes that tracemalloc still counts once build() returns)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestStorage:
    def test_every_producer_stores_an_unsigned_array(self):
        seqs = [
            cv.sequence_from_cover(cv.prime_cover(37, 2)),
            tl.tiling_sequence(20, 2)[0],
            sq.parse_sequence("n=3 k=1\n0 1\n2\n"),
            sq.shrink_alphabet(sq.RadiusSequence(5, 2, (0, 1, 2, 3, 4, 0, 1)), 1),
            sq.naive_sequence(4, 2),
            sq.one_radius_optimal(6),
            sq.one_radius_optimal(1),
            sq.RadiusSequence(3, 1, iter([0, 1, 2])),
        ]
        for seq in seqs:
            assert isinstance(seq.symbols, array) and seq.symbols.typecode == "I"

    def test_array_is_kept_as_given(self):
        symbols = array("I", [0, 1, 2])
        assert sq.RadiusSequence(3, 1, symbols).symbols is symbols

    def test_one_pass_iterator_names_first_offender(self):
        with pytest.raises(AlphabetViolation, match="^symbol 7 outside alphabet of size 3$"):
            sq.RadiusSequence(3, 1, iter([0, 7, -1]))

    def test_alphabet_beyond_32_bits_rejected(self):
        with pytest.raises(ValueError, match="at most 2"):
            sq.RadiusSequence(2**32 + 1, 1, ())

    def test_splice_and_parse_hold_few_bytes_per_symbol(self):
        # a tuple of ints held about 34 bytes per symbol; the array holds 4
        plan = cv.prime_cover(1447, 3)
        seq, held = held_bytes(lambda: cv.sequence_from_cover(plan))
        assert held <= 6 * len(seq)
        text = format_text(seq)
        parsed, held = held_bytes(lambda: sq.parse_sequence(text))
        assert parsed.symbols == seq.symbols
        assert held <= 6 * len(seq)

    def test_parse_of_one_long_line_peaks_low(self):
        # split() of the whole line peaked near 96 bytes per symbol; the
        # windows leave the line copy from splitlines() and the array
        m = 500_000
        text = "n=70000 k=3\n" + " ".join(str(i * 7919 % 70000) for i in range(m)) + "\n"
        tracemalloc.start()
        try:
            parsed = sq.parse_sequence(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed) == m and parsed.symbols[1] == 7919
        assert peak <= 16 * m
