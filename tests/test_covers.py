import hashlib
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiusseq import covers as cv
from radiusseq import kradius as kr
from radiusseq import numtheory as nt
from radiusseq import sequences as sq
from radiusseq import tilings as tl
from radiusseq.errors import CoverIncomplete, NotKRadiusPrime


class TestBlocks:
    def test_block_B_examples(self):
        assert cv.block_B(1, 2, 7) == {1, 2, 5, 6}
        assert cv.block_B(4, 2, 7) == {1, 3, 4, 6}

    def test_block_B_size_always_2k(self):
        for p in (7, 11, 13, 17):
            for k in range(1, (p - 1) // 2 + 1):
                for d in range(1, p):
                    assert len(cv.block_B(d, k, p)) == 2 * k

    def test_block_A_examples(self):
        assert cv.block_A(1, 3, 13) == {1, 2, 3}
        assert cv.block_A(2, 3, 13) == {2, 4, 6}

    def test_B_is_A_union_minus_A(self):
        for d in range(1, 13):
            a = cv.block_A(d, 3, 13)
            assert cv.block_B(d, 3, 13) == a | {13 - x for x in a}

    def test_rejects_zero_multiplier_and_small_p(self):
        with pytest.raises(ValueError):
            cv.block_B(7, 2, 7)
        with pytest.raises(ValueError):
            cv.block_B(1, 3, 5)


class TestVerifyCover:
    def test_examples(self):
        assert cv.verify_cover(cv.CoverPlan(5, 2, (1,))) == (True, set())
        ok, uncovered = cv.verify_cover(cv.CoverPlan(7, 2, (1,)))
        assert not ok and uncovered == {3, 4}
        assert cv.verify_cover(cv.CoverPlan(7, 2, (1, 4)))[0]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            cv.CoverPlan(9, 2, (1,))  # not prime
        with pytest.raises(ValueError):
            cv.CoverPlan(5, 3, (1,))  # p < 2k+1
        with pytest.raises(ValueError):
            cv.CoverPlan(7, 2, (1, 1))  # duplicates


def splice_oracle(plan):
    """Per-symbol splice: each segment is materialised term by term."""
    p, k = plan.p, plan.k
    symbols = []
    start = 0
    for idx, d in enumerate(plan.multipliers):
        a = start * pow(d, -1, p) % p
        segment = [(a + j) * d % p for j in range(p + k)]
        symbols.extend(segment[1:] if idx > 0 else segment)
        start = segment[-1]
    return tuple(symbols)


SMALL_PRIMES = [p for p in nt.primes(400) if p >= 5]
SMALL_PRIME_COVERS = [
    (p, k)
    for p in SMALL_PRIMES
    for k in range(1, (p - 1) // 2 + 1)
    if (p - 1) % (2 * k) == 0 and kr.is_k_radius_prime(p, k)
]


@st.composite
def shuffled_covers(draw):
    """A shuffled prime cover, two-radius cover, or superset of a cover."""
    kind = draw(st.sampled_from(["prime", "two-radius", "superset"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "prime":
        p, k = draw(st.sampled_from(SMALL_PRIME_COVERS))
        mult = list(cv.prime_cover(p, k).multipliers)
    elif kind == "two-radius":
        p, k = draw(st.sampled_from(SMALL_PRIMES)), 2
        mult = list(cv.two_radius_cover(p).multipliers)
    else:
        p = draw(st.sampled_from(SMALL_PRIMES))
        k = draw(st.integers(1, (p - 1) // 2))
        # a greedy cover over a random order of Z_p*, then random extras
        pool = list(range(1, p))
        rng.shuffle(pool)
        mult, covered = [], set()
        for d in pool:
            block = cv.block_B(d, k, p)
            if not block <= covered:
                mult.append(d)
                covered |= block
        rest = sorted(set(pool) - set(mult))
        mult += rng.sample(rest, rng.randint(0, min(len(rest), len(mult))))
    rng.shuffle(mult)
    return cv.CoverPlan(p, k, tuple(mult))


def check_against_oracle(plan):
    seq = cv.sequence_from_cover(plan)
    assert seq.symbols.tolist() == list(splice_oracle(plan))
    assert len(seq) == len(plan.multipliers) * (plan.p + plan.k - 1) + 1 == plan.length
    assert sq.verify(seq)[0]


def digest(seq):
    return hashlib.sha256(",".join(map(str, seq.symbols)).encode()).hexdigest()


class TestSequenceFromCover:
    @given(shuffled_covers())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_symbol_oracle(self, plan):
        check_against_oracle(plan)

    @given(shuffled_covers())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_with_one_table_copy(self, plan):
        # a table of one copy of 0..p-1: most segments cross its end
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cv, "_TABLE_REPEATS", 1)
            check_against_oracle(plan)

    @pytest.mark.parametrize("p", [5, 7, 13, 101, 1009])
    def test_single_multiplier_plan(self, p):
        # d = -1 with k = (p-1)/2 covers Z_p* alone; the table is one copy
        check_against_oracle(cv.CoverPlan(p, (p - 1) // 2, (p - 1,)))

    def test_pinned_symbols_p3181_k5(self):
        seq = cv.sequence_from_cover(cv.prime_cover(3181, 5))
        assert len(seq) == 1012831
        assert digest(seq) == "b11ac1615162629f00f2b39c7b9a0512b5ee7816bbee1f1d09c026c36295a626"

    def test_pinned_symbols_two_radius_p1151(self):
        # recorded from the splice that reduced one Python int per symbol;
        # the tiling cover at p = 3359 is pinned in test_tilings.PINNED
        seq = cv.sequence_from_cover(cv.two_radius_cover(1151))
        assert len(seq) == 288 * 1152 + 1
        assert digest(seq) == "e1d5c37cb8057c2d3f94fee6bc06a5b23d263f2e05c3ba8cf3231c60302aa624"

    def test_flagship_value(self):
        seq = cv.sequence_from_cover(cv.CoverPlan(5, 2, (1,)))
        assert len(seq) == 7
        assert sq.verify(seq)[0]

    def test_two_block_plan(self):
        seq = cv.sequence_from_cover(cv.CoverPlan(7, 2, (1, 4)))
        assert len(seq) == 17
        assert sq.verify(seq)[0]

    def test_length_formula_generic(self):
        for p, k, mult in [(11, 2, (1, 2, 3)), (13, 3, (1, 2)), (17, 2, (1, 3, 5, 7))]:
            plan = cv.CoverPlan(p, k, mult)
            if not cv.verify_cover(plan)[0]:
                continue
            seq = cv.sequence_from_cover(plan)
            assert len(seq) == len(mult) * (p + k - 1) + 1

    def test_incomplete_cover_rejected(self):
        with pytest.raises(CoverIncomplete):
            cv.sequence_from_cover(cv.CoverPlan(7, 2, (1,)))

    def test_cover_checked_once_per_plan(self, monkeypatch):
        # a plan is immutable, so sequence_from_cover and the certificate
        # share one verify_cover verdict, and each keeps its contract
        calls = []
        verify_cover = cv.verify_cover
        monkeypatch.setattr(cv, "verify_cover", lambda plan: calls.append(plan) or verify_cover(plan))
        gap = cv.CoverPlan(7, 2, (1,))
        with pytest.raises(CoverIncomplete):
            cv.sequence_from_cover(gap)
        assert cv.check_splice(gap, sq.RadiusSequence(7, 2, splice(7, 2, (1,)))) == -1
        plan = cv.CoverPlan(7, 2, (1, 4))
        assert cv.check_splice(plan, cv.sequence_from_cover(plan)) is None
        assert calls == [gap, plan]

    def test_random_covering_plans(self):
        import random

        rng = random.Random(97)
        built = 0
        for _ in range(200):
            p = rng.choice([p for p in nt.primes(61) if p >= 7])
            k = rng.randrange(1, (p - 1) // 2 + 1)
            mult = []
            covered = set()
            pool = list(range(1, p))
            rng.shuffle(pool)
            for d in pool:
                if covered >= set(range(1, p)):
                    break
                new = cv.block_B(d, k, p)
                if not new <= covered:
                    mult.append(d)
                    covered |= new
            plan = cv.CoverPlan(p, k, tuple(mult))
            if not cv.verify_cover(plan)[0]:
                continue
            seq = cv.sequence_from_cover(plan)
            built += 1
            assert len(seq) == len(mult) * (p + k - 1) + 1
            assert sq.verify(seq)[0], (p, k, mult)
        assert built > 150


def splice(p, k, multipliers, start=0):
    """Step-d progressions of p+k terms, each from the last term of the one
    before, the first from `start`; for start 0 this is splice_oracle."""
    symbols = [start]
    for d in multipliers:
        s = symbols[-1]
        symbols += [(s + j * d) % p for j in range(1, p + k)]
    return symbols


DAMAGE = ["none", "change", "swap", "delete", "n", "k"]


def random_multipliers(draw, max_p, cover):
    """(p, k, multipliers): a random list over a prime p <= max_p, completed
    to a cover in a random order of the rest when `cover` is true."""
    p = draw(st.sampled_from([p for p in SMALL_PRIMES if p <= max_p]))
    k = draw(st.integers(1, (p - 1) // 2))
    mult = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=12, unique=True))
    if cover:
        rest = draw(st.permutations(sorted(set(range(1, p)) - set(mult))))
        covered = set().union(*(cv.block_B(d, k, p) for d in mult))
        for d in rest:
            if not cv.block_B(d, k, p) <= covered:
                mult.append(d)
                covered |= cv.block_B(d, k, p)
    return p, k, mult


@st.composite
def damaged_splices(draw):
    """(plan, sequence, damage, first damaged position): a splice of a random
    multiplier list, covering or not, at a random start, then one damage."""
    p, k, mult = random_multipliers(draw, 61, draw(st.booleans()))
    plan = cv.CoverPlan(p, k, tuple(mult))
    symbols = splice(p, k, mult, draw(st.integers(0, p - 1)))
    damage = draw(st.sampled_from(DAMAGE))
    n, radius, at = p, k, None
    if damage in ("change", "swap", "delete"):
        at = draw(st.integers(0, len(symbols) - 1))
    if damage == "change":
        symbols[at] = draw(st.integers(0, p).filter(lambda s: s != symbols[at]))
    elif damage == "swap":
        other = draw(st.sampled_from([j for j, s in enumerate(symbols) if s != symbols[at]]))
        symbols[at], symbols[other] = symbols[other], symbols[at]
        at = min(at, other)
    elif damage == "delete":
        del symbols[at]
    elif damage == "n":
        n = draw(st.sampled_from([p - 1, p + 1]))
    elif damage == "k":
        radius = draw(st.sampled_from([r for r in (k - 1, k + 1) if r >= 1]))
    return plan, sq.RadiusSequence(n, radius, symbols), damage, at


class TestCheckSplice:
    @given(damaged_splices())
    @settings(max_examples=300, deadline=None)
    def test_sound_against_verify(self, case):
        plan, seq, damage, at = case
        failed = cv.check_splice(plan, seq)
        if failed is None:
            assert sq.verify(seq)[0]
        if not cv.verify_cover(plan)[0]:
            assert failed == -1
        elif damage == "none":
            assert failed is None
        elif damage in ("change", "swap"):
            # the first segment holding the damaged position fails; a
            # step-d progression is fixed by any one of its terms
            assert failed == max(0, (at - 1) // (plan.p + plan.k - 1))
        else:
            assert failed == -1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shrinking_a_certified_splice_keeps_it_k_radius(self, data):
        # --shrink checks only the p-ary splice: deleting symbols moves no
        # two remaining occurrences apart, and the relabelling is injective
        p, k, mult = random_multipliers(data.draw, 31, True)
        plan = cv.CoverPlan(p, k, tuple(mult))
        seq = cv.sequence_from_cover(plan)
        assert cv.check_splice(plan, seq) is None
        freq = sorted(map(seq.symbols.count, range(p)), reverse=True)
        for x in range(1, p):
            out = sq._drop_frequent(seq, x)
            assert (out.n, out.k) == (p - x, k)
            assert len(out) == len(seq) - sum(freq[:x])
            assert sq.verify(out)[0], (p, k, mult, x)

    @pytest.mark.parametrize(
        "plan",
        [cv.prime_cover(3181, 5), cv.two_radius_cover(1151), cv.CoverPlan(5, 2, (1,))],
        ids=["prime-p3181", "two-radius-p1151", "flagship"],
    )
    def test_accepts_the_splice_and_rejects_one_changed_symbol(self, plan):
        symbols = cv.sequence_from_cover(plan).symbols
        assert cv.check_splice(plan, sq.RadiusSequence(plan.p, plan.k, symbols)) is None
        at = len(symbols) // 2
        symbols[at] = (symbols[at] + 1) % plan.p
        failed = cv.check_splice(plan, sq.RadiusSequence(plan.p, plan.k, symbols))
        assert failed == max(0, (at - 1) // (plan.p + plan.k - 1))

    @pytest.mark.parametrize("value", [5, 2**32 - 1])
    @pytest.mark.parametrize("multipliers", [(2,), (1, 2)])
    def test_first_symbol_outside_the_alphabet(self, multipliers, value):
        # only segment 0 can start outside the alphabet: every later
        # segment's start is the last symbol of the one before, compared there
        plan = cv.CoverPlan(5, 2, multipliers)
        symbols = splice(5, 2, multipliers)
        symbols[0] = value
        assert cv.check_splice(plan, sq.RadiusSequence(5, 2, symbols)) == 0


def materialize(plan, pieces, copies=None):
    """The symbols that a flat list of (start, stop, step) triples spells
    out over the residue table, `copies` copies of 0..p-1."""
    table = list(range(plan.p)) * (copies or cv._copies(plan))
    return [s for i in range(0, len(pieces), 3) for s in table[slice(*pieces[i:i + 3])]]


@st.composite
def cover_plans(draw):
    """A covering plan of every cover strategy: prime, two-radius or a
    superset of a cover (shuffled_covers), or a tiling plan."""
    if draw(st.booleans()):
        return draw(shuffled_covers())
    return tl.tiling_plan(draw(st.integers(2, 60)), draw(st.integers(1, 4)))[0]


PIECE_DAMAGE = ["none", "step", "start", "stop", "junction", "length", "trailing"]


@st.composite
def damaged_pieces(draw):
    """(plan, triples laid end to end, damage): the walk of a covering
    plan from a random start, in pieces of at most 1 to 7 terms, then one
    damage. "start" moves a piece other than the first to another residue,
    "stop" changes its number of terms, "junction" starts a later segment
    at the junction itself rather than one step past it, and "length"
    walks the same multipliers at radius k-1 or k+1."""
    plan = draw(cover_plans())
    p, k, mult = plan.p, plan.k, plan.multipliers
    start, chunk = draw(st.integers(0, p - 1)), draw(st.integers(1, 7))
    pieces = list(cv.plan_pieces(plan, start, chunk))
    damage = draw(st.sampled_from(PIECE_DAMAGE))
    if damage == "length":
        radius = draw(st.sampled_from([r for r in (k - 1, k + 1) if 1 <= r <= (p - 1) // 2]))
        pieces = list(cv.plan_pieces(cv.CoverPlan(p, radius, mult), start, chunk))
    elif damage == "trailing":
        s, stop, d = pieces[-1]
        at = (s + len(range(s, stop, d)) * d) % p
        pieces.append((at, at + d, d))
    elif damage != "none":
        # the first piece of each later segment: one past a junction
        at, firsts = 0, []
        for i, (s, stop, d) in enumerate(pieces):
            if at > 1 and (at - 1) % (p + k - 1) == 0:
                firsts.append(i)
            at += len(range(s, stop, d))
        if damage == "junction" and not firsts:
            damage = "start"
        i = draw(st.sampled_from(firsts if damage == "junction" else range(1, len(pieces))))
        s, stop, d = pieces[i]
        m = len(range(s, stop, d))
        if damage == "step":
            pieces[i] = (s, stop, draw(st.integers(1, 2 * p).filter(lambda e: e != d)))
        elif damage == "start":
            shift = draw(st.integers(1, p - 1))
            pieces[i] = (s + shift, stop + shift, d)
        elif damage == "stop":
            pieces[i] = (s, s + draw(st.integers(0, m + 2).filter(lambda e: e != m)) * d, d)
        else:
            s = (s - d) % p
            pieces[i] = (s, s + m * d, d)
    return plan, [x for piece in pieces for x in piece], damage, start


class TestSplicePieces:
    @given(st.data(), st.integers(1, 3), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_pieces_spell_out_the_certified_splice(self, data, copies, chunk):
        # the walk of a random multiplier list, covering or not, from a
        # random start: its pieces spell out the splice, and the
        # certificate accepts them exactly when the list covers
        p, k, mult = random_multipliers(data.draw, 61, data.draw(st.booleans()))
        plan = cv.CoverPlan(p, k, tuple(mult))
        start = data.draw(st.integers(0, p - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cv, "_TABLE_REPEATS", copies)
            pieces = list(cv.plan_pieces(plan, start, chunk))
            flat = array("q", [x for piece in pieces for x in piece])
            failed = cv.check_pieces(plan, flat)
        assert failed == (None if cv.verify_cover(plan)[0] else -1)
        runs = [materialize(plan, piece, min(copies, len(mult))) for piece in pieces]
        assert [s for run in runs for s in run] == splice(p, k, mult, start)
        assert all(1 <= len(run) <= chunk for run in runs)
        # each piece lies in one segment, a junction written as the last
        # symbol of the segment before it: position q is in segment
        # max(0, (q - 1) // (p + k - 1))
        segment = lambda q: max(0, (q - 1) // (p + k - 1))
        at = 0
        for run in runs:
            assert segment(at) == segment(at + len(run) - 1)
            at += len(run)

    @given(damaged_pieces())
    @settings(max_examples=200, deadline=None)
    def test_damaged_triples_are_rejected(self, case):
        plan, pieces, damage, start = case
        failed = cv.check_pieces(plan, array("q", pieces))
        if failed is None:
            # whatever the certificate accepts spells out a k-radius sequence
            assert sq.verify(sq.RadiusSequence(plan.p, plan.k, materialize(plan, pieces)))[0]
        if damage == "none":
            assert failed is None
            assert materialize(plan, pieces) == splice(plan.p, plan.k, plan.multipliers, start)
        else:
            assert failed is not None
        if damage == "trailing":
            assert failed == -1

    @pytest.mark.parametrize("cut", [1, 2])
    def test_partial_triple_is_rejected(self, cut):
        plan = cv.CoverPlan(7, 2, (1, 4))
        pieces = array("q", [x for piece in cv.plan_pieces(plan) for x in piece])
        assert cv.check_pieces(plan, pieces) is None
        assert cv.check_pieces(plan, pieces[:-cut]) == -1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_written_runs_equal_the_generic_writer(self, data):
        # the pieces of a certified splice, written with plain or shrunk
        # labels, print what symbol_runs prints for the same sequence
        p, k, mult = random_multipliers(data.draw, 31, True)
        plan = cv.CoverPlan(p, k, tuple(mult))
        start = data.draw(st.integers(0, p - 1))
        seq = sq.RadiusSequence(p, k, splice(p, k, mult, start))
        x = data.draw(st.integers(0, p - 1))
        sep = data.draw(st.sampled_from([" ", ", "]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cv, "_TABLE_REPEATS", data.draw(st.integers(1, 3)))
            pieces = array("q", [x for piece in cv.plan_pieces(
                plan, start, data.draw(st.integers(1, 7))) for x in piece])
            assert cv.check_pieces(plan, pieces) is None
            labels, length = range(p), len(seq)
            want = seq
            if x:
                labels, length = cv.shrink_labels(plan, pieces, x)
                want = sq._drop_frequent(seq, x)
            runs = list(cv.splice_runs(plan, pieces, labels, sep))
        assert length == len(want)
        assert "".join(runs) == "".join(sq.symbol_runs(want.symbols, sep))
        assert all(run.startswith(sep) for run in runs[1:])
        assert runs == [] or not runs[0].startswith(sep)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shrink_labels_count_what_drop_frequent_counts(self, data):
        p, k, mult = random_multipliers(data.draw, 31, True)
        plan = cv.CoverPlan(p, k, tuple(mult))
        start = data.draw(st.integers(0, p - 1))
        seq = sq.RadiusSequence(p, k, splice(p, k, mult, start))
        pieces = [x for piece in cv.plan_pieces(plan, start, data.draw(st.integers(1, 7)))
                  for x in piece]
        x = data.draw(st.integers(1, p - 1))
        freq = list(map(seq.symbols.count, range(p)))
        labels, length = cv.shrink_labels(plan, pieces, x)
        assert labels == sq._relabelling(freq, x)
        assert length == len(sq._drop_frequent(seq, x))


def covered(p, k, multipliers):
    return set().union(*(cv.block_B(d, k, p) for d in multipliers))


class TestIrredundant:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_keeps_the_covered_set_and_nothing_redundant(self, data):
        if data.draw(st.booleans()):
            plan = data.draw(shuffled_covers())
        else:
            # a random multiplier list, completed to a cover or not
            plan = cv.CoverPlan(*random_multipliers(data.draw, 61, data.draw(st.booleans())))
        p, k, mult = plan.p, plan.k, plan.multipliers
        kept = cv.irredundant(plan)
        assert (kept.p, kept.k) == (p, k)
        # a subsequence of the plan: each kept multiplier is found, in order
        rest = iter(mult)
        assert all(d in rest for d in kept.multipliers)
        assert covered(p, k, kept.multipliers) == covered(p, k, mult)
        # oracle: dropping any one kept multiplier uncovers some residue
        for i in range(len(kept.multipliers)):
            others = kept.multipliers[:i] + kept.multipliers[i + 1:]
            assert covered(p, k, others) != covered(p, k, mult), (plan, i)

    @pytest.mark.parametrize("p,k", [(3181, 5), (1447, 3), (7, 3)])
    def test_partition_is_kept_whole(self, p, k):
        plan = cv.prime_cover(p, k)
        assert cv.irredundant(plan) == plan

    def test_example(self):
        # mod 7, B(1) = {1, 2, 5, 6}, B(2) = {2, 3, 4, 5} and B(4) = {1, 3,
        # 4, 6} each lie in the union of the other two: whichever comes
        # first goes, and then both others are needed
        assert cv.irredundant(cv.CoverPlan(7, 2, (1, 2, 4))).multipliers == (2, 4)
        assert cv.irredundant(cv.CoverPlan(7, 2, (2, 1, 4))).multipliers == (1, 4)
        assert cv.irredundant(cv.CoverPlan(7, 2, (4, 1, 2))).multipliers == (1, 2)


class TestTwoRadiusCover:
    @pytest.mark.parametrize(
        "p,size,length",
        [(5, 1, 7), (7, 2, 17), (13, 3, 43)],
    )
    def test_examples(self, p, size, length):
        plan = cv.two_radius_cover(p)
        assert len(plan.multipliers) == size
        seq = cv.sequence_from_cover(plan)
        assert len(seq) == length
        assert sq.verify(seq)[0]

    def test_case_formula_sizes_up_to_500(self):
        for p in nt.primes(500):
            if p < 5:
                continue
            plan = cv.two_radius_cover(p)
            order = nt.multiplicative_order(2, p)
            t = (p - 1) // order
            if order % 2 == 1:
                want = (t // 2) * ((order + 1) // 2)
            else:
                want = t * math.ceil(order / 4)
            assert len(plan.multipliers) == want, p

    def test_covers_verify_sample(self):
        for p in nt.primes(200):
            if p < 5:
                continue
            plan = cv.two_radius_cover(p)
            assert cv.verify_cover(plan)[0], p
            seq = cv.sequence_from_cover(plan)
            assert sq.verify(seq)[0], p
            assert len(seq) >= sq.lower_bound(p, 2), p

    # Multipliers recorded from the implementation that paired cosets of
    # <2> explicitly; ord_2(p) is odd for 7, 23, 31, 73, 1151 and even for
    # 17, 41.
    @pytest.mark.parametrize(
        "p,multipliers",
        [
            (7, (1, 4)),
            (17, (1, 4, 3, 12)),
            (23, (1, 4, 16, 18, 3, 12)),
            (31, (1, 4, 16, 3, 12, 17, 5, 20, 18)),
            (41, (1, 4, 16, 23, 10, 3, 12, 7, 28, 30)),
            (73, (1, 4, 16, 64, 37, 3, 12, 48, 46, 38, 5, 20, 7, 28, 39, 11, 44, 30, 47, 42)),
        ],
    )
    def test_pinned_multipliers(self, p, multipliers):
        assert cv.two_radius_cover(p).multipliers == multipliers

    def test_pinned_multipliers_p1151(self):
        plan = cv.two_radius_cover(1151)
        assert len(plan.multipliers) == 288
        digest = hashlib.sha256(",".join(map(str, plan.multipliers)).encode()).hexdigest()
        assert digest == "5ae06a8e74530fb57d16cc594df4e4ebefbb3c7a2bfb79dac79c7f660eff6464"

    def test_five_mod_eight_bound(self):
        # order of 2 is divisible by 4, giving length (p^2+3)/4 exactly
        for p in nt.primes(500):
            if p % 8 != 5:
                continue
            assert nt.multiplicative_order(2, p) % 4 == 0, p
            seq = cv.sequence_from_cover(cv.two_radius_cover(p))
            assert len(seq) == math.comb(p, 2) // 2 + (p + 3) // 4, p


class TestCosetMinima:
    @staticmethod
    def generated(p, gens):
        sub, frontier = {1}, [1]
        while frontier:
            h = frontier.pop()
            for g in gens:
                if h * g % p not in sub:
                    sub.add(h * g % p)
                    frontier.append(h * g % p)
        return sub

    def test_minima_times_signed_subgroup_partition(self):
        for p in nt.primes(160):
            if p < 5:
                continue
            for gens in ([2], [3], [4], [2, 3], [p - 1], [1]):
                sub = self.generated(p, gens)
                minima = cv.coset_minima(p, sub)
                assert minima == sorted(minima) and minima[0] == 1
                parts = [{c * h * s % p for h in sub for s in (1, -1)} for c in minima]
                assert sum(map(len, parts)) == p - 1, (p, gens)
                assert set().union(*parts) == set(range(1, p)), (p, gens)
                assert all(c == min(part) for c, part in zip(minima, parts))
                t = (p - 1) // len(sub)
                assert len(minima) == (t if p - 1 in sub else t // 2), (p, gens)

    def test_examples(self):
        assert cv.coset_minima(7, {1, 2, 4}) == [1]
        assert cv.coset_minima(13, {1, 3, 9}) == [1, 2]
        assert cv.coset_minima(13, {1, 12}) == [1, 2, 3, 4, 5, 6]


class TestPrimeCover:
    def test_flagship(self):
        plan = cv.prime_cover(5, 2)
        assert plan.multipliers == (1,)
        assert len(cv.sequence_from_cover(plan)) == 7

    def test_k3_p7(self):
        plan = cv.prime_cover(7, 3)
        assert plan.multipliers == (1,)
        seq = cv.sequence_from_cover(plan)
        assert len(seq) == 10
        assert sq.verify(seq)[0]
        assert cv.block_B(1, 3, 7) == set(range(1, 7))

    def test_blocks_partition(self):
        for p, k in [(13, 3), (11, 5), (29, 7), (41, 5)]:
            if (p - 1) % (2 * k) != 0:
                continue
            try:
                plan = cv.prime_cover(p, k)
            except NotKRadiusPrime:
                continue
            blocks = [cv.block_B(d, k, p) for d in plan.multipliers]
            assert sum(len(b) for b in blocks) == p - 1
            assert set().union(*blocks) == set(range(1, p))

    def test_all_qualifying_primes_up_to_500(self):
        from radiusseq import kradius as kr

        for k in range(1, 7):
            for p in kr.scan_k_radius_primes(k, 500):
                plan = cv.prime_cover(p, k)
                blocks = [cv.block_B(d, k, p) for d in plan.multipliers]
                assert sum(len(b) for b in blocks) == p - 1, (p, k)
                assert set().union(*blocks) == set(range(1, p)), (p, k)
                seq = cv.sequence_from_cover(plan)
                assert len(seq) == ((p - 1) // (2 * k)) * (p + k - 1) + 1
                assert sq.verify(seq)[0], (p, k)

    def test_rejects_non_k_radius_prime(self):
        with pytest.raises(NotKRadiusPrime):
            cv.prime_cover(41, 4)


class TestCoverFormat:
    def test_round_trip(self):
        plan = cv.two_radius_cover(13)
        text = cv.format_cover(plan)
        assert text.splitlines()[0] == "p=13 k=2"
        assert cv.parse_cover(text) == plan

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_plan_round_trips(self, data):
        # a plan need not cover Z_p* to be written and read back
        p = data.draw(st.sampled_from(SMALL_PRIMES))
        k = data.draw(st.integers(1, (p - 1) // 2))
        mult = data.draw(st.lists(st.integers(1, p - 1), max_size=30, unique=True))
        plan = cv.CoverPlan(p, k, tuple(mult))
        assert cv.parse_cover(cv.format_cover(plan)) == plan

    def test_missing_header(self):
        with pytest.raises(ValueError):
            cv.parse_cover("1\n2\n")

    @pytest.mark.parametrize("header,field", [("p=13", "k"), ("k=2", "p")])
    def test_header_missing_field(self, header, field):
        with pytest.raises(ValueError, match=f"no '{field}=' field"):
            cv.parse_cover(f"{header}\n1\n2\n")

    def test_header_token_without_equals(self):
        with pytest.raises(ValueError, match="has a token 'k' without '='"):
            cv.parse_cover("p=13 k\n1\n2\n")

    def test_header_field_given_twice(self):
        with pytest.raises(ValueError, match="^cover header 'p=7 p=11 k=2' has more than one 'p=' field$"):
            cv.parse_cover("p=7 p=11 k=2\n1\n")
