import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiusseq import cli
from radiusseq import covers as cv
from radiusseq import sequences as sq
from radiusseq import tilings as tl


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def certificate_checked_by_verify(monkeypatch):
    """Every triple list that covers.check_pieces certifies in these tests,
    which is every construct output of the cover strategies, must spell
    out sequence_from_cover(plan), and the pair verifier must accept what
    it spells out: the two checks are compared on every test input, and so
    is what construct writes from. They run at teardown, outside any
    tracemalloc window of the test."""
    check, accepted = cv.check_pieces, []

    def compared(plan, pieces):
        failed = check(plan, pieces)
        if failed is None:
            accepted.append((plan, cv._copies(plan), array("q", pieces)))
        return failed

    monkeypatch.setattr(cv, "check_pieces", compared)
    yield
    for plan, copies, pieces in accepted:
        table, symbols = array("I", range(plan.p)) * copies, array("I")
        for i in range(0, len(pieces), 3):
            symbols += table[slice(*pieces[i:i + 3])]
        assert symbols == cv.sequence_from_cover(plan).symbols
        assert sq.verify(sq.RadiusSequence(plan.p, plan.k, symbols))[0], (plan.p, plan.k)


def damage_middle_piece(monkeypatch):
    """Make construct's walk start its middle piece one residue on: the
    certificate must reject the triples it walks."""
    walk = cv.plan_pieces

    def damaged(plan, *args, **kwargs):
        pieces = list(walk(plan, *args, **kwargs))
        s, stop, d = pieces[len(pieces) // 2]
        pieces[len(pieces) // 2] = (s + 1, stop + 1, d)
        return pieces

    monkeypatch.setattr(cv, "plan_pieces", damaged)


SHRINK_CASES = [
    ("--n", "1440", "--k", "3", "--strategy", "prime", "--shrink"),
    ("--n", "20", "--k", "2", "--strategy", "two-radius", "--shrink"),
    ("--n", "200", "--k", "6", "--strategy", "tiling", "--shrink"),
]
SHRINK_IDS = ["prime-shrink", "two-radius-shrink", "tiling-shrink"]


class TestConstruct:
    def test_prime_strategy_flagship(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--n", "5", "--k", "2",
                               "--strategy", "prime")
        assert code == 0
        seq = sq.parse_sequence(out)
        assert len(seq) == 7 and seq.n == 5 and seq.k == 2
        assert sq.verify(seq)[0]

    @pytest.mark.parametrize(
        "n,k,strategy",
        [
            (6, 3, "naive"),
            (9, 1, "eulerian"),
            (11, 2, "two-radius"),
            (7, 3, "prime"),
            (20, 2, "tiling"),
            (1140, 2, "two-radius"),
            (30, 3, "prime"),
            (400, 5, "prime"),
            (100, 4, "tiling"),
            (200, 6, "tiling"),
        ],
    )
    def test_round_trip_all_strategies(self, capsys, n, k, strategy):
        code, out, _ = run_cli(capsys, "construct", "--n", str(n), "--k", str(k),
                               "--strategy", strategy)
        assert code == 0
        seq = sq.parse_sequence(out)
        assert sq.verify(seq)[0]

    def test_strategy_radius_restrictions(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--n", "5", "--k", "2",
                               "--strategy", "eulerian")
        assert code == 2 and "k=1" in err
        code, _, err = run_cli(capsys, "construct", "--n", "5", "--k", "3",
                               "--strategy", "two-radius")
        assert code == 2

    def test_absence_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--n", "5", "--k", "4",
                               "--strategy", "prime", "--horizon", "100000")
        assert code == 1

    @pytest.mark.parametrize("strategy,k,length", [
        ("eulerian", "1", 500000000000000000),
        ("naive", "2", 999999999000000000),
    ])
    def test_impossible_construction_is_one_line(self, capsys, strategy, k, length):
        # the one exact-length allocation fails at once, so nothing is held
        code, out, err = run_cli(capsys, "construct", "--n", "1000000000", "--k", k,
                                 "--strategy", strategy, "--max-length", str(length))
        assert (code, out) == (1, "")
        assert err == (f"error: n=1000000000 needs a sequence of {length} symbols "
                       f"({4 * length} bytes), more than can be allocated\n")

    @pytest.mark.parametrize("argv,length", [
        (("--n", "7000", "--k", "6", "--strategy", "prime"), 4661287),
        (("--n", "7000", "--k", "6", "--strategy", "prime", "--shrink"), 4661287),
        (("--n", "7000", "--k", "6", "--strategy", "naive"), 48993000),
        (("--n", "7000", "--k", "1", "--strategy", "eulerian"), 24500000),
    ], ids=["prime", "prime-shrink", "naive", "eulerian"])
    def test_longer_than_max_length_exits_two(self, capsys, argv, length):
        # the length is known before any symbol exists, so nothing is held
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "construct", *argv, "--max-length", "4000000")
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (f"error: the sequence would have {length} symbols, "
                       "more than --max-length 4000000\n")
        assert seconds < 1
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv,code", [
        (("--n", "50", "--k", "9", "--strategy", "prime"), 2),
        (("--n", "5000", "--k", "1", "--strategy", "eulerian"), 2),
        (("--n", "7", "--k", "3", "--strategy", "prime", "--max-length", "10"), 0),
        (("--n", "7", "--k", "3", "--strategy", "prime", "--max-length", "9"), 2),
    ], ids=["prime-default", "eulerian-default", "prime-at-the-length", "prime-past-it"])
    def test_max_length_default_and_bound(self, capsys, monkeypatch, argv, code):
        # the default passes every pinned and CI case, up to 6,438,001
        # symbols, and refuses the 40,892,446 of (50, 9) prime; a length
        # equal to the bound passes (p = 7, k = 3 splices 10 symbols).
        # Nothing is written here
        monkeypatch.setattr(cli, "_write", lambda path, pieces: None)
        assert cli.DEFAULT_MAX_LENGTH >= 6_438_001
        assert run_cli(capsys, "construct", *argv)[0] == code

    def test_shrink_to_requested_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--n", "6", "--k", "2",
                               "--strategy", "prime", "--shrink")
        assert code == 0
        seq = sq.parse_sequence(out)
        assert seq.n == 6
        assert sq.verify(seq)[0]

    @pytest.mark.parametrize("argv", SHRINK_CASES, ids=SHRINK_IDS)
    def test_shrunk_output_verifies(self, capsys, argv):
        # check_splice sees only the p-ary splice, so the printed shrunk
        # sequence goes through the pair verifier here
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        seq = sq.parse_sequence(out)
        assert seq.n == int(argv[1]) < int(re.search(r" p=(\d+)", out)[1])
        assert sq.verify(seq)[0]

    @pytest.mark.parametrize(
        "argv",
        [
            *SHRINK_CASES,
            ("--n", "7", "--k", "3", "--strategy", "prime"),
            ("--n", "20", "--k", "2", "--strategy", "tiling"),
        ],
        ids=[*SHRINK_IDS, "prime", "tiling"],
    )
    def test_verifies_once(self, capsys, monkeypatch, argv):
        calls = []
        verify, check = sq.verify, cv.check_pieces

        def counted_verify(seq):
            calls.append(("verify", seq.n))
            return verify(seq)

        def counted_check(plan, pieces):
            calls.append(("check_pieces", plan.p))
            return check(plan, pieces)

        monkeypatch.setattr(sq, "verify", counted_verify)
        monkeypatch.setattr(cv, "check_pieces", counted_check)
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        # the p-ary splice's triples are checked by the certificate, and a
        # shrunk sequence, cut from a certified splice, is not checked again
        p = int(re.search(r" p=(\d+)", out)[1])
        assert calls == [("check_pieces", p)]
        if "--shrink" in argv:
            assert sq.parse_sequence(out).n == int(argv[1]) < p

    @pytest.mark.parametrize(
        "argv",
        [
            *SHRINK_CASES,
            ("--n", "7", "--k", "3", "--strategy", "prime"),
            ("--n", "20", "--k", "2", "--strategy", "tiling"),
            ("--n", "30", "--k", "2", "--strategy", "two-radius", "--format", "json"),
        ],
        ids=[*SHRINK_IDS, "prime", "tiling", "two-radius-json"],
    )
    def test_checks_the_cover_once(self, capsys, monkeypatch, argv):
        # the certificate reads the plan's one verify_cover verdict
        plans = []
        verify_cover = cv.verify_cover

        def counted(plan):
            plans.append(plan)
            return verify_cover(plan)

        monkeypatch.setattr(cv, "verify_cover", counted)
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        assert len(plans) == 1

    @pytest.mark.parametrize(
        "argv",
        [("two-radius",), ("prime",), ("tiling",), ("prime", "--shrink")],
        ids=["two-radius", "prime", "tiling", "prime-shrink"],
    )
    def test_failed_certificate_is_reported(self, capsys, monkeypatch, argv):
        dropped = []
        damage_middle_piece(monkeypatch)
        monkeypatch.setattr(cv, "shrink_labels", lambda plan, pieces, x: dropped.append(x))
        # the prime strategy picks p = 13 > 11 at k = 2, so --shrink would drop
        code, out, err = run_cli(capsys, "construct", "--n", "11", "--k", "2",
                                 "--strategy", *argv)
        assert (code, out, err) == (1, "", "constructed sequence failed verification\n")
        assert dropped == []

    def test_tiling_prime_above_the_walk_cap_exits_two(self, capsys):
        # p = 51,757,545,839 at k = 30: rejected before the subgroup walk
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "construct", "--n", "10", "--k", "30",
                                 "--strategy", "tiling")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: the tiling prime p=51757545839 has (p-1)/2 above the cap "
                       f"{tl.MAX_HALF_ORDER} on the subgroup walk\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--n", "5", "--k", "2",
                               "--strategy", "prime", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["length"] == 7 and obj["verified"] and obj["p"] == 5

    def test_tiling_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--n", "20", "--k", "2",
                               "--strategy", "tiling", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert {"subgroup_order", "translate_count", "cover_size"} <= set(obj["report"])

    def test_output_and_cover_files(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        cover_file = tmp_path / "cover.txt"
        code, _, _ = run_cli(capsys, "construct", "--n", "7", "--k", "3",
                             "--strategy", "prime",
                             "--output", str(seq_file),
                             "--cover-out", str(cover_file))
        assert code == 0
        seq = sq.parse_sequence(seq_file.read_text())
        assert sq.verify(seq)[0]
        plan = cv.parse_cover(cover_file.read_text())
        assert plan.p == 7 and plan.k == 3

    @pytest.mark.parametrize(
        "n,k,strategy,plan",
        [
            (7, 3, "prime", lambda: cv.prime_cover(7, 3)),
            (11, 2, "two-radius", lambda: cv.two_radius_cover(11)),
            (200, 6, "tiling", lambda: tl.tiling_plan(200, 6)[0]),
        ],
    )
    def test_cover_out_reuses_plan(self, tmp_path, capsys, n, k, strategy, plan):
        args = ("construct", "--n", str(n), "--k", str(k), "--strategy", strategy)
        cover_file = tmp_path / "cover.txt"
        code, out, _ = run_cli(capsys, *args, "--cover-out", str(cover_file))
        assert code == 0
        assert cover_file.read_text() == cv.format_cover(plan())
        _, plain, _ = run_cli(capsys, *args)
        assert out == plain
        assert sq.parse_sequence(out).symbols == cv.sequence_from_cover(plan()).symbols

    @pytest.mark.parametrize("gate", [None, 0])
    @pytest.mark.parametrize(
        "n,k,strategy",
        [(300, 2, "two-radius"), (400, 5, "prime"), (200, 6, "tiling"), (2000, 3, "prime")],
    )
    def test_output_parses_to_the_plans_splice(self, tmp_path, capsys, monkeypatch,
                                                n, k, strategy, gate):
        # on one line and cut into lines of p+k tokens; a gate of 0 has the
        # stretch reader read every output, the real gate only the largest
        if gate is not None:
            monkeypatch.setattr(sq, "_READ_GATE", gate)
        cover_file = tmp_path / "cover.txt"
        code, out, _ = run_cli(capsys, "construct", "--n", str(n), "--k", str(k),
                               "--strategy", strategy, "--cover-out", str(cover_file))
        assert code == 0
        plan = cv.parse_cover(cover_file.read_text())
        expected = cv.sequence_from_cover(plan)
        width = plan.p + plan.k
        header, line = out.rstrip("\n").rsplit("\n", 1)
        tokens = line.split(" ")
        lines = "\n".join(" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width))
        for text in (out, f"{header}\n{lines}\n"):
            assert sq.parse_sequence(text) == expected

    def test_json_output_file_equals_stdout(self, tmp_path, capsys):
        args = ("construct", "--n", "30", "--k", "3", "--strategy", "prime",
                "--format", "json")
        out_file = tmp_path / "seq.json"
        code, out, _ = run_cli(capsys, *args, "--output", str(out_file))
        assert code == 0 and out == ""
        _, plain, _ = run_cli(capsys, *args)
        assert out_file.read_bytes() == plain.encode()


# SHA-256 of construct's stdout, recorded before symbols were written in
# chunks and before the Eulerian walk moved onto byte rows
STDOUT_PINS = {
    ("3000", "5", "prime", "text"):
        "f22d7cef3cd3b05905fb15f7c00d72e93fbb822b5c279263d58030e3eaaf63bd",
    ("3000", "5", "prime", "json"):
        "29a52899db64ad904cd33fd005e09d67eeec145ad321a710108e3bfd2da68ac9",
    ("600", "1", "eulerian", "json"):
        "bcfec3e51862f101d21ef7d6e0f61821d94286055abd82b7f1fbe3a2bf2f84c6",
    ("601", "1", "eulerian", "json"):
        "aff7f65ca9ed150ad74f5e5709a9547482b0a50e160cd6864b7073bc661dd1fe",
    ("1400", "3", "prime", "text", "--shrink"):
        "39e91978f1638ad264fac68f829564dbe6737b21fd42e000fceb78e1433b81ff",
    # the three tiling rows: recorded after covers.irredundant pruned the
    # tiling plans (UNPRUNED_STDOUT_PINS holds them from before)
    ("1000", "6", "tiling", "text"):
        "7783afe91f1a9f7444b8cf6fdf92475192d6518edd21a034452208eb0ae1d827",
    ("1000", "6", "tiling", "json"):
        "6fd47a40f2dd86cff3aaa9a9c7995052d321d4c1d32ba5e9cb389465cab4cec2",
    ("10", "2", "two-radius", "text"):
        "99ccf28fdcd2e0f5bfdc937829d7a764ea0fbcd4cc352f9a7a76015fd4903cf8",
    # recorded before certified splices were written from their checked pieces
    ("1400", "3", "prime", "json", "--shrink"):
        "018273e033987f4522c494760c000e2b24e29ff7009a9c257e636f900ce52c23",
    ("1140", "2", "two-radius", "json"):
        "269ceb59af69750aaa87b754a33c2c22228f450f0258ee20cd8c487cc74a67e9",
    ("200", "6", "tiling", "text", "--shrink"):
        "9fecf588fdb78f1b89a0d4e5b890e82f20437854751e6a5e768b4051f8b2a7c7",
}

# the tiling rows of STDOUT_PINS as recorded before covers.irredundant
# pruned the tiling plans: without the pass, the same logarithm is chosen
UNPRUNED_STDOUT_PINS = {
    ("1000", "6", "tiling", "text"):
        "d2fc32aa5cfe23798f3e2f4ff0af93355ee9b14d018c8897d45d0ecc7ed92879",
    ("1000", "6", "tiling", "json"):
        "ee27bb791bc1f8e81baff85c9b41bde2bfdedfb64ac3c1dc6fc34738d5157a7a",
    ("200", "6", "tiling", "text", "--shrink"):
        "0cd4ec2a2bd976be46f372f1f9b4f781f80d2cc7408dd15727587008ba01b085",
}


def construct_argv(n, k, strategy, fmt, *extra):
    return ["construct", "--n", n, "--k", k, "--strategy", strategy, "--format", fmt,
            *extra]


class TestStreamedOutput:
    @pytest.mark.parametrize("case", list(STDOUT_PINS), ids=" ".join)
    def test_pinned_stdout(self, capsys, case):
        code, out, _ = run_cli(capsys, *construct_argv(*case))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[case]

    @pytest.mark.parametrize("case", list(UNPRUNED_STDOUT_PINS), ids=" ".join)
    def test_pinned_stdout_before_the_pass(self, capsys, monkeypatch, case):
        monkeypatch.setattr(tl, "irredundant", lambda plan: plan)
        code, out, _ = run_cli(capsys, *construct_argv(*case))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == UNPRUNED_STDOUT_PINS[case]

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 7])
    def test_chunked_json_equals_dumps(self, monkeypatch, length):
        monkeypatch.setattr(sq, "_WRITE_CHUNK", 3)
        symbols = sq.RadiusSequence(900, 2, [(37 * i) % 900 for i in range(length)]).symbols
        obj = {"strategy": "prime", "n": 7, "p": None, "symbols": None, "verified": True}
        pieces = list(cli._json_with_list(obj, "symbols", sq.symbol_runs(symbols, ", ")))
        whole = json.dumps({**obj, "symbols": symbols.tolist()}, sort_keys=True) + "\n"
        assert "".join(pieces) == whole
        assert max(p.count(",") for p in pieces) <= 5

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cover_strategy_holds_no_symbol_array(self, tmp_path, fmt):
        # p = 2029 at k = 2: 1,029,211 symbols, 4 bytes each in an array;
        # the splice is written from its certified triples and a name table
        length = 1_029_211
        with open(tmp_path / "out", "w", encoding="ascii") as out, redirect_stdout(out):
            tracemalloc.start()
            try:
                code = cli.main(construct_argv("2000", "2", "prime", fmt))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the autouse fixture compares the certified triples with the splice
        assert code == 0
        assert peak <= 2 * length

    @pytest.mark.parametrize(
        "case,limit",
        [(("1400", "3", "prime", "json"), 6 << 20),
         (("1400", "3", "prime", "text"), 6 << 20),
         (("300", "1", "eulerian", "text"), 2 << 20)],
        ids=["prime-json", "prime-text", "eulerian"],
    )
    def test_peak_memory_with_stdout_to_a_file(self, tmp_path, case, limit):
        # the whole output as Python ints and strings took about 36 bytes a
        # symbol; streaming holds one chunk of it at a time
        with open(tmp_path / "out", "w", encoding="ascii") as out, redirect_stdout(out):
            tracemalloc.start()
            try:
                code = cli.main(construct_argv(*case))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= limit


# small constructions of every cover strategy: n, k and the strategy
PIECE_CASES = st.one_of(
    st.tuples(st.integers(2, 60), st.just(2), st.just("two-radius")),
    st.tuples(st.integers(2, 60), st.sampled_from([1, 2, 3, 5]), st.just("prime")),
    st.tuples(st.integers(2, 60), st.integers(1, 4), st.just("tiling")),
)


class TestPieceWriter:
    @given(PIECE_CASES, st.booleans(), st.sampled_from(["text", "json"]),
           st.integers(1, 3), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_prints_what_the_generic_writer_prints(self, case, shrink, fmt, copies, chunk):
        # construct writes a certified splice from its certified triples; the
        # generic writer, fed sequence_from_cover(plan) (and _drop_frequent
        # of it when shrinking), must print the same bytes
        n, k, strategy = case
        with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cv, "_TABLE_REPEATS", copies)
            mp.setattr(sq, "_WRITE_CHUNK", chunk)
            cover = os.path.join(work, "cover.txt")
            argv = [*construct_argv(str(n), str(k), strategy, fmt), "--cover-out", cover]
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv + ["--shrink"] * shrink) == 0
            with open(cover, encoding="ascii") as fh:
                plan = cv.parse_cover(fh.read())
        out = out.getvalue()
        seq = cv.sequence_from_cover(plan)
        if shrink and plan.p > n:
            seq = sq._drop_frequent(seq, plan.p - n)
        if fmt == "json":
            obj = json.loads(out)
            assert obj["length"] == len(seq)
            obj["symbols"] = None
            want = cli._json_with_list(obj, "symbols", sq.symbol_runs(seq.symbols, ", "))
        else:
            comments = [line[2:] for line in out.splitlines() if line.startswith("# ")]
            assert f" length={len(seq)} " in comments[0]
            want = sq.format_text(seq.n, seq.k, sq.symbol_runs(seq.symbols, " "), comments)
        assert out == "".join(want)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [("20", "2", "two-radius"), ("11", "2", "prime"), ("20", "3", "tiling"),
         ("11", "2", "prime", "--shrink")],
        ids=["two-radius", "prime", "tiling", "prime-shrink"],
    )
    def test_damaged_splice_writes_nothing(self, capsys, monkeypatch, tmp_path, argv, fmt,
                                           to_file):
        damage_middle_piece(monkeypatch)
        n, k, strategy, *extra = argv
        out_file, cover_file = tmp_path / "out", tmp_path / "cover"
        files = ["--output", str(out_file)] * to_file + ["--cover-out", str(cover_file)]
        code, out, err = run_cli(capsys, *construct_argv(n, k, strategy, fmt, *extra, *files))
        assert (code, out, err) == (1, "", "constructed sequence failed verification\n")
        assert not out_file.exists() and not cover_file.exists()


VERIFY_PINS = {
    ("valid", "text"): "5886140f250a1c3dc71f69b7514292b81285c2b33e94f3aa73b84ad2055ab948",
    ("valid", "json"): "bfd794beb3506d698b6cdb24e6a9ba44c0f352ea0cd100e12e74c114d365a19e",
    ("random", "text"): "e46b073a3962b1d904d68273d3248b2c14dfcfa4cb44e0d8dc8d49e52d53fc8d",
    ("random", "json"): "7bb3ee0a6d337aa16be24ae5dd680fe8f6ca64720d2b6913f9eb9bca146bdd9e",
}


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    """A valid prime-cover sequence (p = 751, k = 3, 94,126 symbols, which
    verify marks in two processes where it can) and a seeded random word
    over 400 symbols at k = 4 with 18,384 missing pairs."""
    work = tmp_path_factory.mktemp("verify")
    valid = work / "valid.txt"
    assert cli.main([*construct_argv("700", "3", "prime", "text"), "--output", str(valid)]) == 0
    rng = random.Random(20)
    word = sq.RadiusSequence(400, 4, [rng.randrange(400) for _ in range(30_000)])
    text = "".join(sq.format_text(word.n, word.k, sq.symbol_runs(word.symbols, " ")))
    (work / "random.txt").write_text(text, encoding="ascii")
    return work


class TestVerify:
    def test_ok_and_failure_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("n=5 k=2\n0 1 2 3 4 0 1\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(good))
        assert code == 0 and out.startswith("ok")
        bad = tmp_path / "bad.txt"
        bad.write_text("n=3 k=1\n0 1 2\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(bad))
        assert code == 1 and "missing" in out

    def test_flags_override_header(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("n=3 k=1\n0 1 2\n")
        code, _, _ = run_cli(capsys, "verify", "--input", str(f), "--k", "2")
        assert code == 0

    def test_header_without_radius(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("n=5\n0 1 2 3 4 0 1\n")
        code, out, err = run_cli(capsys, "verify", "--input", str(f))
        assert code == 1 and out == ""
        assert err == "error: sequence header 'n=5' has no 'k=' field\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n=5 k=2\n0 1 -1 3 4\n", "symbol -1 outside alphabet of size 5"),
            ("n=5 k=2\n0 1 4294967296 3 4\n", "symbol 4294967296 outside alphabet of size 5"),
            # the first bad symbol in order, not the first that misses 32 bits
            ("n=5 k=2\n0 1 7 -1 4\n", "symbol 7 outside alphabet of size 5"),
            ("0 1 -1 3 4\n", "alphabet size and radius not given and no header found"),
        ],
    )
    def test_symbol_past_32_bits(self, tmp_path, capsys, text, message):
        f = tmp_path / "seq.txt"
        f.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--input", str(f))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_header_token_without_equals(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("n=5 k\n0 1 2 3 4 0 1\n")
        code, out, err = run_cli(capsys, "verify", "--input", str(f))
        assert code == 1 and out == ""
        assert err == "error: sequence header 'n=5 k' has a token 'k' without '='\n"

    def test_header_field_given_twice_is_one_line(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("n=3 k=1 n=4\n0 1 2 0\n")
        code, out, err = run_cli(capsys, "verify", "--input", str(f))
        assert (code, out) == (1, "")
        assert err == "error: sequence header 'n=3 k=1 n=4' has more than one 'n=' field\n"

    def test_impossible_marks_table_is_one_line(self, tmp_path, capsys):
        # the allocation fails at once, so nothing is held
        f = tmp_path / "seq.txt"
        f.write_text("n=1000000000 k=2\n0 1\n")
        code, out, err = run_cli(capsys, "verify", "--input", str(f))
        assert (code, out) == (1, "")
        assert err == ("error: n=1000000000 needs a marks table of "
                       "1000000000000000000 bytes, more than can be allocated\n")

    @pytest.mark.parametrize("case", list(VERIFY_PINS), ids=" ".join)
    def test_pinned_stdout(self, capsys, verify_inputs, case):
        name, fmt = case
        code, out, _ = run_cli(capsys, "verify", "--input", str(verify_inputs / f"{name}.txt"),
                               "--format", fmt)
        assert code == (0 if name == "valid" else 1)
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PINS[case]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_missing_pairs_are_streamed(self, tmp_path, fmt):
        # two symbols at n=600 miss 179,699 pairs; as a list of tuples they
        # took about 20 MB, streamed a row of them is held at a time
        f = tmp_path / "seq.txt"
        f.write_text("n=600 k=1\n0 1\n")
        with open(tmp_path / "out", "w", encoding="ascii") as out, redirect_stdout(out):
            tracemalloc.start()
            try:
                code = cli.main(["verify", "--input", str(f), "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 1
        assert peak <= 2 << 20
        text = (tmp_path / "out").read_text()
        missing = [(0, y) for y in range(2, 600)] + [(x, y) for x in range(1, 600)
                                                     for y in range(x + 1, 600)]
        if fmt == "json":
            assert json.loads(text) == {"ok": False, "missing": [list(p) for p in missing],
                                        "n": 600, "k": 1, "length": 2}
        else:
            assert text == "".join([f"missing {len(missing)} pairs n=600 k=1\n"]
                                   + [f"missing {x} {y}\n" for x, y in missing])

    def test_json_missing_pairs(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("n=3 k=1\n0 1 2\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(f),
                               "--format", "json")
        assert code == 1
        assert json.loads(out)["missing"] == [[0, 2]]


class TestLogs:
    def test_count_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "logs", "count", "--k", "13",
                               "--class", "log")
        assert code == 0 and out.strip() == "936"

    def test_count_workers_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "logs", "count", "--k", "14")
        _, out2, _ = run_cli(capsys, "logs", "count", "--k", "14",
                             "--workers", "2")
        assert out1 == out2

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_count_rejects_nonpositive_length(self, capsys, k):
        code, out, err = run_cli(capsys, "logs", "count", "--k", k)
        assert code == 2 and out == ""
        assert err == "error: k must be >= 1\n"

    def test_search_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "logs", "search", "--k", "6",
                               "--class", "special")
        assert code == 0
        from radiusseq import logarithms as lg
        f = lg.parse_logfn(out)
        assert lg.classify(f).is_special_km

    def test_search_absence(self, capsys):
        code, _, _ = run_cli(capsys, "logs", "search", "--k", "4",
                             "--class", "special")
        assert code == 1

    @pytest.mark.parametrize(
        "args,want_code",
        [
            (("--k", "6", "--format", "json"), 0),
            (("--k", "4", "--class", "special"), 1),
            (("--k", "4", "--class", "special", "--format", "json"), 1),
        ],
    )
    def test_search_output_file_equals_stdout(self, tmp_path, capsys, args, want_code):
        code, want, _ = run_cli(capsys, "logs", "search", *args)
        out_file = tmp_path / "f.txt"
        code_file, out, _ = run_cli(capsys, "logs", "search", *args,
                                    "--output", str(out_file))
        assert code == code_file == want_code
        assert out == "" and out_file.read_text() == want != ""


class TestPrimesAndDensity:
    def test_next(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "next", "--k", "2")
        assert code == 0 and out.strip() == "5"

    def test_next_absent(self, capsys):
        code, _, _ = run_cli(capsys, "primes", "next", "--k", "4",
                             "--horizon", "50000")
        assert code == 1

    def test_scan_workers_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "primes", "scan", "--k", "3",
                             "--limit", "3000")
        _, out2, _ = run_cli(capsys, "primes", "scan", "--k", "3",
                             "--limit", "3000", "--workers", "2")
        assert out1 == out2 and out1

    def test_density_csv(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--k", "2",
                               "--limit", "20000", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "k,limit,primes_scanned,hits,observed,predicted"
        assert row.startswith("2,20000,")

    def test_density_json(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--k", "4",
                               "--limit", "20000", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["hits"] == 0 and obj["predicted"] == 0

    def test_density_json_carries_the_standard_error(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--k", "2",
                               "--limit", "20000", "--format", "json")
        obj = json.loads(out)
        se = (0.25 * 0.75 / obj["primes_scanned"]) ** 0.5
        assert code == 0 and math.isclose(obj["standard_error"], se)

    @pytest.mark.parametrize("argv", [
        ("primes", "next", "--start", "2", "--k", "100000000", "--horizon", "1000000000"),
        ("primes", "scan", "--k", "10000000", "--limit", "100000000", "--workers", "2"),
        ("density", "--k", "10000000", "--limit", "100000000"),
    ], ids=["next", "scan", "density"])
    def test_huge_k_exits_two_with_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        k = argv[argv.index("--k") + 1]
        assert (code, out) == (2, "")
        assert err == f"error: k={k} exceeds the per-k table bound 1000000\n"


class TestTilingCheck:
    def test_check(self, capsys):
        code, out, _ = run_cli(capsys, "tiling", "check", "--k", "6",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["bijective"] and obj["r"] == 3


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("construct", "--n", "1", "--k", "6", "--strategy", "tiling"),
             "n must be >= 2"),
            (("construct", "--n", "10", "--k", "0", "--strategy", "prime"),
             "k must be >= 1"),
            (("construct", "--n", "0", "--k", "2", "--strategy", "naive"),
             "n must be >= 1"),
            (("primes", "scan", "--k", "0", "--limit", "100"),
             "need k >= 1 and limit >= 2"),
            (("primes", "scan", "--k", "3", "--limit", "1"),
             "need k >= 1 and limit >= 2"),
            (("logs", "count", "--k", "43"),
             "k=43 exceeds the counting budget 42"),
            (("density", "--k", "50"),
             "k=50 exceeds the counting budget 42"),
            (("density", "--k", "0", "--limit", "100"),
             "need k >= 1 and limit >= 2"),
            (("logs", "count", "--k", "0"), "k must be >= 1"),
            (("logs", "search", "--k", "0"), "k must be >= 1"),
            (("primes", "next", "--k", "0"), "k must be >= 1"),
            (("logs", "count", "--k", "5", "--workers", "-1"),
             "workers must be >= 1"),
            (("primes", "scan", "--k", "3", "--limit", "100", "--workers", "-2"),
             "workers must be >= 1"),
            (("density", "--k", "3", "--limit", "100", "--workers", "0"),
             "workers must be >= 1"),
            (("tiling", "check", "--k", "0"), "k must be >= 1"),
            (("verify", "--input", "-", "--n", "0"), "n must be >= 1"),
            (("verify", "--input", "-", "--k", "0"), "k must be >= 1"),
            (("construct", "--n", "20", "--k", "2", "--strategy", "naive",
              "--cover-out", os.devnull),
             "strategy 'naive' has no cover plan for --cover-out"),
            (("construct", "--n", "20", "--k", "1", "--strategy", "eulerian",
              "--cover-out", os.devnull),
             "strategy 'eulerian' has no cover plan for --cover-out"),
        ],
        ids=["tiling-n1", "construct-k0", "construct-n0", "scan-k0",
             "scan-limit1", "count-k43", "density-k50", "density-k0",
             "count-k0", "search-k0", "next-k0", "count-workers-neg",
             "scan-workers-neg", "density-workers0", "tiling-k0", "verify-n0",
             "verify-k0", "naive-cover-out", "eulerian-cover-out"],
    )
    def test_exit_two_with_one_error_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_raised_budget_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "logs", "count", "--k", "3", "--max-k", "3")
        assert code == 0 and out == "2\n"


class TestTwoFaultErrors:
    """An invocation with two bad values reports the one checked first:
    k, then workers, then the budget."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("logs", "count", "--k", "43", "--workers", "0"),
             "workers must be >= 1"),
            (("density", "--k", "50", "--workers", "0"),
             "workers must be >= 1"),
            (("primes", "scan", "--k", "0", "--limit", "1", "--workers", "-2"),
             "need k >= 1 and limit >= 2"),
            (("construct", "--n", "1", "--k", "0", "--strategy", "tiling"),
             "k must be >= 1"),
        ],
        ids=["count-k43-workers0", "density-k50-workers0",
             "scan-k0-limit1-workers-neg", "tiling-n1-k0"],
    )
    def test_first_fault_reported(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_verify_rejects_n_before_reading(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "verify", "--input", missing, "--n", "0")
        assert code == 2 and out == ""
        assert err == "error: n must be >= 1\n"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("construct", "--n", "20", "--k", "2", "--strategy", "tiling",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radiusseq", "logs", "count", "--k", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"
