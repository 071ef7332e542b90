import dataclasses
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiusseq import kradius as kr
from radiusseq import logarithms as lg
from radiusseq import numtheory as nt
from radiusseq.errors import BudgetExceeded, NotKRadiusPrime, OutOfRange


def pow_is_k_radius(p, k):
    """Oracle: one `pow` per i in 1..k, then compare the residue set."""
    if p % (2 * k) != 1:
        return False
    e = (p - 1) // k
    return len({pow(i, e, p) for i in range(1, k + 1)}) == k


def brute_is_k_radius(p, k):
    if p % (2 * k) != 1:
        return False
    e = (p - 1) // k
    seen = set()
    for i in range(1, k + 1):
        x = 1
        for _ in range(e):
            x = x * i % p
        if x in seen:
            return False
        seen.add(x)
    return True


class TestPredicate:
    @pytest.mark.parametrize("p,k,expected", [(5, 2, True), (7, 3, True), (41, 4, False)])
    def test_examples(self, p, k, expected):
        assert kr.is_k_radius_prime(p, k) == expected

    def test_against_slow_powering(self):
        for p in nt.primes(300):
            for k in range(1, 8):
                assert kr.is_k_radius_prime(p, k) == brute_is_k_radius(p, k), (p, k)

    def test_against_one_pow_per_residue(self):
        for k in range(1, 13):
            tables = kr._tables(k, 20000)
            for p in nt.primes(20000):
                assert kr._qualifies(p, k, *tables) == pow_is_k_radius(p, k), (p, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(3, 10**9), st.booleans())
    def test_against_oracle_on_random_primes(self, k, start, filtered):
        # the first prime = 1 mod 2k from start on; with filtered False the
        # chi(k!) test is off and chi(Q) is computed, as above _FILTER_MAX_K
        p = start + (1 - start) % (2 * k)
        while not nt.is_prime(p):
            p += 2 * k
        spf, fact, top = kr._tables(k, p)
        if not filtered:
            fact = top = 0
        assert kr._qualifies(p, k, spf, fact, top) == pow_is_k_radius(p, k)

    def test_every_prime_2k_plus_1_is_k_radius(self):
        # the squares of 1..k are distinct mod p = 2k + 1, so every such
        # prime qualifies: the chi(k!) test and the forced chi(Q) at k in
        # the thousands, where no scan finds a hit. One spf table serves
        # every k, and k! and Q grow with k
        spf = nt.spf_table(10**4)
        fact, top = 1, 0
        for k in range(1, 10**4):
            fact *= k
            top = k if spf[k] == k else top
            if nt.is_prime(2 * k + 1):
                assert kr._qualifies(2 * k + 1, k, spf, fact, top), k
        assert kr._tables(9999, 20000)[1:] == (fact, top) and top == 9973

    def test_hits_meet_the_root_product(self):
        # chi(k!) is the product of all k-th roots of unity, (-1)**(k+1)
        for k in range(1, 21):
            for p in kr.scan_k_radius_primes(k, 10**5):
                want = 1 if k % 2 else p - 1
                assert pow(math.factorial(k), (p - 1) // k, p) == want, (p, k)

    def test_huge_k_is_refused_before_any_table(self):
        # a table of 10**7 small-prime factors peaked at 477 MB; past
        # _TABLE_MAX_K the refusal comes before anything is allocated
        calls = [
            lambda: kr.next_k_radius_prime(2, 10**8, horizon=10**9),
            lambda: kr.is_k_radius_prime(10**9 + 7, 10**8),
            lambda: kr.scan_k_radius_primes(10**7, 10**8, workers=2),
            lambda: kr.density_scan(10**7, 10**8),
        ]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(OutOfRange, match=r"^k=10+ exceeds the per-k table bound 1000000$"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        # at the bound itself the tables are built
        assert len(kr._spf_for(kr._TABLE_MAX_K, 10**7)) == kr._TABLE_MAX_K + 1

    def test_huge_k_builds_no_table(self):
        # a k-radius prime is at least 2k + 1, so none lies below the bound
        assert kr._spf_for(10**12, 10**6) == []
        assert not kr.is_k_radius_prime(7, 10**12)
        assert kr.next_k_radius_prime(2, 10**12) is None

    def test_candidate_past_the_filter_costs_its_first_repeat(self):
        # above _FILTER_MAX_K no chi(k!) test screens a candidate, and a
        # list of k + 1 values per candidate took about 800 KB at k = 10**5;
        # the values grow only as far as the first repeat
        k = 10**5
        assert k > kr._FILTER_MAX_K
        # the first candidate with a repeat among chi(1..64): 33,000,001
        p = next(p for p in range(2 * k + 1, 10**9, 2 * k)
                 if nt.is_prime(p) and len({pow(i, (p - 1) // k, p) for i in range(1, 65)}) < 64)
        tables = kr._tables(k, p)
        assert tables[1:] == (0, 0)
        tracemalloc.start()
        try:
            assert not kr._qualifies(p, k, *tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**4

    def test_every_odd_prime_is_1_radius(self):
        for p in nt.primes(200):
            assert kr.is_k_radius_prime(p, 1) == (p != 2)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            kr.is_k_radius_prime(15, 2)


class TestNextKRadiusPrime:
    def test_examples(self):
        assert kr.next_k_radius_prime(2, 2) == 5
        assert kr.next_k_radius_prime(100, 1) == 101
        assert kr.next_k_radius_prime(2, 4, horizon=200000) is None

    def test_result_is_smallest(self):
        p = kr.next_k_radius_prime(10, 3)
        assert p is not None
        for q in nt.primes(p - 1):
            if q >= 10:
                assert not kr.is_k_radius_prime(q, 3)


class TestInducedLog:
    def test_special_for_found_primes(self):
        for k in (1, 2, 3, 5, 6, 7):
            p = kr.next_k_radius_prime(2, k)
            f = kr.induced_log(p, k)
            c = lg.classify(f)
            assert c.is_logarithm and c.is_special_km, (p, k)

    def test_reproduces_power_residues(self):
        p, k = 7, 3
        f = kr.induced_log(p, k)
        zeta = pow(nt.primitive_root(p), (p - 1) // k, p)
        for a in range(1, k + 1):
            assert pow(a, (p - 1) // k, p) == pow(zeta, f.value(a), p)

    def test_rejects_non_qualifying(self):
        with pytest.raises(NotKRadiusPrime):
            kr.induced_log(41, 4)


class TestPredictedDensity:
    def test_exact_fractions(self):
        assert kr.predicted_density(1) == 1
        assert kr.predicted_density(2) == Fraction(1, 4)
        assert kr.predicted_density(3) == Fraction(1, 9)
        assert kr.predicted_density(4) == 0
        assert kr.predicted_density(6) == Fraction(1, 216)

    def test_three_significant_figures_against_reference(self):
        # Values of the reference density table; its k=5 entry (0.00160,
        # a misprint for 0.0160) is checked apart below.
        reference = {
            1: 1.00, 2: 0.250, 3: 0.111, 4: 0.00, 6: 0.00463,
            7: 0.00250, 8: 0.000977, 9: 0.000610, 10: 0.000200,
        }
        for k, want in reference.items():
            got = float(kr.predicted_density(k))
            assert math.isclose(got, want, rel_tol=5e-3), (k, got, want)

    def test_k5_formula_disagrees_with_measurement(self):
        # The closed form gives 2/125 = 0.016, ten times the 0.00160 printed
        # in the reference table; the measurement below sides with the
        # formula, so the table entry is a misprint.
        assert kr.predicted_density(5) == Fraction(2, 125)
        assert not math.isclose(float(kr.predicted_density(5)), 0.00160, rel_tol=0.5)


class TestDensityScan:
    def test_small_scan_counts(self):
        rep = kr.density_scan(2, 10000)
        primes = nt.primes(10000)
        want_hits = sum(1 for p in primes if brute_is_k_radius(p, 2))
        assert rep.primes_scanned == len(primes)
        assert rep.k_radius_count == want_hits
        assert rep.observed == Fraction(want_hits, len(primes))

    def test_k1_counts_all_odd_primes(self):
        rep = kr.density_scan(1, 5000)
        assert rep.k_radius_count == rep.primes_scanned - 1

    def test_k5_density_matches_formula(self):
        # 1,252 of 78,498 primes up to 10**6 (0.015949) against 2/125.
        rep = kr.density_scan(5, 10**6)
        p = float(rep.predicted)
        stderr = math.sqrt(p * (1 - p) / rep.primes_scanned)
        assert abs(float(rep.observed) - p) < 4 * stderr

    @pytest.mark.parametrize("k,hits,predicted", [(3, 8732, Fraction(1, 9)), (6, 369, Fraction(1, 216))])
    def test_reports_to_a_million_pinned(self, k, hits, predicted):
        # Values recorded with one `pow` per residue 1..k.
        rep = kr.density_scan(k, 10**6)
        assert rep == kr.DensityReport(
            k=k, limit=10**6, primes_scanned=78498, k_radius_count=hits,
            observed=Fraction(hits, 78498), predicted=predicted,
        )

    def test_standard_error_at_k5(self):
        # predicted_density quotes about 0.00045 for 78,498 primes at k = 5
        rep = kr.density_scan(5, 10**6)
        q = 2 / 125
        assert rep.standard_error == math.sqrt(q * (1 - q) / 78498)
        assert math.isclose(rep.standard_error, 0.00045, abs_tol=5e-6)
        assert "standard_error" not in {f.name for f in dataclasses.fields(rep)}

    def test_k4_zero_hits(self):
        rep = kr.density_scan(4, 50000)
        assert rep.k_radius_count == 0

    def test_worker_determinism(self):
        one = kr.density_scan(3, 30000, workers=1)
        two = kr.density_scan(3, 30000, workers=2)
        assert one == two

    def test_arguments_and_budget_checked_before_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(kr, "_run_shards", no_scan)
        with pytest.raises(BudgetExceeded, match="k=50 exceeds the counting budget 42"):
            kr.density_scan(50, 10**6)
        with pytest.raises(ValueError, match="need k >= 1 and limit >= 2"):
            kr.density_scan(0, 100)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise_before_the_scan(self, monkeypatch, workers):
        def no_scan(*args):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(kr, "_run_shards", no_scan)
        for scan in (kr.scan_k_radius_primes, kr.density_scan):
            with pytest.raises(OutOfRange, match=r"^workers must be >= 1$"):
                scan(3, 1000, workers=workers)
        # the workers check comes before the budget, the range check before both
        with pytest.raises(OutOfRange, match=r"^workers must be >= 1$"):
            kr.density_scan(50, 1000, workers=workers)
        with pytest.raises(OutOfRange, match=r"^need k >= 1 and limit >= 2$"):
            kr.density_scan(0, 1, workers=workers)

    def test_scan_listing_matches_counts(self):
        found = kr.scan_k_radius_primes(3, 2000)
        assert found == sorted(found)
        assert all(kr.is_k_radius_prime(p, 3) for p in found)
        assert len(found) == kr.density_scan(3, 2000).k_radius_count
        assert kr.scan_k_radius_primes(3, 2000, workers=2) == found


class TestScanInterval:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(-5, 3000),
        st.integers(-5, 3000),
    )
    def test_against_brute_force(self, k, lo, hi):
        # Draws empty intervals (lo > hi), intervals reaching below 2 and
        # every start residue mod 2k, i.e. every kind of shard edge.
        n_primes, found = kr._scan_interval((k, lo, hi))
        primes = [p for p in range(max(lo, 2), hi + 1) if nt.is_prime(p)]
        assert n_primes == len(primes)
        assert found == [p for p in primes if kr.is_k_radius_prime(p, k)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(-5, 3000),
        st.integers(-5, 3000),
        st.integers(1, 64),
    )
    def test_pieces_change_nothing(self, k, lo, hi, piece):
        # every interval here is one piece at the default size
        whole = kr._scan_interval((k, lo, hi))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kr, "_SIEVE_PIECE", piece)
            assert kr._scan_interval((k, lo, hi)) == whole

    def test_piece_edges_at_hits(self, monkeypatch):
        # pieces of [2, limit] start at 2, so a piece of p - 2 integers ends
        # just before the k-radius prime p and one of p - 1 ends at it
        limit = 3000
        found = kr.scan_k_radius_primes(3, limit)
        report = kr.density_scan(3, limit)
        pieces = [1, 2, 7] + [p - d for p in found[:3] for d in (2, 1)]
        for piece in pieces:
            monkeypatch.setattr(kr, "_SIEVE_PIECE", piece)
            for workers in (1, 2):
                assert kr.scan_k_radius_primes(3, limit, workers=workers) == found, piece
                assert kr.density_scan(3, limit, workers=workers) == report, piece

    def test_scan_memory_is_bounded(self):
        # the flags of one piece of at most 2**20 integers, not of the whole
        # interval: the flags of [2, 4 * 10**6] alone took 4 MB
        tracemalloc.start()
        try:
            kr.scan_k_radius_primes(6, 4 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kr._SIEVE_PIECE == 1 << 20
        assert peak < 2 * 10**6


class TestCsv:
    def test_row_shape(self):
        rep = kr.density_scan(2, 10000)
        row = kr.csv_row(rep)
        fields = row.split(",")
        assert len(fields) == len(kr.CSV_HEADER.split(","))
        assert fields[0] == "2" and fields[1] == "10000"
