import hashlib
import itertools
import math
import random

import pytest

from radiusseq import kradius as kr
from radiusseq import logarithms as lg
from radiusseq import numtheory as nt
from radiusseq import sequences as sq
from radiusseq.errors import BudgetExceeded, CountingError, OutOfRange

from reference_counts import KNOWN_LOG, KNOWN_SPECIAL

# KM-class counts for k <= 42, recorded from the full-depth walk (every
# prime walked to a leaf) before the top block was counted in closed form.
# The reference tables have no KM column.
PINNED_KM = {
    1: 1, 2: 1, 3: 2, 4: 2, 5: 8, 6: 10, 7: 36,
    8: 16, 9: 24, 10: 8, 11: 140, 12: 64, 13: 936, 14: 624,
    15: 416, 16: 96, 17: 3648, 18: 2088, 19: 30240, 20: 8640, 21: 9792,
    22: 9000, 23: 103488, 24: 10368, 25: 72960, 26: 13752, 27: 22896, 28: 5904,
    29: 134400, 30: 71040, 31: 2671200, 32: 556800, 33: 794400, 34: 202752,
    35: 145152, 36: 62784, 37: 3594240, 38: 2244672, 39: 1202688, 40: 102912,
    41: 17606400, 42: 6698880,
}


def brute_counts(k):
    """Oracle: enumerate and classify all k**pi(k) assignments.

    The same pass records M_k, the largest image size, and R_k, the largest
    y such that some assignment is injective on the y-smooth m <= k.
    """
    qs = nt.primes(k)
    top = [max((q for q, _ in nt.factorize(m)), default=1) for m in range(1, k + 1)]
    counts = {lg.LOG: 0, lg.KM: 0, lg.SPECIAL: 0, "M_k": 0, "R_k": 0}
    for vals in itertools.product(range(k), repeat=len(qs)):
        f = lg.eval_vector(k, dict(zip(qs, vals)))
        c = lg.classify(f)
        counts[lg.LOG] += c.is_logarithm
        counts[lg.KM] += c.is_km
        counts[lg.SPECIAL] += c.is_special_km
        counts["M_k"] = max(counts["M_k"], len(set(f.full_vector)))
        for y in range(k, counts["R_k"], -1):
            smooth = [v for v, t in zip(f.full_vector, top) if t <= y]
            if len(set(smooth)) == len(smooth):
                counts["R_k"] = y
                break
    return counts


def even_targets(k, cls):
    """Indices whose value must be even, from the class definitions in
    classify's docstring: none for odd k or the plain class; for special,
    the divisors of k/2; for KM, the divisors of k that are 1 mod 4 when
    k = 2 mod 4, and the divisors of k/4 when 4 | k."""
    if k % 2 or cls == lg.LOG:
        return set()
    if cls == lg.SPECIAL:
        return set(nt.divisors(k // 2))
    if k % 4 == 2:
        return {m for m in nt.divisors(k) if m % 4 == 1}
    return set(nt.divisors(k // 4))


def plain_count(k, cls):
    """Oracle: depth-first over the values of the primes <= k in ascending
    order, pruning only on a repeated value or an odd value at a parity
    target; no blocks, no scaling normal form and no closed-form tail."""
    qs = nt.primes(k)
    lpf = [1] * (k + 1)
    for q in qs:
        for m in range(q, k + 1, q):
            lpf[m] = q
    fixed_by = {q: [m for m in range(2, k + 1) if lpf[m] == q] for q in qs}
    even = even_targets(k, cls)
    f = [0] * (k + 1)
    taken = {0}

    def walk(i):
        if i == len(qs):
            return 1
        q = qs[i]
        total = 0
        for v in range(k):
            new = []
            for m in fixed_by[q]:
                val = (f[m // q] + v) % k
                if val in taken or (m in even and val % 2):
                    break
                f[m] = val
                taken.add(val)
                new.append(val)
            else:
                total += walk(i + 1)
            taken.difference_update(new)
        return total

    return walk(0)


class TestEvalVector:
    def test_examples(self):
        assert lg.eval_vector(4, {2: 1, 3: 3}).full_vector == (0, 1, 3, 2)
        assert lg.eval_vector(2, {2: 1}).full_vector == (0, 1)
        assert lg.eval_vector(6, {2: 0, 3: 0, 5: 0}).full_vector == (0,) * 6

    def test_additivity_property(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randrange(2, 20)
            qs = nt.primes(k)
            f = lg.eval_vector(k, {q: rng.randrange(k) for q in qs})
            for a in range(1, k + 1):
                for b in range(1, k // a + 1):
                    assert f.value(a * b) == (f.value(a) + f.value(b)) % k

    def test_rejects_bad_assignments(self):
        with pytest.raises(ValueError):
            lg.eval_vector(4, {2: 1})
        with pytest.raises(ValueError):
            lg.eval_vector(4, {2: 1, 3: 4})


class TestClassify:
    def test_km_but_not_special(self):
        c = lg.classify(lg.eval_vector(4, {2: 1, 3: 3}))
        assert c.is_logarithm and c.is_km and not c.is_special_km

    def test_odd_length_all_classes_coincide(self):
        for k in (5, 7, 9):
            qs = nt.primes(k)
            for vals in itertools.product(range(k), repeat=len(qs)):
                c = lg.classify(lg.eval_vector(k, dict(zip(qs, vals))))
                if c.is_logarithm:
                    assert c.is_km and c.is_special_km

    def test_even_parity_example(self):
        f = lg.eval_vector(6, {2: 1, 3: 4, 5: 3})
        assert f.full_vector == (0, 1, 4, 2, 3, 5)
        c = lg.classify(f)
        assert c.is_logarithm and c.is_special_km

    def test_non_logarithm(self):
        c = lg.classify(lg.eval_vector(4, {2: 2, 3: 1}))
        assert not c.is_logarithm and not c.is_km and not c.is_special_km


class TestBlocks:
    def test_k10_all_singletons(self):
        part = lg.blocks(10)
        assert part.blocks == ((2,), (3,), (5,), (7,))

    def test_k42_top_block(self):
        part = lg.blocks(42)
        assert (23, 29, 31, 37, 41) in part.blocks

    def test_k42_special_pulls_divisor_primes(self):
        part = lg.blocks(42, lg.SPECIAL)
        assert (7,) in part.blocks
        assert (23, 29, 31, 37, 41) in part.blocks

    def test_small_primes_singletons(self):
        for k in range(4, 60):
            part = lg.blocks(k)
            for b in part.blocks:
                if len(b) > 1:
                    assert all(q * q > k for q in b)
                    assert len({k // q for q in b}) == 1


class TestSearch:
    def test_finds_logarithm_for_all_k_up_to_100(self):
        for k in range(1, 101):
            f = lg.search(k)
            assert f is not None, k
            assert lg.classify(f).is_logarithm, k

    def test_class_search_respects_class(self):
        for k in range(1, 30):
            for cls in (lg.KM, lg.SPECIAL):
                f = lg.search(k, cls)
                if f is None:
                    assert lg.count(k, cls) == 0, (k, cls)
                    continue
                c = lg.classify(f)
                assert c.is_logarithm
                if cls == lg.KM:
                    assert c.is_km
                else:
                    assert c.is_special_km

    def test_absence_cases(self):
        assert lg.search(4, lg.SPECIAL) is None
        assert lg.search(12, lg.SPECIAL) is None

    def test_rejects_nonpositive_length(self):
        for k in (0, -1, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                lg.search(k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                lg.image_stats(k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                lg.search_many(k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                lg.count(k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                lg.count(k, lg.SPECIAL, workers=2)

    def test_count_of_lengths_one_and_two(self):
        for cls in lg.CLASSES:
            assert lg.count(1, cls) == lg.count(2, cls) == 1

    def test_pinned_first_logarithms_past_100(self):
        # SHA-256 of format_logfn(search(k)), recorded from the value-by-value
        # walk before the candidate sets became bit masks; they guard the
        # lexicographic order beyond the k <= 42 tables.
        pins = {
            104: "20de5373fc6ceb7a251fc8fe19254d03ce5117df8c4c76534da78944278778b9",
            118: "49fbeec8a15f2f1c0212c1b8ca475b1dd9909ee530f6ce750665bacd30db00ab",
            136: "37cf197398406db70689530376683e93aec40e9b3836bacc7b378647f9110fc7",
            148: "ae12581f59f3cee5c57109e44a74c300dd65668cead9af76e40981b943035d92",
            152: "8670663b9b4cb3b7322858da0e27068b8d1523aa96f8a75fba55793a9c6f26ad",
        }
        for k, digest in pins.items():
            text = lg.format_logfn(lg.search(k))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, k

    def test_search_many_prefix(self):
        many = lg.search_many(6, limit=3)
        assert len(many) == 3
        assert many[0].full_vector == lg.search(6).full_vector


class TestCount:
    def test_known_table_small(self):
        for k in range(1, 14):
            assert lg.count(k, lg.LOG) == KNOWN_LOG[k], k
            assert lg.count(k, lg.SPECIAL) == KNOWN_SPECIAL[k], k

    def test_matches_brute_force_all_classes(self):
        # k=8 and k=10 exercise both even-k parity branches of the KM test
        for k in range(1, 11):
            bc = brute_counts(k)
            for cls in (lg.LOG, lg.KM, lg.SPECIAL):
                assert lg.count(k, cls) == bc[cls], (k, cls)
            assert lg.image_stats(k) == (bc["M_k"], bc["R_k"]), k

    def test_completion_freedom_divisibility(self):
        # primes above k/2 may take the leftover values in any order, so
        # the count is divisible by (pi(k) - pi(k/2))!
        for k in range(3, 43):
            free = nt.prime_count(k) - nt.prime_count(k // 2)
            assert KNOWN_LOG[k] % math.factorial(free) == 0, k
        for k in range(3, 23):
            free = nt.prime_count(k) - nt.prime_count(k // 2)
            assert lg.count(k, lg.LOG) % math.factorial(free) == 0, k

    def test_class_chain_and_odd_k_coincidence(self):
        # special implies KM implies logarithm, and for odd k the three
        # classes coincide
        for k in range(1, 31):
            c_log = lg.count(k, lg.LOG)
            c_km = lg.count(k, lg.KM)
            c_spec = lg.count(k, lg.SPECIAL)
            assert c_spec <= c_km <= c_log, k
            if k % 2 == 1:
                assert c_spec == c_km == c_log, k

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            lg.count(43, lg.LOG)
        assert lg.count(10, lg.LOG, max_k=10) == 20

    def test_budget_exceeded_is_out_of_range_and_value_error(self):
        with pytest.raises(BudgetExceeded) as info:
            lg.count(43, lg.LOG)
        assert isinstance(info.value, OutOfRange)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_raise(self, workers):
        # prime k has one task, which runs in this process for any workers
        for k in (7, 12):
            with pytest.raises(OutOfRange, match=r"^workers must be >= 1$"):
                lg.count(k, workers=workers)

    def test_checks_run_k_then_workers_then_budget(self):
        with pytest.raises(OutOfRange, match=r"^k must be >= 1$"):
            lg.count(0, workers=0, max_k=-1)
        with pytest.raises(OutOfRange, match=r"^workers must be >= 1$") as info:
            lg.count(43, workers=0)
        assert not isinstance(info.value, BudgetExceeded)

    def test_worker_determinism(self):
        for k, cls in [(15, lg.LOG), (16, lg.SPECIAL), (13, lg.KM)]:
            assert lg.count(k, cls, workers=2) == lg.count(k, cls, workers=1)

    def test_worker_invariance_at_tail_edges(self):
        # k = 3: the tail starts right after f(2); k = 4: the tail is a
        # singleton (3); k = 41 special: the tail holds the singleton 41;
        # k = 42: the largest tail of the table.
        cases = [(k, cls) for k in (3, 4, 42) for cls in lg.CLASSES]
        for k, cls in cases + [(41, lg.SPECIAL)]:
            assert lg.count(k, cls, workers=2) == lg.count(k, cls, workers=1), (k, cls)

    def test_matches_plain_walk_oracle(self):
        for k in range(3, 21):
            for cls in lg.CLASSES:
                assert lg.count(k, cls) == plain_count(k, cls), (k, cls)

    def test_km_table_pinned(self):
        for k in range(1, 43):
            assert lg.count(k, lg.KM) == PINNED_KM[k], k

    def test_collapsed_tail_matches_full_walk(self):
        # Oracle: walk every prime to a leaf (each value of the last prime's
        # mask), check each representative and add its multiplicity
        # phi(k/f(2)) * prod |B|!, as count did before the tail was collapsed.
        for k in range(3, 31):
            for cls in lg.CLASSES:
                e = lg._Engine(k, cls, enforce_f3=False)
                full = 0
                for mask, _ in e._leaves(e.r):
                    for v in range(k):
                        if mask >> v & 1:
                            e.assigned[-1] = v
                            e._check_representative()
                            full += nt.euler_phi(k // e.assigned[0]) * e.block_fact
                assert lg.count(k, cls) == full, (k, cls)


class TestEngine:
    # The one backtracking walk behind count and search, driven
    # in-process: no test here starts a worker.
    def test_shard_prefixes_sum_to_count(self):
        # One shard per prefix (f(2),), f(2) a divisor of k below k; each
        # engine restores its state, so one engine can count every shard.
        for k in range(3, 31):
            for cls in lg.CLASSES:
                engine = lg._Engine(k, cls, enforce_f3=False)
                shards = [engine.count(f2) for f2 in nt.divisors(k)[:-1]]
                assert sum(shards) == lg.count(k, cls), (k, cls)

    def test_mask_matches_value_by_value_check(self):
        # At random nodes of the walk, the mask of the last walked prime
        # holds exactly the values v that pass a direct check of the prefix
        # plus v: injective and even at the parity targets on the indices
        # that these primes fix, f(2) a divisor below k, f(3) minimal under
        # the scalars fixing f(2) (search only), and v above the previous
        # prime of its block. `used` holds the values fixed before it.
        rng = random.Random(23)
        factors = {m: nt.factorize(m) for m in range(1, 31)}
        seen = set()
        for k in (4, 6, 9, 10, 12, 16, 18, 20, 24, 30):
            units = [a for a in range(1, k) if math.gcd(a, k) == 1]
            for cls in lg.CLASSES:
                pred = {q: prev for b in lg.blocks(k, cls).blocks for prev, q in zip(b, b[1:])}
                even = even_targets(k, cls)
                for enforce_f3 in (False, True):
                    e = lg._Engine(k, cls, enforce_f3)
                    for depth in range(1, e.r + 1):
                        q = e.qs[depth - 1]
                        fixed = [m for m in range(1, k + 1) if all(p <= q for p, _ in factors[m])]
                        nodes = sum(1 for _ in e._leaves(depth))
                        picks = set(rng.sample(range(nodes), min(4, nodes)))
                        for i, (mask, used) in enumerate(e._leaves(depth)):
                            if i not in picks:
                                continue
                            vals = dict(zip(e.qs, e.assigned[: depth - 1]))
                            want = 0
                            for v in range(k):
                                vals[q] = v
                                image = [sum(x * vals[p] for p, x in factors[m]) % k for m in fixed]
                                ok = len(set(image)) == len(image)
                                ok &= all(y % 2 == 0 for m, y in zip(fixed, image) if m in even)
                                if q == 2:
                                    ok &= v in nt.divisors(k)[:-1]
                                if q == 3 and enforce_f3:
                                    ok &= all(a * v % k >= v for a in units if a * vals[2] % k == vals[2])
                                if q in pred:
                                    ok &= v > vals[pred[q]]
                                want |= ok << v
                            assert mask == want, (k, cls, enforce_f3, e.assigned[: depth - 1])
                            before = {y for m, y in zip(fixed, image) if m % q}
                            assert used == sum(1 << y for y in before), (k, cls, e.assigned[: depth - 1])
                            hits = {
                                "parity": any(m in even for m in fixed if m % q == 0),
                                "heavy": q * q <= k,
                                "block": q in pred,
                                "f3": q == 3 and enforce_f3,
                            }
                            seen.update(tag for tag, hit in hits.items() if hit)
        assert seen == {"parity", "heavy", "block", "f3"}

    def test_representative_check_matches_pairwise_oracle(self):
        # The check raises exactly when two scalars fixing f(2) map the
        # singleton-prime values to the same vector.
        rng = random.Random(29)
        seen = set()
        for k in (8, 12, 15, 24, 30):
            e = lg._Engine(k, lg.LOG, enforce_f3=False)
            for _ in range(100):
                f2 = rng.choice(nt.divisors(k)[:-1])
                e.assigned[:] = [f2] + [rng.randrange(k) for _ in range(e.r - 1)]
                sing = [e.assigned[j] for j in e.singleton_idx]
                stab = [a for a in range(1, k) if math.gcd(a, k) == 1 and a * f2 % k == f2]
                vectors = {tuple(a * s % k for s in sing) for a in stab}
                collide = len(vectors) < len(stab)
                if collide:
                    with pytest.raises(CountingError, match="collide under scaling"):
                        e._check_representative()
                else:
                    e._check_representative()
                seen.add(collide)
        assert seen == {False, True}

    def test_search_many_is_an_increasing_prefix(self):
        for k in range(3, 43):
            for cls in lg.CLASSES:
                for limit in (1, 5):
                    few = lg.search_many(k, cls, limit)
                    more = lg.search_many(k, cls, limit + 4)
                    assert few == more[: len(few)], (k, cls, limit)
                    keys = [tuple(f.prime_values[q] for q in nt.primes(k)) for f in more]
                    assert all(a < b for a, b in zip(keys, keys[1:])), (k, cls)
                    assert lg.search(k, cls) == (few[0] if few else None)

    def test_one_dlog_constructor(self):
        for k in range(1, 43):
            p = 2 * k + 1
            if nt.is_prime(p):
                f = lg.dlog_logfn(p, k)
                assert f == kr.induced_log(p, k) == lg.log_from_safe_prime(k), k

    def test_tail_is_derived_from_the_tables(self):
        # The tail primes outside the singletons lie in one block, so count
        # gives them the one increasing order and no ordering factor.
        for k in range(3, 43):
            for cls in lg.CLASSES:
                e = lg._Engine(k, cls, enforce_f3=False)
                top = [q for q in e.qs if 2 * q > k and q != 2]
                assert e.qs[e.tail:] == top, (k, cls)
                rest = set(top) - {e.qs[j] for j in e.tail_singles}
                grouped = [b for b in lg.blocks(k, cls).blocks if rest & set(b)]
                assert len(grouped) <= 1, (k, cls)
        assert lg._Engine(4, lg.LOG, enforce_f3=False).tail_singles == [1]
        special41 = lg._Engine(41, lg.SPECIAL, enforce_f3=False)
        assert [special41.qs[j] for j in special41.tail_singles] == [41]
        # f(3) forced minimal in search: 3 and the block {3, 5} stay walked
        assert lg._Engine(5, lg.LOG, enforce_f3=True).tail == 3

    def test_single_task_starts_no_pool(self, no_process):
        # prime k: f(2) = 1 is the only task, so 2 workers run in-process
        assert lg.count(41, lg.LOG, workers=2) == lg.count(41, lg.LOG)
        assert kr.scan_k_radius_primes(3, 3000, workers=1)
        assert kr.density_scan(3, 3000).k_radius_count > 0
        if sq.pool_size(2, 2) == 2:
            # control: a count with several tasks does start a process
            with pytest.raises(AssertionError, match="a process was started"):
                lg.count(42, lg.LOG, workers=2)


class TestScalingClosure:
    def test_scaling_preserves_class(self):
        rng = random.Random(17)
        for k in range(3, 25):
            f = lg.search(k)
            units = [a for a in range(1, k) if math.gcd(a, k) == 1]
            for _ in range(5):
                a = rng.choice(units)
                scaled = lg.eval_vector(
                    k, {q: a * v % k for q, v in f.prime_values.items()}
                )
                base = lg.classify(f)
                got = lg.classify(scaled)
                assert got.is_logarithm == base.is_logarithm
                assert got.is_km == base.is_km
                assert got.is_special_km == base.is_special_km


class TestSafePrimeRoute:
    def test_doubled_modulus_route(self):
        f = lg.log_from_safe_prime(6)
        assert f.full_vector == (0, 1, 4, 2, 3, 5)
        assert lg.classify(f).is_special_km

    def test_plain_modulus_route(self):
        f = lg.log_from_safe_prime(4)
        assert f.full_vector == (0, 1, 3, 2)
        c = lg.classify(f)
        assert c.is_logarithm and not c.is_special_km

    def test_absent(self):
        assert lg.log_from_safe_prime(7) is None

    def test_guarantees_up_to_60(self):
        for k in range(1, 61):
            f = lg.log_from_safe_prime(k)
            if f is None:
                assert not nt.is_prime(k + 1) and not nt.is_prime(2 * k + 1)
                continue
            c = lg.classify(f)
            assert c.is_logarithm
            if nt.is_prime(2 * k + 1):
                assert c.is_special_km, k
            elif k % 8 == 0:
                assert c.is_special_km, k


class TestDlogLogfn:
    def test_matches_brute_force_dlog(self):
        # Oracle: the discrete log of every unit by walking the powers of
        # the primitive root, reduced mod k.
        for p in nt.primes(2000):
            g = nt.primitive_root(p)
            dlog, x = {}, 1
            for i in range(p - 1):
                dlog[x] = i
                x = x * g % p
            for k in range(1, 41):
                if (p - 1) % k == 0:
                    f = lg.dlog_logfn(p, k)
                    assert f.prime_values == {q: dlog[q] % k for q in nt.primes(k)}, (p, k)

    def test_rejects_k_not_dividing_p_minus_1(self):
        with pytest.raises(ValueError):
            lg.dlog_logfn(7, 4)


class TestImageStats:
    @pytest.mark.parametrize("k,expected", [(1, (1, 1)), (4, (4, 4)), (5, (5, 5))])
    def test_examples(self, k, expected):
        assert lg.image_stats(k) == expected

    def test_maximal_through_budget(self):
        for k in range(1, 21):
            assert lg.image_stats(k) == (k, k)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            lg.image_stats(21)


class TestLogFnFormat:
    def test_round_trip(self):
        f = lg.search(12)
        text = lg.format_logfn(f)
        assert text.splitlines()[0] == "k=12"
        back = lg.parse_logfn(text)
        assert back.full_vector == f.full_vector

    def test_missing_header(self):
        with pytest.raises(ValueError):
            lg.parse_logfn("q=2 f=1\n")

    @pytest.mark.parametrize("line,field", [("q=2", "f"), ("f=1", "q")])
    def test_value_line_missing_field(self, line, field):
        with pytest.raises(ValueError, match=f"no '{field}=' field"):
            lg.parse_logfn(f"k=3\n{line}\n")

    def test_value_line_token_without_equals(self):
        with pytest.raises(ValueError, match="has a token 'f' without '='"):
            lg.parse_logfn("k=3\nq=2 f\n")
