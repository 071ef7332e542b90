import collections
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiusseq import covers as cv
from radiusseq import logarithms as lg
from radiusseq import numtheory as nt
from radiusseq import sequences as sq
from radiusseq import tilings as tl
from radiusseq.errors import BadPrime, NotBijective, OutOfRange


class TestCluster:
    def test_k2(self):
        c = tl.cluster(2)
        assert c.r == 1 and set(c.points) == {(0,), (1,)}

    def test_k4(self):
        c = tl.cluster(4)
        assert c.r == 2
        assert set(c.points) == {(0, 0), (1, 0), (2, 0), (0, 1)}

    def test_size_is_k(self):
        for k in range(1, 101):
            assert len(tl.cluster(k).points) == k

    def test_downward_closed(self):
        for k in (6, 12, 30):
            pts = set(tl.cluster(k).points)
            for p in pts:
                for i in range(len(p)):
                    if p[i] > 0:
                        q = list(p)
                        q[i] -= 1
                        assert tuple(q) in pts


class TestTilingFromLog:
    def test_k4_example(self):
        t = tl.tiling_from_log(lg.eval_vector(4, {2: 1, 3: 3}))
        assert sorted(t.inverse_table) == [0, 1, 2, 3]

    def test_k2_trivial(self):
        t = tl.tiling_from_log(lg.search(2))
        assert sorted(t.inverse_table) == [0, 1]

    def test_safe_prime_logarithm(self):
        t = tl.tiling_from_log(lg.log_from_safe_prime(6))
        assert sorted(t.inverse_table) == list(range(6))

    def test_non_logarithm_rejected(self):
        with pytest.raises(NotBijective):
            tl.tiling_from_log(lg.eval_vector(4, {2: 2, 3: 1}))

    def test_bijective_for_found_logarithms(self):
        for k in range(1, 43):
            f = lg.search(k)
            t = tl.tiling_from_log(f)
            assert sorted(t.inverse_table) == list(range(k)), k


class TestLocate:
    def test_cluster_points_map_to_origin(self):
        t = tl.tiling_from_log(lg.eval_vector(4, {2: 1, 3: 3}))
        for c in tl.cluster(4).points:
            z, c2 = tl.locate(c, t)
            assert z == (0, 0) and c2 == c

    def test_worked_example(self):
        t = tl.tiling_from_log(lg.eval_vector(4, {2: 1, 3: 3}))
        z, c = tl.locate((3, 1), t)
        assert c == (2, 0) and z == (1, 1)
        assert tl.psi_value(t, z) == 0

    def test_lattice_periodicity(self):
        t = tl.tiling_from_log(lg.eval_vector(4, {2: 1, 3: 3}))
        y = (3, 1)
        z, c = tl.locate(y, t)
        shift = (2, 2)  # psi(shift) = 2*1 + 2*3 = 8 = 0 mod 4
        assert tl.psi_value(t, shift) == 0
        z2, c2 = tl.locate(tuple(a + b for a, b in zip(y, shift)), t)
        assert c2 == c
        assert z2 == tuple(a + b for a, b in zip(z, shift))

    def test_box_partition_brute_force(self):
        # every point of a box decomposes uniquely; same-translate points agree
        for k in (2, 3, 4, 6, 8, 10):
            f = lg.search(k)
            t = tl.tiling_from_log(f)
            r = len(t.psi_values)
            pts = set(tl.cluster(k).points)
            seen = {}
            for y in itertools.product(range(-3, 4), repeat=r):
                z, c = tl.locate(y, t)
                assert c in pts
                assert tl.psi_value(t, z) == 0
                assert tuple(a + b for a, b in zip(z, c)) == y
                key = (z, c)
                assert key not in seen  # disjointness of translates
                seen[key] = y


def cover(p, k, f):
    """The multipliers of the subgroup cover of f at p."""
    return tl._region_cover(p, k, tl._subgroup_region(p, k), f)[0]


class TestSubgroupCover:
    def test_p7_k2(self):
        ds = cover(7, 2, lg.search(2))
        assert ds == [1, 4]
        covered = set().union(*(cv.block_A(d, 2, 7) for d in ds))
        assert covered >= {1, 2, 4}

    def test_bad_prime_rejected(self):
        # p = 5: -1 is a QR mod 5
        with pytest.raises(BadPrime):
            cover(5, 2, lg.search(2))
        # p = 23: 3 is not a QR mod 23... check with k=3 (needs (3/23)=1)
        if nt.legendre(3, 23) != 1:
            with pytest.raises(BadPrime):
                cover(23, 3, lg.search(3))

    @pytest.mark.parametrize("length", [4, 5, 8])
    def test_rejects_logarithm_of_other_length(self, length):
        with pytest.raises(ValueError, match="logarithm length does not match k"):
            tl.tiling_sequence(239, 6, lg.search(length))

    def test_cover_property_various_primes(self):
        f = lg.search(3)
        for p in (23, 47):
            if nt.legendre(-1, p) != -1:
                continue
            if any(nt.legendre(q, p) != 1 for q in (2, 3)):
                continue
            ds = cover(p, 3, f)
            sub = {1}
            frontier = [1]
            while frontier:
                h = frontier.pop()
                for q in (2, 3):
                    h2 = h * q % p
                    if h2 not in sub:
                        sub.add(h2)
                        frontier.append(h2)
            covered = set().union(*(cv.block_A(d, 3, p) for d in ds))
            assert sub <= covered

    def test_fundamental_region_and_lll_bound_k6_p239(self):
        region = tl._subgroup_region(239, 6)
        sub, ell = set(region), len(region)
        assert ell == len(sub) == 119
        basis = nt.lll_reduce(nt.relation_lattice([2, 3, 5], 239)[0])
        assert abs(basis.determinant()) == ell
        prod_sq = math.prod(sum(x * x for x in row) for row in basis.rows)
        r = 3
        assert prod_sq <= 2 ** (r * (r - 1) // 2) * ell**2


def _admissible_below(k, bound):
    p = tl.admissible_prime(2, k)
    while p < bound:
        yield p
        p = tl.admissible_prime(p + 1, k)


def test_multipliers_match_exponent_map():
    # Oracle: the exponent map q_1^z_1 ... q_r^z_r mod p of every
    # translate z that meets the fundamental region, at every admissible
    # p < 2000 for k <= 10 and every candidate logarithm.
    checked = 0
    for k in range(1, 11):
        qs = nt.primes(k)
        for p in _admissible_below(k, 2000):
            region = tl._subgroup_region(p, k)
            for f in lg.search_many(k, limit=tl.CANDIDATES):
                tiling = tl.tiling_from_log(f)
                translates = {tl.locate(y, tiling)[0] for y in region.values()}
                want = {math.prod(pow(q, e, p) for q, e in zip(qs, z)) % p for z in translates}
                got = tl._region_cover(p, k, region, f)
                assert got == (sorted(want), len(translates)), (p, k, f)
                checked += 1
    assert checked == 299  # 252 (p, k) pairs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_region_cover_matches_locate_in_low_rank(k):
    # r = pi(k) is 0, 1 and 2 here. Oracle: locate each region point on
    # its own; the point y of h lies in the translate z of the cluster
    # point c of some m in 1..k, and that translate maps to h * m^-1.
    m_of = {c: m for m, c in enumerate(tl.cluster(k).points, 1)}
    for p in itertools.islice(_admissible_below(k, 2000), 4):
        region = tl._subgroup_region(p, k)
        assert len(region) == len(nt.relation_lattice(nt.primes(k), p)[1])
        f = lg.search(k)
        tiling = tl.tiling_from_log(f)
        located = [(h, *tl.locate(y, tiling)) for h, y in region.items()]
        want = sorted({h * pow(m_of[c], -1, p) % p for h, _, c in located})
        w = len({z for _, z, _ in located})
        assert tl._region_cover(p, k, region, f) == (want, w), (p, k)
        if k == 1:
            assert region == {1: ()} and w == 1


def _plan_before_pass(n, k, f=None):
    """tiling_plan(n, k, f), and the plan it gave covers.irredundant."""
    before = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tl, "irredundant", lambda plan: before.append(plan) or cv.irredundant(plan))
        plan, rep = tl.tiling_plan(n, k, f)
    return plan, rep, before[0]


ADMISSIBLE = [(p, k) for k in range(1, 11) for p in _admissible_below(k, 2000)]


class TestIrredundantTiling:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ADMISSIBLE))
    def test_pruned_plan_is_an_irredundant_cover(self, case):
        p, k = case
        plan, rep, before = _plan_before_pass(p, k)
        kept, full = plan.multipliers, before.multipliers
        assert (plan.p, plan.k, before.p) == (p, k, p)
        # a subset of the assembled plan, in its order
        rest = iter(full)
        assert all(d in rest for d in kept)
        assert cv.verify_cover(plan)[0]
        # dropping any one kept multiplier uncovers the residues that only
        # its block holds
        holders = collections.Counter(x for d in kept for x in cv.block_B(d, k, p))
        for d in kept:
            assert min(holders[x] for x in cv.block_B(d, k, p)) == 1, (p, k, d)
        assert rep.cover_size == len(kept) <= len(full)
        assert rep.seq_length == plan.length
        assert len(full) <= rep.coset_count // 2 * rep.translate_count

    def test_hand_checked_p239_k6(self):
        plan, rep, before = _plan_before_pass(239, 6)
        assert before.multipliers == (
            1, 6, 8, 10, 18, 25, 33, 34, 44, 48, 54, 58, 60, 62, 64, 67, 80, 98, 110,
            113, 127, 162, 163, 180, 186, 187, 193, 200, 225)
        dropped = (6, 80, 180)
        assert plan.multipliers == tuple(d for d in before.multipliers if d not in dropped)
        assert (len(before.multipliers), rep.cover_size) == (29, 26)
        # i * d = j * e mod 239 for a kept e: entry i - 1 is (e, j), 1 <= j <= 6
        covered_by = {
            6: [(1, 6), (98, 5), (18, 1), (8, 3), (10, 3), (18, 2)],
            80: [(186, 3), (186, 6), (1, 1), (64, 5), (200, 2), (1, 2)],
            180: [(60, 3), (60, 6), (62, 1), (1, 3), (225, 4), (62, 2)],
        }
        for d, witnesses in covered_by.items():
            for i, (e, j) in enumerate(witnesses, 1):
                assert e in plan.multipliers and 1 <= j <= 6
                assert i * d % 239 == j * e % 239, (d, i)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _nonsingular_bases():
    def build(r):
        row = st.tuples(*[st.integers(-9, 9)] * r)
        return st.tuples(*[row] * r).filter(lambda rows: nt.determinant(rows) != 0)

    return st.integers(1, 4).flatmap(build)


class TestIntegerReduction:
    @settings(max_examples=200, deadline=None)
    @given(_nonsingular_bases(), st.data())
    def test_reduce_matches_rational_floor(self, rows, data):
        r = len(rows)
        batch = data.draw(st.lists(st.tuples(*[st.integers(-60, 60)] * r), min_size=1, max_size=8))
        det = nt.determinant(rows)
        cof = tl._cofactors(rows)
        for a in range(r):
            for b in range(r):
                assert _dot(rows[a], cof[b]) == (det if a == b else 0)
        # _reduce takes and returns one column per coordinate.
        reduced = list(zip(*tl._reduce(list(zip(*batch)), rows, cof, det)))
        assert len(reduced) == len(batch)
        sign = 1 if det > 0 else -1
        for v, red in zip(batch, reduced):
            for col in cof:
                # red sits in the fundamental parallelepiped ...
                assert 0 <= _dot(red, col) * sign < abs(det)
                # ... and differs from v by a lattice vector.
                assert _dot([x - y for x, y in zip(v, red)], col) % det == 0
            # Oracle: the floors of the rational coordinates v * rows^-1.
            coeffs = [Fraction(_dot(v, col), det) for col in cof]
            want = [x - sum(math.floor(c) * row[j] for c, row in zip(coeffs, rows))
                    for j, x in enumerate(v)]
            assert red == tuple(want)

    @pytest.mark.parametrize("n,k", [(239, 6), (1000, 6), (1000, 10)])
    def test_region_is_one_point_per_lattice_coset(self, n, k):
        p = tl.admissible_prime(n, k)
        region = tl._subgroup_region(p, k)
        qs = nt.primes(k)
        rows = nt.lll_reduce(nt.relation_lattice(qs, p)[0]).rows
        det = nt.determinant(rows)
        sign = 1 if det > 0 else -1
        cof = tl._cofactors(rows)
        assert len(set(region.values())) == len(region) == abs(det)
        for h, red in region.items():
            assert all(0 <= _dot(red, col) * sign < abs(det) for col in cof)
            # red is an exponent vector of h: its class mod the lattice is h.
            assert math.prod(pow(q, e, p) for q, e in zip(qs, red)) % p == h


class TestAdmissiblePrime:
    def test_k6_target(self):
        assert tl.admissible_prime(200, 6) == 239

    def test_congruence_and_characters(self):
        for n, k in [(10, 2), (50, 3), (100, 4), (200, 6)]:
            p = tl.admissible_prime(n, k)
            assert p >= n and nt.is_prime(p)
            assert nt.legendre(-1, p) == -1
            for q in nt.primes(k):
                assert nt.legendre(q, p) == 1, (p, q)


class TestTilingSequence:
    def test_k6_p239_pipeline(self):
        seq, rep = tl.tiling_sequence(239, 6)
        assert rep.p == 239
        assert sq.verify(seq)[0]
        assert rep.seq_length == len(seq)
        assert rep.seq_length * 6 * 2 <= 3 * math.comb(239, 2)  # <= 1.5x lower bound
        assert rep.translate_count * 6 <= 2 * rep.subgroup_order

    def test_k2_route_matches_order_of_two_cover(self):
        seq, rep = tl.tiling_sequence(7, 2, lg.search(2))
        direct = cv.sequence_from_cover(cv.two_radius_cover(rep.p))
        assert rep.seq_length == len(direct)

    def test_k1_route_is_exact_optimum(self):
        seq, rep = tl.tiling_sequence(5, 1, lg.search(1))
        assert sq.verify(seq)[0]
        assert rep.seq_length == math.comb(rep.p, 2) + 1

    def test_walk_cap_on_half_the_prime(self, monkeypatch):
        # (239-1)/2 = 119: the cap is inclusive, and it is checked before
        # the subgroup walk
        monkeypatch.setattr(tl, "MAX_HALF_ORDER", 119)
        assert tl.tiling_plan(200, 6)[0].p == 239
        monkeypatch.setattr(tl, "MAX_HALF_ORDER", 118)
        monkeypatch.setattr(tl, "_subgroup_region", None)
        with pytest.raises(OutOfRange, match="p=239 .* cap 118"):
            tl.tiling_plan(200, 6)

    @pytest.mark.parametrize("k", [13, 17])
    def test_large_k_rejected_at_n2(self, k):
        with pytest.raises(OutOfRange, match=f"p={tl.admissible_prime(2, k)} "):
            tl.tiling_plan(2, k)

    def test_full_cover_assembled(self):
        for n, k in [(20, 2), (30, 3), (100, 4), (119, 5)]:
            seq, rep = tl.tiling_sequence(n, k)
            assert sq.verify(seq)[0]
            assert rep.seq_length == rep.cover_size * (rep.p + k - 1) + 1
            assert rep.seq_length > math.comb(rep.p, 2) / k


def _digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# Reports and symbol digests of the plans before covers.irredundant, as the
# (w, unpruned |D|) ranking chooses them: they pin the candidate choice.
# Recorded from the pipeline that reduced the region with rational
# arithmetic and rebuilt it for every candidate logarithm; the
# integer-only, build-once pipeline must reproduce them.
PINNED = [
    (239, 6, False, (239, 6, 119, 2, 37, 29, 7077, Fraction(6066, 4063)),
     "c0aa491e5f9f76749ff2d5d9d73c46d596b7bd7c0e37f7ec8e77044f09098c78"),
    (1000, 6, False, (1319, 6, 659, 2, 173, 173, 229053, Fraction(76351, 27750)),
     "415b0418baf74a379b6d48875e5414d1ca3c22869c5900099e39fad27e6cb360"),
    (1000, 10, False, (3359, 10, 1679, 2, 385, 363, 1222585, Fraction(244517, 9990)),
     "dfe4cffc6b137c13495266ee12adbbbb48feb60b71f11be9c168fae0a9e79ffc"),
    (1000, 10, True, (3359, 10, 1679, 2, 392, 383, 1289945, Fraction(257989, 9990)),
     "2a905a639ae9771cc060b9d7014f02800dde44de98f06540bc20991bfd73e769"),
]
# The same plans after the pass: the report and symbol digest that
# tiling_sequence returns, recorded once the irredundancy property tests
# and the verify command passed on them.
PRUNED = {
    (239, 6, False): ((239, 6, 119, 2, 37, 26, 6345, Fraction(38070, 28441)),
                      "54fbc281cf2552d74afff67646a942d244e338ef22ed98ec43c20c341cdfb5c6"),
    (1000, 6, False): ((1319, 6, 659, 2, 173, 144, 190657, Fraction(190657, 83250)),
                       "71b775452874e153dd48bf5dade95d661071237f71f0f852561f8253b2eec37a"),
    (1000, 10, False): ((3359, 10, 1679, 2, 385, 255, 858841, Fraction(858841, 49950)),
                        "b80f0811385d839d9fd6570425730129a5dc1b42d1f9895b8c119545215a85ba"),
    (1000, 10, True): ((3359, 10, 1679, 2, 392, 259, 872313, Fraction(290771, 16650)),
                       "ea84dcc0c64fc7c7ceefffc2c2c9450adcef374aa3af65a9e6f26974a33b67bd"),
}


@pytest.mark.parametrize("n,k,explicit,report,digest", PINNED)
def test_pinned_report_and_symbols(monkeypatch, n, k, explicit, report, digest):
    f = lg.search(k) if explicit else None
    seq, rep = tl.tiling_sequence(n, k, f)
    pruned_report, pruned_digest = PRUNED[n, k, explicit]
    assert rep == tl.TilingReport(*pruned_report)
    assert _digest(seq.symbols) == pruned_digest
    plan, plan_rep = tl.tiling_plan(n, k, f)
    assert plan_rep == rep and plan.length == len(seq)
    monkeypatch.setattr(tl, "irredundant", lambda plan: plan)
    seq, rep = tl.tiling_sequence(n, k, f)
    assert rep == tl.TilingReport(*report)
    assert _digest(seq.symbols) == digest


# Larger cases, pinned by report and plan digest only (no splice): the
# plan fixes the symbols, and hashing the multipliers keeps these fast.
# As in PINNED, the rows are the plans before the pass and PRUNED_PLANS
# the plans after it.
PINNED_PLANS = [
    (4200, 8, (5039, 8, 2519, 2, 661, 629, 3173935, Fraction(1269574, 440895)),
     "96dcb3b86da7ea0d4058b2fec40879b9e0831c4a6d988deb4617c1e44da732ef"),
    (3000, 12, (9239, 12, 4619, 2, 1200, 1147, 10609751, Fraction(10609751, 374875)),
     "032572f9d3295378f1f6e858e1048c1331e5b8afd8cef2876b215386128073f8"),
]
PRUNED_PLANS = {
    (4200, 8): ((5039, 8, 2519, 2, 661, 450, 2270701, Fraction(4541402, 2204475)),
                "e3f62d4a3c66fea531e6e73d489b3c06a4b0f4300ac10b721daf645f32c5fe33"),
    (3000, 12): ((9239, 12, 4619, 2, 1200, 696, 6438001, Fraction(6438001, 374875)),
                 "4e3a6cc115beb233588c341d094b5be7f7c0ef95be89be31b44e7be0481b9e20"),
}


@pytest.mark.parametrize("n,k,report,digest", PINNED_PLANS)
def test_pinned_report_and_plan(monkeypatch, n, k, report, digest):
    plan, rep = tl.tiling_plan(n, k)
    pruned_report, pruned_digest = PRUNED_PLANS[n, k]
    assert rep == tl.TilingReport(*pruned_report)
    assert _digest(plan.multipliers) == pruned_digest
    monkeypatch.setattr(tl, "irredundant", lambda plan: plan)
    plan, rep = tl.tiling_plan(n, k)
    assert rep == tl.TilingReport(*report)
    assert _digest(plan.multipliers) == digest
