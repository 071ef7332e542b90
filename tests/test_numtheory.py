import math
import random
from fractions import Fraction

import pytest

from radiusseq import numtheory as nt
from radiusseq.errors import NoSolution


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def phi_by_count(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


class TestIsPrime:
    def test_small_range_against_trial_division(self):
        for n in range(0, 3000):
            assert nt.is_prime(n) == trial_division_prime(n), n

    def test_examples(self):
        assert nt.is_prime(2)
        assert not nt.is_prime(1)
        assert nt.is_prime(239)

    def test_large_values(self):
        # Carmichael numbers and near-prime composites
        assert not nt.is_prime(561)
        assert not nt.is_prime(3215031751)
        assert nt.is_prime(2**61 - 1)
        assert not nt.is_prime((2**31 - 1) * (2**31 + 11))


class TestEulerPhiAndPrimeCount:
    def test_phi_against_gcd_count(self):
        for n in range(1, 300):
            assert nt.euler_phi(n) == phi_by_count(n), n

    def test_prime_count_against_trial_division(self):
        for n in (0, 1, 2, 10, 360):
            want = len([p for p in range(2, n + 1) if trial_division_prime(p)])
            assert nt.prime_count(n) == want, n


class TestSpfTable:
    def test_against_factorization(self):
        spf = nt.spf_table(500)
        assert spf[:2] == [0, 1]
        for m in range(2, 501):
            assert spf[m] == nt.factorize(m)[0][0], m


class TestMultiplicativeOrder:
    @pytest.mark.parametrize("a,n,expected", [(2, 7, 3), (1, 5, 1), (2, 5, 4)])
    def test_examples(self, a, n, expected):
        assert nt.multiplicative_order(a, n) == expected

    def test_against_direct_powering(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 500)
            a = rng.randrange(1, n)
            if math.gcd(a, n) != 1:
                continue
            got = nt.multiplicative_order(a, n)
            x, steps = a % n, 1
            while x != 1:
                x = x * a % n
                steps += 1
            assert got == steps

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            nt.multiplicative_order(6, 9)


class TestLegendre:
    @pytest.mark.parametrize("a,p,expected", [(2, 5, -1), (0, 7, 0), (-1, 239, -1)])
    def test_examples(self, a, p, expected):
        assert nt.legendre(a, p) == expected

    def test_against_square_sets(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            squares = {a * a % p for a in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert nt.legendre(a, p) == want, (a, p)

    def test_euler_criterion_property(self):
        for p in (101, 239, 499):
            for a in range(1, 40):
                assert nt.legendre(a, p) % p == pow(a, (p - 1) // 2, p)

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            nt.legendre(3, 2)
        with pytest.raises(ValueError):
            nt.legendre(3, 15)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,expected", [(13, 2), (2, 1), (7, 3)])
    def test_examples(self, p, expected):
        assert nt.primitive_root(p) == expected

    def test_order_is_group_order_up_to_10000(self):
        for p in nt.primes(10000):
            g = nt.primitive_root(p)
            if p == 2:
                assert g == 1
            else:
                assert nt.multiplicative_order(g, p) == p - 1, p

    def test_smallest_generator(self):
        for p in (5, 11, 23, 71):
            g = nt.primitive_root(p)
            for smaller in range(2, g):
                assert nt.multiplicative_order(smaller, p) != p - 1


class TestDiscreteLog:
    @pytest.mark.parametrize("base,target,p,expected", [(2, 3, 13, 4), (2, 1, 13, 0), (2, 11, 13, 7)])
    def test_examples(self, base, target, p, expected):
        assert nt.discrete_log(base, target, p) == expected

    def test_round_trip_full_group(self):
        for p in (101, 499):
            g = nt.primitive_root(p)
            for t in range(1, p, 17):
                x = nt.discrete_log(g, t, p)
                assert pow(g, x, p) == t
                assert 0 <= x < p - 1

    def test_least_exponent_in_subgroup(self):
        p = 31
        base = 2  # order 5 mod 31
        d = nt.multiplicative_order(base, p)
        for x in range(d):
            assert nt.discrete_log(base, pow(base, x, p), p) == x

    def test_no_solution_outside_subgroup(self):
        with pytest.raises(NoSolution):
            nt.discrete_log(2, 3, 31)  # 3 is not in <2> mod 31


def subgroup_order_in_zm(exps, m):
    """Order of the subgroup of Z_m generated by the exps (brute force)."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for a in exps:
            y = (x + a) % m
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def kernel_size_in_box(exps, m):
    """Count residue classes of Z^r mod m lying in the kernel (oracle)."""
    import itertools

    r = len(exps)
    count = 0
    for v in itertools.product(range(m), repeat=r):
        if sum(x * a for x, a in zip(v, exps)) % m == 0:
            count += 1
    return count


class TestKernelLattice:
    @pytest.mark.parametrize(
        "exps,m,det", [([1], 4, 4), ([2], 4, 2), ([1, 1], 2, 2)]
    )
    def test_examples(self, exps, m, det):
        basis = nt.kernel_lattice(exps, m)
        assert abs(basis.determinant()) == det

    def test_rows_satisfy_congruence(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randrange(1, 60)
            r = rng.randrange(1, 4)
            exps = [rng.randrange(m) for _ in range(r)]
            basis = nt.kernel_lattice(exps, m)
            for row in basis.rows:
                assert sum(x * a for x, a in zip(row, exps)) % m == 0

    def test_determinant_equals_subgroup_order(self):
        rng = random.Random(13)
        for _ in range(150):
            m = rng.randrange(2, 200)
            r = rng.randrange(1, 4)
            exps = [rng.randrange(m) for _ in range(r)]
            basis = nt.kernel_lattice(exps, m)
            assert abs(basis.determinant()) == subgroup_order_in_zm(exps, m)

    def test_index_by_coset_counting(self):
        # index in Z^r == m^r / (number of kernel residues mod m)
        for exps, m in [([1], 4), ([2], 4), ([1, 1], 2), ([2, 3], 6), ([4, 6], 8)]:
            basis = nt.kernel_lattice(exps, m)
            r = len(exps)
            assert abs(basis.determinant()) == m**r // kernel_size_in_box(exps, m)

    def test_membership_of_lattice_combinations(self):
        basis = nt.kernel_lattice([3, 5], 12)
        rng = random.Random(3)
        for _ in range(50):
            c1, c2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
            v = [c1 * a + c2 * b for a, b in zip(*basis.rows)]
            assert (3 * v[0] + 5 * v[1]) % 12 == 0


def shortest_vector_in_box(rows, box=6):
    import itertools

    best = None
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(rows)):
        if all(c == 0 for c in coeffs):
            continue
        v = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(rows[0]))]
        norm = sum(x * x for x in v)
        if best is None or norm < best:
            best = norm
    return best


class TestLLL:
    def test_identity_already_reduced(self):
        basis = nt.IntBasis(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert nt.lll_reduce(basis).rows == basis.rows

    def test_example_finds_shortest_vectors(self):
        basis = nt.IntBasis(2, ((1, 0), (4, 1)))
        reduced = nt.lll_reduce(basis)
        norms = [sum(x * x for x in row) for row in reduced.rows]
        assert norms[0] == shortest_vector_in_box(basis.rows)
        # squared form of: product of row norms <= 2^(1/2) * |det|
        assert math.prod(norms) <= 2 * abs(basis.determinant()) ** 2

    def test_determinant_preserved(self):
        rng = random.Random(5)
        for _ in range(40):
            dim = rng.randrange(1, 5)
            rows = tuple(
                tuple(rng.randrange(-30, 31) for _ in range(dim)) for _ in range(dim)
            )
            if nt.determinant(rows) == 0:
                continue
            basis = nt.IntBasis(dim, rows)
            reduced = nt.lll_reduce(basis)
            assert abs(reduced.determinant()) == abs(basis.determinant())

    def test_rows_sorted_and_norm_product_bound(self):
        rng = random.Random(9)
        for _ in range(40):
            dim = rng.randrange(2, 5)
            rows = tuple(
                tuple(rng.randrange(-20, 21) for _ in range(dim)) for _ in range(dim)
            )
            if nt.determinant(rows) == 0:
                continue
            reduced = nt.lll_reduce(nt.IntBasis(dim, rows))
            norms = [Fraction(sum(x * x for x in row)) for row in reduced.rows]
            assert norms == sorted(norms)
            # squared bound: prod ||b_i||^2 <= 2^(r(r-1)/2) det^2
            lhs = math.prod(norms)
            rhs = Fraction(2) ** (dim * (dim - 1) // 2) * reduced.determinant() ** 2
            assert lhs <= rhs

    def test_lattice_membership_preserved(self):
        # rows of the reduced kernel basis still satisfy the congruence
        basis = nt.kernel_lattice([7, 11, 13], 30)
        reduced = nt.lll_reduce(basis)
        for row in reduced.rows:
            assert (7 * row[0] + 11 * row[1] + 13 * row[2]) % 30 == 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            nt.IntBasis(2, ((1, 2), (2, 4)))


class TestHermiteNormalForm:
    def test_upper_triangular_canonical(self):
        hnf = nt.hermite_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
        assert all(hnf[i][j] == 0 for i in range(3) for j in range(i))
        for i in range(3):
            assert hnf[i][i] > 0
            for above in range(i):
                assert 0 <= hnf[above][i] < hnf[i][i]

    def test_row_lattice_preserved(self):
        rows = [[4, 2], [2, 8]]
        hnf = nt.hermite_normal_form(rows)
        assert abs(nt.determinant(rows)) == abs(nt.determinant(hnf))
