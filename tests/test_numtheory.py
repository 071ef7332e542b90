import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiusseq import numtheory as nt
from radiusseq import tilings as tl


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


class TestSegmentedSieve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3000), st.integers(-5, 3000))
    def test_against_trial_division(self, lo, hi):
        flags = nt.segmented_sieve(lo, hi)
        assert list(flags) == [int(trial_division_prime(m)) for m in range(lo, hi + 1)]

    def test_primes_against_trial_division(self):
        for limit in (-3, 0, 1, 2, 3, 4, 25, 360, 1009):
            want = [p for p in range(2, limit + 1) if trial_division_prime(p)]
            assert nt.primes(limit) == want, limit


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


def closure(gens, p):
    """The subgroup <gens> of Z_p* by plain closure (oracle)."""
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % p
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def evaluate(gens, v, p):
    return math.prod(pow(g, e, p) for g, e in zip(gens, v)) % p


@st.composite
def units_mod_prime(draw):
    """A small prime p and a random subset, in random order, of the primes below p."""
    p = draw(st.sampled_from(nt.primes(150)[1:]))
    gens = draw(st.lists(st.sampled_from(nt.primes(p - 1)), unique=True, max_size=4))
    return gens, p


class TestRelationLattice:
    @pytest.mark.parametrize(
        "gens,p,rows",
        [([2], 7, ((3,),)), ([2, 3], 7, ((1, 4), (0, 6))), ([4, 2], 7, ((1, 1), (0, 3)))],
    )
    def test_examples(self, gens, p, rows):
        basis, vec_of = nt.relation_lattice(gens, p)
        assert basis.rows == rows
        assert set(vec_of) == closure(gens, p)

    @settings(max_examples=150, deadline=None)
    @given(units_mod_prime())
    def test_rows_are_relations(self, case):
        gens, p = case
        for row in nt.relation_lattice(gens, p)[0].rows:
            assert evaluate(gens, row, p) == 1

    @settings(max_examples=150, deadline=None)
    @given(units_mod_prime())
    def test_rows_in_hermite_normal_form(self, case):
        gens, p = case
        rows = nt.relation_lattice(gens, p)[0].rows
        for i, row in enumerate(rows):
            assert all(x == 0 for x in row[:i])
            assert row[i] > 0
            for above in rows[:i]:
                assert 0 <= above[i] < row[i]

    @settings(max_examples=150, deadline=None)
    @given(units_mod_prime())
    def test_determinant_equals_subgroup_order(self, case):
        gens, p = case
        basis = nt.relation_lattice(gens, p)[0]
        pivots = [row[i] for i, row in enumerate(basis.rows)]
        assert math.prod(pivots) == basis.determinant() == len(closure(gens, p))

    @settings(max_examples=150, deadline=None)
    @given(units_mod_prime())
    def test_exponent_vectors_fill_the_box(self, case):
        # The box prod [0, d_i) is a fundamental domain of the lattice, so
        # its points meet each coset of Z^r once: one per element of <gens>.
        gens, p = case
        basis, vec_of = nt.relation_lattice(gens, p)
        pivots = [row[i] for i, row in enumerate(basis.rows)]
        assert set(vec_of) == closure(gens, p)
        assert set(vec_of.values()) == set(itertools.product(*map(range, pivots)))
        for h, v in vec_of.items():
            assert evaluate(gens, v, p) == h

    def test_membership_of_lattice_combinations(self):
        gens, p = [2, 3, 5], 31
        rows = nt.relation_lattice(gens, p)[0].rows
        rng = random.Random(3)
        for _ in range(50):
            coeffs = [rng.randrange(-4, 5) for _ in rows]
            v = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)]
            assert evaluate(gens, v, p) == 1

    @settings(max_examples=60, deadline=None)
    @given(units_mod_prime())
    def test_rows_span_every_relation(self, case):
        # Brute force: every relation with small entries is an integer
        # combination of the rows (back-substitution on the triangle).
        gens, p = case
        rows = nt.relation_lattice(gens[:3], p)[0].rows
        for v in itertools.product(range(-4, 5), repeat=len(rows)):
            if evaluate(gens, v, p) != 1:
                continue
            rest = list(v)
            for i, row in enumerate(rows):
                assert rest[i] % row[i] == 0
                c = rest[i] // row[i]
                rest = [x - c * y for x, y in zip(rest, row)]
            assert not any(rest)

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            nt.relation_lattice([2, 7], 7)


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


def fraction_lll(rows):
    """Oracle: the same LLL loop on rational Gram-Schmidt vectors (Fraction),
    recomputed from scratch after every change of the basis."""

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt(b):
        ortho, mu = [], [[Fraction(0)] * len(b) for _ in b]
        for i, row in enumerate(b):
            v = [Fraction(x) for x in row]
            for j in range(i):
                mu[i][j] = dot(row, ortho[j]) / dot(ortho[j], ortho[j])
                v = [x - mu[i][j] * y for x, y in zip(v, ortho[j])]
            ortho.append(v)
        return ortho, mu

    b = [list(r) for r in rows]
    ortho, mu = gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in reversed(range(k)):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                ortho, mu = gram_schmidt(b)
        lhs = dot(ortho[k], ortho[k])
        if lhs >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(ortho[k - 1], ortho[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu = gram_schmidt(b)
            k = max(k - 1, 1)
    b.sort(key=lambda row: sum(x * x for x in row))
    return tuple(tuple(row) for row in b)


def character_pattern_primes(k, count):
    """The first `count` primes p > k with -1 a non-residue and every prime
    <= k a residue: the primes whose relation lattices the tiling reduces."""
    qs = nt.primes(k)
    out, p = [], k + 1
    while len(out) < count:
        p += 1
        if (nt.is_prime(p) and nt.legendre(-1, p) == -1
                and all(nt.legendre(q, p) == 1 for q in qs)):
            out.append(p)
    return out


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
        # rows of the reduced relation basis are still relations
        gens, p = [2, 3, 5, 7], 311
        reduced = nt.lll_reduce(nt.relation_lattice(gens, p)[0])
        for row in reduced.rows:
            assert evaluate(gens, row, p) == 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            nt.IntBasis(2, ((1, 2), (2, 4)))

    @pytest.mark.parametrize("k", range(2, 21))
    def test_matches_fraction_reference_on_relation_lattices(self, k):
        qs = nt.primes(k)
        # admissible primes for k >= 13 exceed 10**5; their walks are slow
        admissible = {tl.admissible_prime(n, k) for n in (2, 1000)} if k <= 12 else set()
        for p in sorted(admissible | set(character_pattern_primes(k, 3))):
            basis = nt.relation_lattice(qs, p)[0]
            assert nt.lll_reduce(basis).rows == fraction_lll(basis.rows), (k, p)

    @pytest.mark.parametrize(
        "rows",
        [
            ((2, 0), (3, 1)),  # mu = 3/2: rounds to even 2, not 1
            ((2, 0), (5, 1)),  # mu = 5/2: rounds to even 2, not 3
            ((2, 0), (-3, 1)),  # mu = -3/2: rounds to even -2, not -1
            ((0, 0, 2), (1, -2, -1), (2, -3, -3)),  # a Lovasz test holds with equality
        ],
    )
    def test_matches_fraction_reference_at_ties(self, rows):
        assert nt.lll_reduce(nt.IntBasis(len(rows), rows)).rows == fraction_lll(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda r: st.tuples(*[st.tuples(*[st.integers(-50, 50)] * r)] * r)
    ).filter(lambda rows: nt.determinant(rows) != 0))
    def test_matches_fraction_reference_on_random_bases(self, rows):
        assert nt.lll_reduce(nt.IntBasis(len(rows), rows)).rows == fraction_lll(rows)
