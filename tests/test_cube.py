"""Vertex sets, subcubes, and the subcube enumerator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    CapabilityError,
    DomainError,
    GF2Matrix,
    LayeredSpec,
    MASK_CAP,
    Subcube,
    SubcubeDistribution,
    VertexSet,
    bernoulli_set,
    binomial,
    distribution,
    distribution_fast,
    enumerate_subcubes,
    exhaustive_lambda,
    lambda_of_set,
    layered_distribution,
    spanning_fraction,
    subcube_count,
    subcube_vertices,
)
from cubestats.cube import check_subcube_dimension


def test_binomial_matches_math_comb():
    for n in range(12):
        for k in range(-1, n + 2):
            assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


class TestVertexSet:
    def test_from_vertices_roundtrip(self):
        A = VertexSet.from_vertices(3, [0, 3, 5])
        assert A.vertices() == [0, 3, 5]
        assert len(A) == 3
        assert 3 in A and 4 not in A

    def test_empty_and_full(self):
        assert len(VertexSet.empty(4)) == 0
        assert len(VertexSet.full(4)) == 16
        assert VertexSet.full(0).vertices() == [0]

    def test_complement(self):
        A = VertexSet.from_vertices(2, [0, 3])
        assert A.complement().vertices() == [1, 2]
        assert A.complement().complement() == A

    def test_json_roundtrip(self):
        A = VertexSet.from_vertices(4, [1, 2, 7, 15])
        assert VertexSet.from_json(A.to_json()) == A
        assert A.to_json() == {"n": 4, "vertices": [1, 2, 7, 15]}

    def test_json_rejects_unsorted(self):
        with pytest.raises(DomainError):
            VertexSet.from_json({"n": 3, "vertices": [2, 1]})

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            VertexSet.from_vertices(2, [4])
        with pytest.raises(CapabilityError):
            VertexSet(MASK_CAP + 1, 0)
        with pytest.raises(CapabilityError):  # raised before allocating 2^60 flags
            VertexSet.from_vertices(60, [])

    @given(st.integers(0, 8), st.data())
    def test_conversions_match_shift_loop(self, n, data):
        A = VertexSet(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
        reference = [v for v in range(1 << n) if (A.bits >> v) & 1]
        assert A.vertices() == reference
        assert A.flags().tolist() == [int(v in A) for v in range(1 << n)]
        assert VertexSet.from_vertices(n, A.vertices()) == A
        assert VertexSet.from_flags(n, A.flags()) == A
        assert VertexSet.from_json(A.to_json()) == A

    @given(st.integers(0, 8), st.data())
    def test_from_vertices_takes_any_order_repeats_and_numpy_ints(self, n, data):
        verts = data.draw(st.lists(st.integers(0, (1 << n) - 1)))
        A = VertexSet(n, sum(1 << v for v in set(verts)))
        assert VertexSet.from_vertices(n, verts) == A
        assert VertexSet.from_vertices(n, verts[::-1] + verts) == A
        assert VertexSet.from_vertices(n, np.array(verts, dtype=np.int64)) == A
        assert VertexSet.from_vertices(n, [np.uint8(v) for v in verts]) == A

    @pytest.mark.parametrize("bad", ["a", 1.5, True, None, 1 << 70, -1])
    def test_from_vertices_rejects_non_vertices(self, bad):
        with pytest.raises(DomainError):
            VertexSet.from_vertices(3, [0, bad])

    @given(st.integers(0, 6), st.data())
    def test_complement_partitions(self, n, data):
        verts = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
        A = VertexSet.from_vertices(n, verts)
        assert len(A) + len(A.complement()) == 1 << n
        assert A.bits ^ A.complement().bits == VertexSet.full(n).bits


class TestSubcube:
    def test_canonical_base_required(self):
        with pytest.raises(DomainError):
            Subcube(3, free=0b011, base=0b001)

    def test_dimension_and_vertices(self):
        q = Subcube(3, free=0b101, base=0b010)
        assert q.dimension == 2
        assert subcube_vertices(q) == [2, 3, 6, 7]
        assert all(v in q for v in (2, 3, 6, 7))
        assert 0 not in q

    def test_vertex_mask(self):
        q = Subcube(3, free=0b101, base=0b010)
        assert q.vertex_mask() == sum(1 << v for v in (2, 3, 6, 7))

    def test_intersects(self):
        a = Subcube(3, free=0b001, base=0b000)  # x00
        b = Subcube(3, free=0b100, base=0b001)  # 0x1 shares vertex 001
        c = Subcube(3, free=0b001, base=0b110)  # x11 disjoint from a
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c)
        assert a.intersects(a)

    @given(st.integers(1, 5), st.data())
    def test_intersects_matches_vertex_masks(self, n, data):
        full = (1 << n) - 1
        f1 = data.draw(st.integers(0, full))
        f2 = data.draw(st.integers(0, full))
        b1 = data.draw(st.integers(0, full)) & ~f1
        b2 = data.draw(st.integers(0, full)) & ~f2
        p, q = Subcube(n, f1, b1), Subcube(n, f2, b2)
        assert p.intersects(q) == bool(p.vertex_mask() & q.vertex_mask())


class TestEnumeration:
    def test_counts(self):
        for n in range(7):
            for d in range(n + 1):
                cubes = list(enumerate_subcubes(n, d))
                assert len(cubes) == subcube_count(n, d)
                assert len(cubes) == binomial(n, d) << (n - d)
                assert len(set(cubes)) == len(cubes)
                assert all(c.dimension == d for c in cubes)

    def test_edges_of_q3(self):
        edges = [subcube_vertices(q) for q in enumerate_subcubes(3, 1)]
        assert len(edges) == 12
        # every edge joins vertices at Hamming distance 1
        assert all(bin(u ^ v).count("1") == 1 for u, v in edges)

    def test_each_vertex_in_binomial_many_subcubes(self):
        n, d = 5, 2
        tally = [0] * (1 << n)
        for q in enumerate_subcubes(n, d):
            for v in subcube_vertices(q):
                tally[v] += 1
        assert all(t == binomial(n, d) for t in tally)

    def test_degenerate_dimensions(self):
        assert subcube_count(4, 0) == 16
        assert subcube_count(4, 4) == 1
        assert list(enumerate_subcubes(0, 0)) == [Subcube(0, 0, 0)]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            subcube_count(3, 4)
        with pytest.raises(DomainError):
            list(enumerate_subcubes(2, -1))

    def test_order_is_free_then_base_ascending(self):
        for n in range(7):
            for d in range(n + 1):
                cubes = list(enumerate_subcubes(n, d))
                pairs = [(q.free, q.base) for q in cubes]
                assert pairs == sorted(pairs)
                for q in cubes:
                    assert subcube_vertices(q) == [v for v in range(1 << n) if v in q]


# every entry point that takes a subcube dimension d of Q_3
DIMENSION_ENTRY_POINTS = {
    "check_subcube_dimension": lambda d: check_subcube_dimension(3, d),
    "subcube_count": lambda d: subcube_count(3, d),
    "enumerate_subcubes": lambda d: list(enumerate_subcubes(3, d)),
    "distribution": lambda d: distribution(VertexSet.empty(3), d),
    "distribution_fast": lambda d: distribution_fast(VertexSet.empty(3), d),
    "lambda_of_set": lambda d: lambda_of_set(VertexSet.empty(3), d, 0),
    "layered_distribution": lambda d: layered_distribution(
        3, d, LayeredSpec(2, frozenset({0}))
    ),
    "SubcubeDistribution.from_json": lambda d: SubcubeDistribution.from_json(
        {"n": 3, "d": d, "total": "1", "counts": {}}
    ),
    "exhaustive_lambda": lambda d: exhaustive_lambda(3, d, 0),
    "bernoulli_set": lambda d: bernoulli_set(3, d, 0),
    "spanning_fraction": lambda d: spanning_fraction(GF2Matrix.identity(3), d),
}


@pytest.mark.parametrize("d", [-1, 4])
@pytest.mark.parametrize("name", sorted(DIMENSION_ENTRY_POINTS))
def test_subcube_dimension_outside_zero_to_n_is_refused(name, d):
    with pytest.raises(DomainError, match=f"subcube dimension {d} outside"):
        DIMENSION_ENTRY_POINTS[name](d)


@pytest.mark.parametrize("d", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(DIMENSION_ENTRY_POINTS))
def test_non_integer_subcube_dimension_is_refused(name, d):
    # 1.0 and True compare equal to 1; refused here, they never reach a cache key
    with pytest.raises(DomainError, match="must be an integer"):
        DIMENSION_ENTRY_POINTS[name](d)


# every entry point above that takes the ambient dimension n itself, at d = 0
AMBIENT_ENTRY_POINTS = {
    "check_subcube_dimension": lambda n: check_subcube_dimension(n, 0),
    "subcube_count": lambda n: subcube_count(n, 0),
    "enumerate_subcubes": lambda n: list(enumerate_subcubes(n, 0)),
    "layered_distribution": lambda n: layered_distribution(
        n, 0, LayeredSpec(2, frozenset({0}))
    ),
    "SubcubeDistribution.from_json": lambda n: SubcubeDistribution.from_json(
        {"n": n, "d": 0, "total": "1", "counts": {}}
    ),
    "exhaustive_lambda": lambda n: exhaustive_lambda(n, 0, 0),
    "bernoulli_set": lambda n: bernoulli_set(n, 0, 0),
}


@pytest.mark.parametrize("n", [-1, 3.0, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("name", sorted(AMBIENT_ENTRY_POINTS))
def test_bad_ambient_dimension_is_refused(name, n):
    with pytest.raises(DomainError, match="must be an integer"):
        AMBIENT_ENTRY_POINTS[name](n)
