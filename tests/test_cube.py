"""Vertex sets, subcubes, and the subcube enumerator."""

import dataclasses
import json
import math
import random
import time

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
from cubestats.cube import check_mask_dimension, check_subcube_dimension
from conftest import render_json


def rendered(A: VertexSet) -> dict:
    """A's JSON form, read back from the text a report writes."""
    return json.loads(render_json(A.to_json()))


def test_binomial_matches_math_comb():
    for n in range(12):
        for k in range(-1, n + 2):
            assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


@pytest.mark.parametrize("n", [*range(13), 17, 18])
def test_from_weights_keeps_the_vertices_whose_weight_bit_is_set(n):
    # 17 and 18 take the doubling past 2^16 vertices; bits of layers above n are ignored
    rng = random.Random(n)
    masks = [0, (2 << n) - 1, rng.getrandbits(n + 1), rng.getrandbits(n + 1), rng.getrandbits(n + 9)]
    for layers in masks:
        flags = [(layers >> x.bit_count()) & 1 for x in range(1 << n)]
        assert VertexSet.from_weights(n, layers) == VertexSet.from_flags(n, np.array(flags)), layers


def test_from_weights_checks_its_arguments_first():
    with pytest.raises(CapabilityError):  # raised before any pattern is built
        VertexSet.from_weights(MASK_CAP + 1, 1)
    for layers in (-1, 1.0, True):
        with pytest.raises(DomainError):
            VertexSet.from_weights(3, layers)


class TestWeightRecord:
    """from_weights records its weight classes; nothing else can."""

    @pytest.mark.parametrize("n", range(9))
    def test_a_recorded_set_equals_hashes_and_prints_as_its_copy(self, n):
        rng = random.Random(n)
        for layers in (0, (2 << n) - 1, rng.getrandbits(n + 1), rng.getrandbits(n + 9)):
            A = VertexSet.from_weights(n, layers)
            copy = VertexSet(A.n, A.bits)
            assert A._layers == layers & ((2 << n) - 1) and copy._layers is None
            assert A == copy and hash(A) == hash(copy) and repr(A) == repr(copy)
            assert len({A, copy}) == 1

    def test_no_other_way_to_make_a_set_carries_a_record(self):
        A = VertexSet.from_weights(6, 0b1010101)
        others = [
            A.complement(),
            A.complement().complement(),
            dataclasses.replace(A),
            dataclasses.replace(A, bits=A.bits),
            VertexSet.from_flags(6, A.flags()),
            VertexSet.from_vertices(6, A.vertices()),
            VertexSet.from_json(rendered(A)),
        ]
        assert [B._layers for B in others] == [None] * len(others)
        assert others[1] == others[2] == A

    def test_the_record_is_no_constructor_argument_and_cannot_be_set(self):
        A = VertexSet.from_weights(3, 0b101)
        with pytest.raises(TypeError):
            VertexSet(3, A.bits, 0b101)
        with pytest.raises(TypeError):
            VertexSet(3, A.bits, _layers=0b101)
        with pytest.raises(ValueError):  # replace refuses a field that init does not take
            dataclasses.replace(A, _layers=0b10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            A._layers = 0b10


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
        assert VertexSet.from_json(rendered(A)) == A
        assert rendered(A) == {"n": 4, "vertices": [1, 2, 7, 15]}
        assert A.members().dtype == np.uint32
        assert A.members().tolist() == A.vertices() == [1, 2, 7, 15]

    def test_json_rejects_unsorted(self):
        with pytest.raises(DomainError):
            VertexSet.from_json({"n": 3, "vertices": [2, 1]})

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            VertexSet.from_vertices(2, [4])
        with pytest.raises(DomainError, match="bits beyond"):  # bit 4 is no vertex of Q_2
            VertexSet(2, 1 << 4)
        with pytest.raises(CapabilityError):
            VertexSet(MASK_CAP + 1, 0)
        with pytest.raises(CapabilityError):  # raised before allocating 2^60 flags
            VertexSet.from_vertices(60, [])

    def test_mask_cap_admits_24_and_refuses_25(self):
        # 2^24 bits = 2 MiB per set; the check itself allocates nothing
        assert check_mask_dimension(np.int64(24)) == 24
        with pytest.raises(CapabilityError, match="^n=25 exceeds"):
            check_mask_dimension(25)

    @given(st.integers(0, 8), st.data())
    def test_conversions_match_shift_loop(self, n, data):
        A = VertexSet(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
        reference = [v for v in range(1 << n) if (A.bits >> v) & 1]
        assert A.vertices() == reference
        assert A.flags().tolist() == [int(v in A) for v in range(1 << n)]
        assert VertexSet.from_vertices(n, A.vertices()) == A
        assert VertexSet.from_flags(n, A.flags()) == A
        assert VertexSet.from_json(rendered(A)) == A
        assert A.members().tolist() == reference

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

    def test_readers_name_the_first_bad_vertex(self):
        with pytest.raises(DomainError, match=r"^vertex 9 is not an integer vertex of Q_3$"):
            VertexSet.from_vertices(3, (v for v in [1, 9, -1]))
        with pytest.raises(DomainError, match=r"^vertex 1.5 is not"):
            VertexSet.from_vertices(3, [np.int64(2), 1.5])
        # plain ints take one numpy pass, and a bad one still names the first
        for vertices, first in (
            ([1, True, 9], "True"),
            ([0, 8], "8"),
            ([2, 9, 1 << 70], "9"),
            ([2, 1 << 63, -1], str(1 << 63)),
            ([3, -(1 << 63) - 1], str(-(1 << 63) - 1)),
        ):
            with pytest.raises(DomainError, match=rf"^vertex {first} is not an integer vertex"):
                VertexSet.from_vertices(3, vertices)
        with pytest.raises(DomainError, match=r"^vertex -1 is not"):
            VertexSet.from_json({"n": 3, "vertices": [0, -1, 1 << 70]})
        for vertices in ([1, 1], [0, 2, 1]):
            with pytest.raises(DomainError, match="strictly ascending"):
                VertexSet.from_json({"n": 3, "vertices": vertices})
        assert VertexSet.from_json({"n": 3, "vertices": []}) == VertexSet.empty(3)
        assert VertexSet.from_vertices(3, (v for v in [6, 1, 6])) == VertexSet(3, 0b1000010)

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

    def test_subcube_cap_admits_its_edge_and_no_more(self):
        top = 10**5  # C(n, n/2) 2^(n/2) takes 0.2 s there
        assert subcube_count(top, 1) == top << (top - 1)
        assert next(enumerate_subcubes(top, 1)) == Subcube(top, 1, 0)
        # 2^70 once reached math.comb and a shift count: OverflowError, or a
        # generator that checked nothing until its first item
        for n, d in ((top + 1, 1), (2**70, 1), (2**70, 2**69)):
            start = time.process_time()
            for call in (subcube_count, enumerate_subcubes):
                with pytest.raises(CapabilityError, match="subcube cap"):
                    call(n, d)  # at the call: no item is asked for
            assert time.process_time() - start < 0.1, (n, d)

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
