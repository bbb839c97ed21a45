"""Intersection-graph cliques and Hadamard certificates."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

import cubestats.johnson
from cubestats import (
    CapabilityError,
    CertificateError,
    CliqueCertificate,
    DomainError,
    HadamardMatrix,
    JohnsonGraph,
    binomial,
    hadamard_matrix,
    hadamard_to_clique,
    johnson_adjacent,
    max_clique,
    omega,
    verify_clique,
)

# 40 and 96 are neither Sylvester nor Paley orders, so they go through hadamard_tensor
HADAMARD_ORDERS = (4, 8, 12, 16, 20, 24, 32, 40, 96)


class TestAdjacency:
    def test_adjacent_iff_overlap_is_s(self):
        assert johnson_adjacent(0b0011, 0b0110, 1)
        assert not johnson_adjacent(0b0011, 0b0011, 1)  # no self loops
        assert not johnson_adjacent(0b0011, 0b1100, 1)

    def test_graph_vertex_counts(self):
        assert len(JohnsonGraph(1).vertices) == binomial(4, 2)
        assert len(JohnsonGraph(2).vertices) == binomial(8, 4)

    def test_adjacency_bitsets_symmetric(self):
        g = JohnsonGraph(1)
        adj = g.adjacency_bitsets()
        for i in range(len(adj)):
            assert not (adj[i] >> i) & 1
            for j in range(len(adj)):
                assert ((adj[i] >> j) & 1) == ((adj[j] >> i) & 1)
                assert ((adj[i] >> j) & 1) == johnson_adjacent(
                    g.vertices[i], g.vertices[j], g.s
                )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_adjacency_bitsets_match_pairwise_reference(self, s):
        # s = 3 has 924 vertices, more than one block of rows
        g = JohnsonGraph(s)
        want = [
            sum(1 << j for j, v in enumerate(g.vertices) if johnson_adjacent(u, v, s))
            for u in g.vertices
        ]
        assert g.adjacency_bitsets() == want

    def test_capability_caps(self):
        # refused before listing the 184,756 vertices of J(20,10,5)
        with pytest.raises(CapabilityError):
            JohnsonGraph(5)

    def test_domain(self):
        with pytest.raises(DomainError):
            JohnsonGraph(0)


class TestCertificates:
    def test_verify_accepts_honest_clique(self):
        cert = CliqueCertificate(1, (0b0011, 0b0101, 0b1001))
        assert verify_clique(cert)

    def test_verify_rejects_bad_popcount(self):
        assert not verify_clique(CliqueCertificate(1, (0b0111,)))

    def test_verify_rejects_duplicates(self):
        assert not verify_clique(CliqueCertificate(1, (0b0011, 0b0011)))

    def test_verify_rejects_wrong_overlap(self):
        assert not verify_clique(CliqueCertificate(1, (0b0011, 0b1100)))

    def test_json_roundtrip(self):
        cert = CliqueCertificate(1, (0b0011, 0b0101))
        assert CliqueCertificate.from_json(cert.to_json()) == cert

    @pytest.mark.parametrize(
        "obj",
        [
            {"s": 1, "members": [[0, 1], [0, 2], [0, 0, 0, 0, 1]]},  # sums to {1, 2}
            {"s": 1, "members": [[0, 1], [1, 1]]},
            {"s": 1, "members": [[0, 1, 2]]},
            {"s": 10**20, "members": [[10**19]]},  # a 10^19-bit mask
            {"s": 1, "members": [[0, 1]], "size": 1},
            {"s": 1, "members": [[0, [1]]]},
            {"s": 1, "members": [5]},
        ],
    )
    def test_from_json_rejects_malformed_members(self, obj):
        with pytest.raises(DomainError):
            CliqueCertificate.from_json(obj)


class TestHadamard:
    @pytest.mark.parametrize("order", HADAMARD_ORDERS)
    def test_constructible_orders_give_maximum_cliques(self, order):
        H = hadamard_matrix(order)
        assert H is not None and H.order == order
        cert = hadamard_to_clique(H)
        assert cert.size() == order - 1
        assert verify_clique(cert)

    def test_side_by_side_blocks_give_a_clique(self):
        cert = hadamard_to_clique(hadamard_matrix(4), hadamard_matrix(8))
        assert cert.s == 3 and cert.size() == 3
        assert verify_clique(cert)

    def test_three_blocks_keep_the_least_order_of_rows(self):
        H = hadamard_matrix(12)
        cert = hadamard_to_clique(H, H, H)
        assert cert.s == 9 and cert.size() == 11
        assert verify_clique(cert)

    @pytest.mark.parametrize("orders", [(4, 2), (2,), (1,), (8, 1)])
    def test_block_orders_off_a_multiple_of_four_are_refused(self, orders):
        with pytest.raises(DomainError):
            hadamard_to_clique(*map(hadamard_matrix, orders))

    def test_order_28_not_constructible_here(self):
        assert hadamard_matrix(28) is None

    def test_rows_pairwise_orthogonal(self):
        H = hadamard_matrix(12)
        for a, b in itertools.combinations(H.entries, 2):
            assert sum(x * y for x, y in zip(a, b)) == 0

    def test_order_12_rows_pinned(self):
        assert hadamard_matrix(12).to_json()["rows"] == [
            "++++++++++++", "-+-+---+++-+", "-++-+---+++-", "--++-+---+++",
            "-+-++-+---++", "-++-++-+---+", "-+++-++-+---", "--+++-++-+--",
            "---+++-++-+-", "----+++-++-+", "-+---+++-++-", "--+---+++-++",
        ]

    def test_every_grid_up_to_order_400_pinned(self):
        rows = [
            None if (H := hadamard_matrix(order)) is None else H.to_json()["rows"]
            for order in range(401)
        ]
        assert sum(r is not None for r in rows) == 63
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "50ce66141ab774a56b7c57a1a4695f5479bd8be313d4f061026457b6e0fd1b24"
        )

    def test_entries_are_a_read_only_int8_copy(self):
        H = hadamard_matrix(12)
        assert H.entries.dtype == np.int8 and H.entries.shape == (12, 12)
        with pytest.raises(ValueError):
            H.entries[0, 0] = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            H.entries = H.entries.copy()
        grid = H.entries.astype(np.int64)
        K = HadamardMatrix(12, grid)
        grid[0, 0] = -1  # the caller's array stays its own
        assert grid.flags.writeable and K.entries[0, 0] == 1

    @pytest.mark.parametrize(
        "order, entries",
        [
            (2, ((1, 1), (1, -1), (1, 1))),  # three rows
            (2, ((1, 1), (1,))),  # short row
            (2, ((1, 1), (0, -1))),
            (2, ((1, 2), (1, -1))),
            (1, ((1.5,),)),
            (1, (("+",),)),
            (1, (((1,),),)),  # an entry that is itself a sequence
            (2, ((1, (1, 1)), (1, -1))),  # ... of another length
        ],
    )
    def test_rejects_malformed_grids(self, order, entries):
        with pytest.raises(DomainError):
            HadamardMatrix(order, entries)

    @pytest.mark.parametrize("cell", [(0, 0), (5, 7), (11, 11)])
    def test_rejects_one_flipped_entry(self, cell):
        # the diagonal of H Hᵀ stays 12, so only the off-diagonal check sees it
        rows = [list(r) for r in hadamard_matrix(12).entries]
        i, j = cell
        rows[i][j] = -rows[i][j]
        with pytest.raises(DomainError, match="orthogonal"):
            HadamardMatrix(12, tuple(map(tuple, rows)))

    @pytest.mark.parametrize("order", [4.0, True, "4", None])
    def test_from_json_requires_integer_order(self, order):
        # the constructor owns the check; no JSON reader for Hadamard matrices exists
        with pytest.raises(DomainError):
            HadamardMatrix(order, hadamard_matrix(4).entries)

    def test_non_multiple_of_four_unreachable(self):
        assert hadamard_matrix(6) is None
        assert hadamard_matrix(0) is None
        assert hadamard_matrix(2) is not None


class TestMaxClique:
    def test_triangle_in_smallest_graph(self):
        cert, optimal = max_clique(JohnsonGraph(1))
        assert optimal and cert.size() == 3
        assert verify_clique(cert)

    def test_seven_clique_at_s2(self):
        cert, optimal = max_clique(JohnsonGraph(2))
        assert optimal and cert.size() == 7

    @pytest.mark.parametrize(
        "s, members",
        [
            (1, (6, 10, 12)),
            (2, (142, 102, 90, 178, 60, 212, 232)),
            (3, "6c359925eda25589346a7c1d0bd1390945139046f154a4d9e796631ba9cd44ce"),
            (4, "6e7024aeed9a5714f252bd7356b6eb22732cc5a9fd44bded01d78deb81220f71"),
        ],
    )
    def test_descent_reaches_the_cap_with_pinned_members(self, s, members):
        cert, optimal = max_clique(JohnsonGraph(s))
        assert optimal and cert.size() == 4 * s - 1
        if isinstance(members, tuple):
            assert cert.members == members
        else:
            listed = json.dumps(cert.to_json()["members"]).encode()
            assert hashlib.sha256(listed).hexdigest() == members


class TestOmega:
    def test_small_values_exact(self):
        for s, want in [(1, 3), (2, 7), (3, 11)]:
            w = omega(s)
            assert w.exact and w.lower == want
            assert verify_clique(w.certificate)

    def test_search_policy_agrees_with_hadamard(self):
        for s in (1, 2, 3):
            assert omega(s).source == "hadamard"
            assert omega(s, policy="search").lower == omega(s).lower

    def test_search_proves_optimality(self):
        w = omega(3, policy="search")
        assert w.exact and w.source == "search"

    def test_search_below_the_cap_is_not_exact(self, monkeypatch):
        # the upper bound is the cap 4s-1, not the size of the clique found
        short = CliqueCertificate(2, (15, 51))
        monkeypatch.setattr(cubestats.johnson, "max_clique", lambda g: (short, False))
        omega.cache_clear()
        try:
            w = omega(2, policy="search")
        finally:
            omega.cache_clear()
        assert (w.lower, w.upper, w.exact) == (2, 7, False)

    def test_search_at_s4_is_exact(self):
        w = omega(4, policy="search")
        assert w.exact and w.lower == 15 and w.source == "search"
        assert w.certificate.size() == 15 and verify_clique(w.certificate)

    def test_unresolved_order_gives_enclosure(self):
        # no order 28 here; blocks of orders 12 and 16 give 11 members
        w = omega(7)
        assert not w.exact and w.source == "hadamard-concat"
        assert w.lower == 11 and w.upper == 27
        assert verify_clique(w.certificate)

    def test_every_s_up_to_the_cap_is_hadamard_certified(self):
        # at least the 3 members a capped lex-greedy scan once found at s = 7
        for s in range(1, cubestats.johnson.OMEGA_CAP + 1):
            w = omega(s)
            exact = hadamard_matrix(4 * s) is not None
            assert w.source == ("hadamard" if exact else "hadamard-concat"), s
            assert w.exact == exact and w.upper == 4 * s - 1
            assert w.lower == w.certificate.size() >= 3 and w.certificate.s == s
            assert verify_clique(w.certificate), s

    def test_search_above_the_dense_cap_takes_the_hadamard_route(self):
        assert omega(5, policy="search") == omega(5)
        assert omega(7, policy="search") == omega(7)

    def test_json_fields(self):
        obj = omega(2).to_json()
        assert obj["lower"] == obj["upper"] == 7
        assert obj["exact"] is True
        assert len(obj["certificate"]["members"]) == 7

    def test_policy_validation(self):
        for policy in ("guess", "hadamard"):
            with pytest.raises(DomainError):
                omega(2, policy=policy)
        with pytest.raises(DomainError):
            omega(0)
