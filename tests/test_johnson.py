"""Intersection-graph cliques and Hadamard certificates."""

import dataclasses
import hashlib
import itertools
import json
import time

import numpy as np
import pytest

import cubestats.hadamard
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
    hadamard_paley,
    hadamard_sylvester,
    hadamard_to_clique,
    johnson_adjacent,
    max_clique,
    omega,
    verify_clique,
)
from cubestats.johnson import _int_words, _row_ints, pair_counts

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

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_vertices_are_the_subsets_in_lexicographic_order(self, s):
        want = tuple(
            sum(1 << e for e in combo)
            for combo in itertools.combinations(range(4 * s), 2 * s)
        )
        got = JohnsonGraph(s).vertices
        assert got == want
        assert {type(v) for v in got} == {int}

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_complement_of_each_vertex_sits_at_the_mirrored_index(self, s):
        g = JohnsonGraph(s)
        V, ground = len(g.vertices), (1 << 4 * s) - 1
        assert all(g.vertices[V - 1 - i] == v ^ ground for i, v in enumerate(g.vertices))
        # the lower half is exactly the subsets that contain element 0
        assert [v & 1 for v in g.vertices] == [1] * (V // 2) + [0] * (V // 2)

    def test_adjacency_bitsets_symmetric(self):
        # V/2 rows of V/2 bits; with vertex V-1-i the twin of vertex i, the
        # rows of the twin-pair representatives give every pair of J(4,2,1)
        g = JohnsonGraph(1)
        adj, V = g.adjacency_bitsets(), len(g.vertices)
        assert len(adj) == V // 2 and all(row >> (V // 2) == 0 for row in adj)
        rep = [min(i, V - 1 - i) for i in range(V)]
        for i in range(V):
            for j in range(V):
                bit = (adj[rep[i]] >> rep[j]) & 1
                assert bit == (adj[rep[j]] >> rep[i]) & 1
                assert bit == johnson_adjacent(g.vertices[i], g.vertices[j], g.s)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_adjacency_bitsets_match_pairwise_reference(self, s):
        # s = 3 has 462 rows, more than one block of rows
        g = JohnsonGraph(s)
        V, half = len(g.vertices), len(g.vertices) // 2
        want = [
            sum(1 << j for j, v in enumerate(g.vertices) if johnson_adjacent(u, v, s))
            for u in g.vertices
        ]
        adj = g.adjacency_bitsets()
        assert len(adj) == half
        # twins share rows and columns: bit V-1-k of a full row repeats bit k
        full = [row | int(f"{row:0{half}b}"[::-1], 2) << half for row in adj]
        assert full + full[::-1] == want

    def test_capability_caps(self):
        # refused before listing the 184,756 vertices of J(20,10,5)
        with pytest.raises(CapabilityError):
            JohnsonGraph(5)

    def test_domain(self):
        with pytest.raises(DomainError):
            JohnsonGraph(0)


# the narrowest unsigned dtype holding 64 per word of a row of that many bits
NARROW_COUNTS = {
    1: np.uint8, 63: np.uint8, 64: np.uint8, 65: np.uint8,
    255: np.uint16, 256: np.uint16, 257: np.uint16, 400: np.uint16,
}


class TestPairCounts:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 255, 256, 257, 400])
    def test_counts_match_pairwise_reference(self, monkeypatch, width, block):
        if block is not None:
            monkeypatch.setattr(cubestats.johnson, "_COUNT_BLOCK_ELEMS", block)
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, size=(23, width)).astype(bool)
        bits[3] = bits[5]  # equal rows are no neighbours
        ints = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in bits]
        blocks = list(pair_counts(_int_words(_row_ints(bits))))
        assert [lo for lo, _ in blocks] == list(
            range(0, 23, max(1, cubestats.johnson._COUNT_BLOCK_ELEMS // 23))
        )
        counts = np.vstack([c for _, c in blocks])
        assert counts.dtype == NARROW_COUNTS[width] and counts.shape == (23, 23)
        for i, u in enumerate(ints):
            for j, v in enumerate(ints):
                assert counts[i, j] == (u & v).bit_count()
                for s in {counts[i, j], counts[i, j] + 1}:
                    assert johnson_adjacent(u, v, s) == (i != j and u != v and counts[i, j] == s)

    @pytest.mark.parametrize(
        "words, dtype", [(4, np.uint16), (512, np.uint16), (1024, np.uint32)]
    )
    def test_all_ones_counts_past_each_narrow_range_stay_exact(self, words, dtype):
        # 256, 32,768 and 65,536 pass the top of uint8, int16 and uint16
        packed = _int_words(_row_ints(np.ones((3, 64 * words), dtype=bool)))
        counts = np.vstack([c for _, c in pair_counts(packed)])
        assert counts.dtype == dtype
        assert (counts.astype(np.int64) == 64 * words).all()

    def test_blocks_stay_within_the_element_budget(self):
        words = _int_words(_row_ints(np.ones((1000, 70), dtype=bool)))
        sizes = [c.size for _, c in pair_counts(words)]
        assert sum(sizes) == 1000 * 1000
        assert max(sizes) <= cubestats.johnson._COUNT_BLOCK_ELEMS

    def test_no_rows_give_no_blocks(self):
        assert list(pair_counts(_int_words(_row_ints(np.zeros((0, 5), dtype=bool))))) == []


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

    @pytest.mark.parametrize(
        "s, members, want",
        [
            (1, (), True),
            (3, (), True),
            (0, (), True),
            (0, (0,), True),
            (0, (0, 0), False),
            (0, (1,), False),
            (1, (-4,), False),
            (1, (-3,), False),
            (1, (0b0011, -0b0110), False),
            (1, (0b10001,), False),  # two elements, one of them at 4s
            (1, (0b0011, 0b10001), False),
            (2, (0b10000111,), True),
            (1, (0b0011, 0b0011), False),
            (1, (0b0011, 0b0101, 0b0011), False),
            (10**20, (), True),
            (10**20, (0b0011,), False),
            (-1, (), False),  # no s below 0 has 2s-subsets
            (-1, (0b0011,), False),
        ],
    )
    def test_verify_edge_cases(self, s, members, want):
        assert verify_clique(CliqueCertificate(s, members)) is want

    def test_one_changed_member_is_refused(self):
        cert = hadamard_to_clique(hadamard_matrix(32))
        for i, m in enumerate(cert.members):
            # move the lowest element to the lowest one the member lacks
            changed = m ^ (m & -m) ^ (~m & (m + 1))
            members = cert.members[:i] + (changed,) + cert.members[i + 1 :]
            assert not verify_clique(CliqueCertificate(cert.s, members)), i

    def test_json_lists_each_members_bits_below_4s(self):
        # reference: each member's set bits below 4s, one bit at a time, also
        # for members that are negative or reach past 4s
        for cert in (
            CliqueCertificate(1, (-4, 0b110001, 0b0011)),
            CliqueCertificate(0, (0, 5)),
            CliqueCertificate(2, ()),
            omega(97).certificate,
        ):
            want = [[e for e in range(4 * cert.s) if (m >> e) & 1] for m in cert.members]
            assert cert.to_json() == {"s": cert.s, "members": want}

    def test_json_of_every_omega_certificate_pinned(self):
        listed = json.dumps([omega(s).to_json() for s in range(1, 101)]).encode()
        assert hashlib.sha256(listed).hexdigest() == (
            "3c59c3c910995d992b4f06bd00b6f0fa8df21ebb1f322172e4c5242ff8ed78d1"
        )

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

    def test_order_512_validates_and_gives_a_clique(self):
        # a row holds 256 entries -1 and a member 256 elements: past uint8
        H = hadamard_matrix(512)
        assert H is not None and H.order == 512
        cert = hadamard_to_clique(H)
        assert cert.size() == 511 and verify_clique(cert)

    def test_order_512_clique_verifies_on_its_own(self):
        # Sylvester rows (-1)^popcount(i & j) come normalized; their -1
        # supports are the members, built here without HadamardMatrix
        idx = np.arange(512)
        minus = np.bitwise_count(idx[:, None] & idx) % 2 == 1
        members = tuple(
            sum(1 << int(j) for j in np.flatnonzero(row)) for row in minus[1:]
        )
        assert verify_clique(CliqueCertificate(128, members))
        assert not verify_clique(CliqueCertificate(128, members[:-1] + (members[0] ^ 3,)))

    def test_packed_members_equal_the_int_route(self):
        # every order built up to 400, and the block pairs omega places side by side
        cases = [(H,) for o in range(4, 401, 4) if (H := hadamard_matrix(o)) is not None]
        for s in range(1, cubestats.johnson.OMEGA_CAP + 1):
            if hadamard_matrix(4 * s) is None:
                a = next(a for a in range(s // 2, 0, -1) if hadamard_matrix(4 * a)
                         and hadamard_matrix(4 * (s - a)))
                cases.append((hadamard_matrix(4 * a), hadamard_matrix(4 * (s - a))))
        assert len(cases) == 61 + 39  # one per s of omega: 61 orders 4s, 39 pairs
        for blocks in cases:
            assert hadamard_to_clique(*blocks) == int_route(*blocks), [b.order for b in blocks]

    @pytest.mark.parametrize("orders", [(12,), (96,), (400,), (4, 8), (8, 12), (12, 16)])
    @pytest.mark.parametrize("flips", [1, 2])
    def test_the_clique_check_refuses_a_grid_swapped_in_after_validation(self, orders, flips):
        # the grid is validated, then replaced: only the check on the packed
        # rows stands between it and a certificate.  One flip changes the
        # size of a member; two opposite flips keep it and change overlaps
        blocks = [HadamardMatrix(o, hadamard_matrix(o).entries) for o in orders]
        H, r = blocks[-1], min(orders) // 2
        grid = H.entries.copy()
        row = grid[r] * grid[r, 0] * grid[0]  # as normalised in the clique
        cols = [int(np.flatnonzero(row == 1)[1]), int(np.flatnonzero(row == -1)[0])][:flips]
        grid[r, cols] *= -1
        object.__setattr__(H, "entries", grid)
        with pytest.raises(CertificateError):
            hadamard_to_clique(*blocks)

    @pytest.mark.parametrize("s", [1, 10**20])
    @pytest.mark.parametrize("member", [1 << 10**6, 2**70 + 3], ids=["2^(10^6)", "2^70+3"])
    def test_huge_members_are_refused_before_any_packing(self, monkeypatch, s, member):
        packed = []
        monkeypatch.setattr(cubestats.johnson, "_int_words", packed.append)
        start = time.process_time()
        assert not verify_clique(CliqueCertificate(s, (0b0011, member)))
        assert time.process_time() - start < 0.1
        assert not packed

    @pytest.mark.parametrize("order", HADAMARD_ORDERS)
    def test_every_order_refuses_one_flipped_entry(self, order):
        grid = hadamard_matrix(order).entries.copy()
        grid[order // 3, order // 2] *= -1
        with pytest.raises(DomainError, match="orthogonal"):
            HadamardMatrix(order, grid)

    def test_order_cap_validates_and_refuses_one_flipped_entry(self):
        # the largest grid built: its Gram matrix has entries up to 2048
        H = hadamard_sylvester(cubestats.hadamard.ORDER_CAP.bit_length() - 1)
        assert H.order == cubestats.hadamard.ORDER_CAP
        grid = H.entries.copy()
        grid[1000, 2000] *= -1
        with pytest.raises(DomainError, match="orthogonal"):
            HadamardMatrix(H.order, grid)

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_odd_orders_are_refused(self, order):
        # -1 on the diagonal: at order 5 every two rows differ in 2 = 5 // 2 places
        with pytest.raises(DomainError, match="orthogonal"):
            HadamardMatrix(order, 1 - 2 * np.eye(order, dtype=np.int8))

    def test_order_one_and_two_validate(self):
        assert HadamardMatrix(1, [[-1]]).order == 1
        assert HadamardMatrix(2, [[1, -1], [1, 1]]).order == 2

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


def int_route(*blocks: HadamardMatrix) -> CliqueCertificate:
    """The clique of the blocks' normalised rows, one member int per -1 support, verified."""
    k = min(b.order for b in blocks)
    grid = np.hstack([b.entries[:k] for b in blocks]).astype(np.int64)
    grid = grid * grid[:, :1] * grid[:1] * grid[0, 0]
    members = tuple(int("".join("1" if x < 0 else "0" for x in row[::-1]), 2) for row in grid[1:])
    cert = CliqueCertificate(grid.shape[1] // 4, members)
    assert verify_clique(cert)
    return cert


def last_colored(cand: int, adj: list[int]) -> int:
    """The vertex a greedy colouring of cand, lowest index first, colours last."""
    rest = cand
    while rest:
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~adj[v]
            avail ^= low
            rest ^= low
    return v


class TestMaxClique:
    @pytest.mark.parametrize("s", [2, 3])
    def test_first_of_last_class_names_the_twin_coloured_last(self, s):
        # the full-graph colouring of a twin-closed set S + twins(S) colours
        # last the twin of the first pick of the last class of S alone
        g = JohnsonGraph(s)
        V, half = len(g.vertices), len(g.vertices) // 2
        v = np.array(g.vertices)
        full = cubestats.johnson._row_ints(np.bitwise_count(v[:, None] & v[None, :]) == s)
        adj = g.adjacency_bitsets()
        apart = [((1 << half) - 1) ^ row for row in adj]  # the rows' complements in the half
        rng = np.random.default_rng(s)
        for density in (0.02, 0.1, 0.3, 0.6, 1.0):
            for _ in range(8):
                lower = np.flatnonzero(rng.random(half) < density).tolist() or [0]
                S = sum(1 << i for i in lower)
                closed = S | sum(1 << (V - 1 - i) for i in lower)
                first = cubestats.johnson._first_of_last_class(S, apart)
                assert last_colored(closed, full) == V - 1 - first, (density, lower)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_descent_colours_only_the_lower_half(self, monkeypatch, s):
        widths = []
        colour = cubestats.johnson._first_of_last_class

        def spy(cand, adj):
            widths.append(cand.bit_length())
            return colour(cand, adj)

        monkeypatch.setattr(cubestats.johnson, "_first_of_last_class", spy)
        g = JohnsonGraph(s)
        cert, _ = max_clique(g)
        assert len(widths) == cert.size()
        assert widths[0] == max(widths) == len(g.vertices) // 2

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
        cubestats.johnson._omega.cache_clear()
        try:
            w = omega(2, policy="search")
        finally:
            cubestats.johnson._omega.cache_clear()
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


class TestIntegerArguments:
    """Integer arguments are read before any cache lookup or allocation."""

    @pytest.mark.parametrize(
        "call, arg",
        [
            (hadamard_matrix, 12.0),
            (hadamard_matrix, True),
            (hadamard_sylvester, 2.0),
            (omega, 2.0),
            (JohnsonGraph, 2.0),
            (JohnsonGraph, "2"),
        ],
    )
    def test_a_non_integer_is_a_domain_error(self, call, arg):
        call(int(arg))  # a cached equal integer must not answer for it
        with pytest.raises(DomainError, match="must be an integer"):
            call(arg)

    @pytest.mark.parametrize(
        "call, arg",
        [
            (hadamard_sylvester, 2**70),
            (hadamard_sylvester, cubestats.hadamard.ORDER_CAP.bit_length()),
            (hadamard_matrix, 2**70),
            (hadamard_matrix, cubestats.hadamard.ORDER_CAP + 4),
            (hadamard_paley, 2063),  # the first prime q = 3 mod 4 past the cap
            (hadamard_paley, 2**61 - 1),
            (omega, 2**70),
            (JohnsonGraph, 2**70),
        ],
    )
    def test_a_size_past_its_cap_is_a_capability_error(self, call, arg):
        with pytest.raises(CapabilityError):
            call(arg)

    @pytest.mark.parametrize("q", [-3, 0, 1, 4, 2, 9, 13])
    def test_paley_refuses_a_q_that_is_no_prime_3_mod_4(self, q):
        # q < 2 and even q are turned away before any trial division
        with pytest.raises(DomainError, match="prime congruent to 3 mod 4"):
            hadamard_paley(q)

    def test_paley_checks_its_cap_before_any_work(self, monkeypatch):
        # 2^61 - 1 would take about 7·10^8 trial divisions; 2039 (order
        # 2040) is the largest Paley prime under the cap, and goes on to
        # the primality test, which is patched here so nothing is built
        tested = []
        monkeypatch.setattr(cubestats.hadamard, "_is_prime", lambda q: tested.append(q) or False)
        for q in (2063, 2**61 - 1):
            start = time.perf_counter()
            with pytest.raises(CapabilityError):
                hadamard_paley(q)
            assert time.perf_counter() - start < 0.1
        assert tested == []
        assert 2039 + 1 <= cubestats.hadamard.ORDER_CAP < 2063 + 1
        with pytest.raises(DomainError):
            hadamard_paley(2039)
        assert tested == [2039]

    def test_tensor_factors_go_through_the_checking_front(self, monkeypatch):
        # perfbench counts hadamard_matrix calls, factors included, by
        # wrapping the public name; 40 is reached only as 2 x 20
        seen, real = [], cubestats.hadamard.hadamard_matrix
        monkeypatch.setattr(
            cubestats.hadamard, "hadamard_matrix", lambda order: seen.append(order) or real(order)
        )
        cubestats.hadamard._hadamard_matrix.cache_clear()
        try:
            assert cubestats.hadamard.hadamard_matrix(40).order == 40
        finally:
            cubestats.hadamard._hadamard_matrix.cache_clear()
        assert seen == [40, 2, 20]

    def test_numpy_integers_read_as_ints(self):
        assert hadamard_matrix(np.int64(12)) is hadamard_matrix(12)
        assert hadamard_sylvester(np.uint8(3)).order == 8
        assert omega(np.int32(2)) is omega(2)
        assert type(JohnsonGraph(np.int64(1)).s) is int
