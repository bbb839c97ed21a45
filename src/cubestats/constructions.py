"""Lower-bound constructions as concrete vertex sets.

Each builder returns the exact set it promises; ``build_construction``
dispatches the JSON form and attaches the claim the construction
certifies.  The closed forms these claims bound, and ``best_bounds``,
live in ``bounds``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .cube import Subcube, VertexSet, binomial, check_mask_dimension, check_subcube_dimension
from .errors import CapabilityError, CertificateError, DomainError, check_int, fields
from .gf2 import GF2Matrix, gf2_rank
from .johnson import CliqueCertificate, verify_clique
from .stats import LayeredSpec, layered_distribution
from .turan import turan_density

# Most column subsets spanning_fraction ranks; each takes 2-26 µs in Python
# for 2 to 16 rows (2-core Xeon, Python 3.11), nearly all of it the rank.
_SPANNING_SUBSET_CAP = 1 << 16

# bernoulli_set unpacks at most about this many stream bits at a time.
_BLOCK_BITS = 1 << 20

# Guards the reset and read of the one Philox generator of bernoulli_set.
_PHILOX_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# syndrome colorings
# ---------------------------------------------------------------------------


def syndrome_set(B: GF2Matrix, colors: set[int]) -> VertexSet:
    """A = {x : Bx in colors}, syndromes over GF(2)."""
    r, n = B.rows, B.cols
    if r > 64:
        raise CapabilityError(f"syndromes of r={r} rows exceed 64 bits")
    for c in colors:
        check_int("color", c, 0, (1 << r) - 1)
    check_mask_dimension(n)
    dtype = np.min_scalar_type((1 << r) - 1)
    synd = np.zeros(1 << n, dtype=dtype)
    for j in range(n):  # x + 2^j has the syndrome of x plus column j
        np.bitwise_xor(synd[: 1 << j], B.column(j), out=synd[1 << j : 2 << j])
    member = np.isin(synd, np.fromiter(colors, dtype=dtype, count=len(colors)))
    return VertexSet.from_flags(n, member)


def spanning_fraction(B: GF2Matrix, d: int) -> Fraction:
    """Fraction of d-subsets of columns on which B has full row rank.

    Every d-subcube whose free set is such a subset meets a syndrome set
    with m colors in exactly m·2^(d-r) vertices, so this fraction is a
    certified lower bound on the corresponding λ.
    """
    check_subcube_dimension(B.cols, d)  # column subsets are free sets of Q_cols
    if binomial(B.cols, d) > _SPANNING_SUBSET_CAP:
        raise CapabilityError(
            f"C({B.cols}, {d}) column subsets exceed the cap {_SPANNING_SUBSET_CAP}"
        )
    if B.rows > d:
        return Fraction(0)  # d columns have rank at most d < rows
    columns = [B.column(c) for c in range(B.cols)]
    # the rank of d columns is that of their transpose, whose rows are the columns
    hits = sum(
        gf2_rank(GF2Matrix(d, B.rows, cols)) == B.rows
        for cols in itertools.combinations(columns, d)
    )
    return Fraction(hits, binomial(B.cols, d))


# ---------------------------------------------------------------------------
# concrete vertex sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _philox() -> tuple[np.random.Philox, dict]:
    """The one bit generator of bernoulli_set and its fresh state.

    Made on the first draw, not at import, because numpy.random costs
    about 18 ms to import, and from a fixed integer seed so that it never
    reads OS entropy.
    """
    bg = np.random.Philox(0)
    return bg, bg.state


def _philox_words(seed: int, first: int, count: int) -> np.ndarray:
    """Words first .. first+count-1 (first a multiple of 4) of the raw
    64-bit stream of Philox with key = seed and a zero counter.

    Philox is counter-based and makes 4 words per counter step, so the
    key and the counter fix the stream, and one generator reset from its
    fresh state gives any stretch of any seed's stream exactly.
    ``random_raw`` takes the generator's own lock, which is not
    re-entrant, so the reset and the read share a lock of their own.
    """
    with _PHILOX_LOCK:
        bg, fresh = _philox()
        bg.state = {
            **fresh,
            "state": {
                "counter": np.array([first >> 2, 0, 0, 0], dtype=np.uint64),
                "key": np.array([seed & ((1 << 64) - 1), seed >> 64], dtype=np.uint64),
            },
        }
        return bg.random_raw(count)


def bernoulli_set(n: int, d: int, seed: int) -> VertexSet:
    """Each vertex kept independently with probability exactly 2^(-d).

    The stream is the little-endian raw 64-bit words of Philox with
    key = seed and a zero counter, the bytes that
    ``Generator(Philox(key=seed)).bytes`` returns.  Vertex v consumes bits
    v·d .. v·d+d-1 of it (little-endian bit order within bytes) and is
    kept when all d bits are zero, so membership is reproducible per
    seed.  Blocks of vertices are drawn and unpacked one at a time, so
    the peak memory is O(2^n) bytes whatever d is.
    """
    n, d = check_subcube_dimension(n, d)
    seed = check_int("seed", seed, 0, (1 << 128) - 1)
    check_mask_dimension(n)
    if d == 0:
        return VertexSet.full(n)
    # a multiple of 256 vertices takes a multiple of 4 words for any d
    block = max(256, (_BLOCK_BITS // d) & -256)
    hit = np.zeros(1 << n, dtype=np.uint8)
    for start in range(0, 1 << n, block):
        part = hit[start : start + block]
        raw = _philox_words(seed, start * d >> 6, (len(part) * d + 63) >> 6)
        bits = np.unpackbits(raw.astype("<u8").view(np.uint8), bitorder="little")
        for j in range(d):  # OR the d bit columns: far cheaper than .any(axis=1)
            part |= bits[j : j + len(part) * d : d]
    return VertexSet.from_flags(n, hit == 0)


def layered_set(n: int, spec: LayeredSpec) -> VertexSet:
    """All vertices whose Hamming weight lies in the residue set mod k."""
    n = check_mask_dimension(n)
    layers = sum(1 << w for w in range(n + 1) if w % spec.k in spec.T)
    return VertexSet.from_weights(n, layers)


def parity_set(n: int) -> VertexSet:
    return layered_set(n, LayeredSpec(2, frozenset({0})))


def mod_weight_set(n: int, d: int) -> VertexSet:
    """Weights divisible by d+1; meets most d-subcubes in a single vertex."""
    d = check_int("d", d, 0)
    return layered_set(n, LayeredSpec(d + 1, frozenset({0})))


def weight_top_bottom_set(d: int) -> VertexSet:
    """Vertices of Q_{d+2} of weight 0 or d+1 (d+3 vertices)."""
    n = check_mask_dimension(check_int("d", d, 1) + 2)
    return VertexSet.from_weights(n, 1 | 1 << (n - 1))


def turan_extremal_set(d: int, s: int, clique: CliqueCertificate) -> VertexSet:
    """Rows of a (4s) x (d+2) zero-pattern matrix built from a clique.

    Columns are assigned to clique members round-robin in certificate
    order; the column for member Z is zero exactly on the rows in Z.
    Row r becomes a vertex of Q_{d+2}.  With w distinct members used and
    the 4s rows distinct, the set meets exactly a π(d+2, w) fraction of
    d-subcubes in s vertices.  Equal rows collapse into one vertex, which
    happens when d+2 columns are too few to tell the 4s rows apart, and
    then the set is smaller than 4s and that fraction need not hold.
    """
    s = check_int("s", s, 1)
    n = check_mask_dimension(check_int("d", d) + 2)
    if clique.s != s or not clique.members:
        raise CertificateError("clique certificate does not match s or is empty")
    if not verify_clique(clique):
        raise CertificateError("invalid clique certificate")
    used = clique.members[: min(len(clique.members), n)]
    verts = []
    for r in range(4 * s):
        v = 0
        for j in range(n):
            if not (used[j % len(used)] >> r) & 1:
                v |= 1 << j
        verts.append(v)
    return VertexSet.from_vertices(n, verts)


def perturb_parity(A: VertexSet, cubes: list[Subcube]) -> VertexSet:
    """Complement A inside each listed subcube, sequentially."""
    bits = A.bits
    for q in cubes:
        if q.n != A.n:
            raise DomainError("subcube ambient dimension differs from the set")
        bits ^= q.vertex_mask()
    return VertexSet(A.n, bits)


def perturbation_preserves(n: int, d: int, cubes: list[Subcube]) -> bool:
    """Sufficient condition for the half-count claim to survive perturbation.

    Each perturbing subcube must have dimension at least n-d+1 (so it
    meets every d-subcube it touches in a subcube of dimension >= 1),
    and the perturbing subcubes must be pairwise disjoint (an overlapping
    pair can break the claim even with admissible dimensions).
    """
    if any(q.dimension < n - d + 1 for q in cubes):
        return False
    return all(
        not a.intersects(b) for i, a in enumerate(cubes) for b in cubes[i + 1 :]
    )


# ---------------------------------------------------------------------------
# construction dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionResult:
    """A built set together with the claim its construction certifies.

    claim_value is the certified λ(n, claim_d, claim_s, set) as an exact
    rational, claim_relation is "eq" or "ge", and warning marks a claim
    whose preconditions were not met (emitted anyway, not guaranteed).
    """

    kind: str
    vertex_set: VertexSet
    claim_d: int | None
    claim_s: int | None
    claim_value: Fraction | None
    claim_relation: str
    warning: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "set": self.vertex_set.to_json(),
            "claim": None
            if self.claim_value is None
            else {
                "d": self.claim_d,
                "s": self.claim_s,
                "lambda": str(self.claim_value),
                "relation": self.claim_relation,
                "warning": self.warning,
            },
        }


def build_construction(spec: dict) -> ConstructionResult:
    """Build the vertex set a ConstructionSpec JSON object describes."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise DomainError("construction spec must be an object with a string 'kind'")
    params = dict(spec)
    kind = params.pop("kind")
    if kind not in _BUILDERS:
        raise DomainError(f"unknown construction kind: {kind!r}")
    return _BUILDERS[kind](params)


def _build_syndrome(spec: dict) -> ConstructionResult:
    matrix, colors, d = fields(
        spec, "syndrome spec", matrix="dict", colors="ints", d="int?"
    )
    B = GF2Matrix.from_json(matrix)
    check_mask_dimension(B.cols)  # before spanning_fraction ranks any column subset
    d = B.rows if d is None else d
    frac = spanning_fraction(B, d)
    colors = set(colors)
    A = syndrome_set(B, colors)
    if d < B.rows:  # no d columns reach full row rank, so nothing is certified
        return ConstructionResult("syndrome", A, None, None, None, "ge")
    return ConstructionResult("syndrome", A, d, len(colors) << (d - B.rows), frac, "ge")


def _build_layered(spec: dict) -> ConstructionResult:
    n, k, T = fields(spec, "layered spec", n="int", k="int", T="ints")
    A = layered_set(n, LayeredSpec(k, frozenset(T)))
    return ConstructionResult("layered", A, None, None, None, "eq")


def _build_turan(spec: dict) -> ConstructionResult:
    d, s, clique = fields(spec, "turan_extremal spec", d="int", s="int", clique="dict")
    clique = CliqueCertificate.from_json(clique)
    A = turan_extremal_set(d, s, clique)
    used = min(len(clique.members), d + 2)
    # π(d+2, used) is certain only when the 4s rows are distinct vertices,
    # and no d-subcube holds s > 2^d vertices, so nothing is claimed there
    claim = None if s > 2**d else turan_density(d + 2, used)
    return ConstructionResult(
        "turan_extremal", A, d, s, claim, "eq", warning=len(A) < 4 * s
    )


def _build_parity(spec: dict) -> ConstructionResult:
    n, d = fields(spec, "parity spec", n="int", d="int?")
    d = check_int("d", n if d is None else d, 1, n)
    A = parity_set(n)
    return ConstructionResult("parity", A, d, 1 << (d - 1), Fraction(1), "eq")


def _build_perturbed(spec: dict) -> ConstructionResult:
    n, d, cubes = fields(spec, "perturbed_parity spec", n="int", d="int", cubes="list")
    check_int("d", d, 1, n)
    cubes = [Subcube(n, *fields(q, "cube", free="int", base="int")) for q in cubes]
    A = perturb_parity(parity_set(n), cubes)
    ok = perturbation_preserves(n, d, cubes)
    return ConstructionResult(
        "perturbed_parity", A, d, 1 << (d - 1), Fraction(1), "eq", warning=not ok
    )


def _build_wtb(spec: dict) -> ConstructionResult:
    (d,) = fields(spec, "weight_top_bottom spec", d="int")
    A = weight_top_bottom_set(d)
    # a d-subcube fixes two coordinates, of weight w = 0, 1 or 2 with chance
    # 1/4, 1/2, 1/4; it meets A in vertex 0 if w = 0, else in the C(d, d+1-w)
    # vertices of weight d + 1: 1 if w = 1, d if w = 2, so λ = 3/4, or 1 at d = 1
    claim = Fraction(3, 4) if d >= 2 else Fraction(1)
    return ConstructionResult("weight_top_bottom", A, d, 1, claim, "eq")


def _build_mod_weight(spec: dict) -> ConstructionResult:
    n, d = fields(spec, "mod_weight spec", n="int", d="int")
    A = mod_weight_set(n, d)
    # fraction of base weights ≡ 0 or 1 mod (d+1): the exact λ(n,d,1)
    claim = layered_distribution(n, d, LayeredSpec(d + 1, frozenset({0}))).fraction(1)
    return ConstructionResult("mod_weight", A, d, 1, claim, "eq")


def _build_bernoulli(spec: dict) -> ConstructionResult:
    n, d, seed = fields(spec, "bernoulli spec", n="int", d="int", seed="int?")
    A = bernoulli_set(n, d, 0 if seed is None else seed)
    return ConstructionResult("bernoulli", A, d, 1, None, "eq")


_BUILDERS = {
    "syndrome": _build_syndrome,
    "layered": _build_layered,
    "turan_extremal": _build_turan,
    "parity": _build_parity,
    "perturbed_parity": _build_perturbed,
    "weight_top_bottom": _build_wtb,
    "mod_weight": _build_mod_weight,
    "bernoulli": _build_bernoulli,
}
