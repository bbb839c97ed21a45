"""Lower-bound constructions as concrete vertex sets, plus bound formulas.

Each builder returns the exact set it promises; ``build_construction``
dispatches the JSON form and attaches the claim the construction
certifies, and ``best_bounds`` assembles the tightest known enclosure
of λ(d,s) from the closed forms, the constructions, and the stored
reference constants.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .cube import Subcube, VertexSet, binomial, check_mask_dimension
from .cube import check_subcube_dimension, vertex_weights
from .errors import CapabilityError, CertificateError, DomainError, check_int, fields, show
from .gf2 import GF2Matrix, gf2_rank
from .johnson import CliqueCertificate, verify_clique
from .stats import LambdaBounds, LayeredSpec, layered_distribution
from .turan import lambda_d2_closed_form, occupancy_case, turan_density

# Flag-algebra upper bounds quoted from the source remark; not
# reproducible at desk scale, stored verbatim and tagged as such.
REFERENCE_UPPER = {
    (2, 1): Fraction("0.68572"),
    (3, 1): Fraction("0.61005"),
    (4, 1): Fraction("0.60254"),
}

# Integers up to 2^14284 have at most 4300 decimal digits, the default
# int-to-str limit of Python, so fractions under it can be reported.
_MAX_DENOMINATOR_BITS = 14_284

# Most column subsets spanning_fraction ranks; each takes about 40 µs in Python.
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
    hits = 0
    total = 0
    for cols in itertools.combinations(range(B.cols), d):
        total += 1
        if gf2_rank(B.restrict_columns(cols)) == B.rows:
            hits += 1
    return Fraction(hits, total)


# ---------------------------------------------------------------------------
# closed-form bound quantities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def c_d(d: int) -> Fraction:
    """Probability that d uniform nonzero columns of F_2^d span it."""
    d = check_int("d", d, 1)
    out = Fraction(1)
    for i in range(1, d):
        out *= 1 - Fraction((1 << i) - 1, (1 << d) - 1)
    return out


@lru_cache(maxsize=None, typed=True)
def c_dk(d: int, k: int) -> Fraction:
    """Probability that a (d-k) x d uniform binary matrix has full row rank."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    out = Fraction(1)
    for i in range(d - k):
        out *= 1 - Fraction(1 << i, 1 << d)
    return out


@lru_cache(maxsize=None, typed=True)
def c_star(d: int, k: int) -> Fraction:
    """Full-row-rank probability for (d-k) x d with uniform NONZERO columns.

    Rank-evolution recurrence: a fresh nonzero column raises rank r with
    probability (2^(d-k) - 2^r)/(2^(d-k) - 1).
    """
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m == 0:
        return Fraction(1)
    space = 1 << m
    dp = [Fraction(0)] * (m + 1)
    dp[0] = Fraction(1)
    for _ in range(d):
        nxt = [Fraction(0)] * (m + 1)
        for r, p in enumerate(dp):
            if not p:
                continue
            if r == m:
                nxt[r] += p
            else:
                up = Fraction(space - (1 << r), space - 1)
                nxt[r + 1] += p * up
                nxt[r] += p * (1 - up)
        dp = nxt
    return dp[m]


def c_star_enumerated(d: int, k: int) -> Fraction:
    """Oracle for c_star by enumerating all (2^(d-k)-1)^d column tuples."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m == 0:
        return Fraction(1)
    nonzero = range(1, 1 << m)
    hits = 0
    total = 0
    for cols in itertools.product(nonzero, repeat=d):
        total += 1
        rows = [
            sum(((col >> r) & 1) << j for j, col in enumerate(cols)) for r in range(m)
        ]
        if gf2_rank(GF2Matrix(m, d, tuple(rows))) == m:
            hits += 1
    return Fraction(hits, total)


@lru_cache(maxsize=None, typed=True)
def expected_single_fraction(d: int) -> Fraction:
    """(1 - 2^-d)^(2^d - 1): expected fraction of d-subcubes meeting a
    Bernoulli(2^-d) set in exactly one vertex."""
    d = check_int("d", d, 1)
    return Fraction((1 << d) - 1, 1 << d) ** ((1 << d) - 1)


def two_adic_split(s: int) -> tuple[int, int]:
    """s = 2^k · j with j odd."""
    s = check_int("s", s, 1)
    k = (s & -s).bit_length() - 1
    return k, s >> k


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
    table = np.array([w % spec.k in spec.T for w in range(n + 1)])
    return VertexSet.from_flags(n, table[vertex_weights(n)])


def parity_set(n: int) -> VertexSet:
    return layered_set(n, LayeredSpec(2, frozenset({0})))


def mod_weight_set(n: int, d: int) -> VertexSet:
    """Weights divisible by d+1; meets most d-subcubes in a single vertex."""
    d = check_int("d", d, 0)
    return layered_set(n, LayeredSpec(d + 1, frozenset({0})))


def weight_top_bottom_set(d: int) -> VertexSet:
    """Vertices of Q_{d+2} of weight 0 or d+1 (d+3 vertices)."""
    n = check_mask_dimension(check_int("d", d, 1) + 2)
    full = (1 << n) - 1
    return VertexSet.from_vertices(n, [0] + [full ^ (1 << j) for j in range(n)])


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


# ---------------------------------------------------------------------------
# best known enclosure of λ(d,s)
# ---------------------------------------------------------------------------


def best_bounds(d: int, s: int) -> LambdaBounds:
    """Tightest enclosure of the limit λ(d,s) assembled from all sources."""
    d, s = check_int("d", d, 1), check_int("s", s)
    trivial, low = occupancy_case(d, s)
    if trivial:
        return LambdaBounds(d, s, Fraction(1), Fraction(1), trivial, "closed-form")
    # The denominators of c_d and c_star divide (2^d - 1)^(d - 1) or
    # (2^(d-k) - 1)^d; the Bernoulli fraction's is 2^(d(2^d - 1)).  Capping
    # that exponent's d at 16 keeps 2^d small and the test the same, since
    # 16(2^16 - 1) already passes the cap.
    bits = d * ((1 << min(d, 16)) - 1 if low == 1 else d - 1)
    if bits > _MAX_DENOMINATOR_BITS:
        raise CapabilityError(f"bounds at d={show(d)} need fractions of over 4300 digits")
    lower_candidates: list[tuple[Fraction, str]] = [
        (c_d(d), "syndrome (square matrix, nonzero columns)")
    ]
    k, _ = two_adic_split(low)
    if 1 <= k <= d:
        lower_candidates.append(
            (c_star(d, k), f"syndrome ({d - k} rows, nonzero columns)")
        )
    if low == 1:
        lower_candidates.append((expected_single_fraction(d), "Bernoulli(2^-d) set"))
        lower_candidates.append(
            (Fraction(2, d + 1), f"weights divisible by {d + 1}")
        )
    lower, lower_witness = max(lower_candidates, key=lambda t: t[0])

    upper_candidates: list[tuple[Fraction, str]] = []
    if low == 1:
        upper_candidates.append((lambda_d2_closed_form(d, 1), "closed-form"))
    else:
        # π(d+2, ω(low)) with the a-priori cap ω(low) <= 4 low - 1; exact when
        # a Hadamard matrix of order 4 low exists, an upper bound regardless.
        upper_candidates.append((turan_density(d + 2, 4 * low - 1), "closed-form"))
        generic = (1 - Fraction(1, 4 * low - 1)) * (1 + Fraction(1, d + 1))
        upper_candidates.append((min(generic, Fraction(1)), "generic"))
    if (d, low) in REFERENCE_UPPER:
        upper_candidates.append((REFERENCE_UPPER[(d, low)], "reference-constant"))
    upper, upper_source = min(upper_candidates, key=lambda t: t[0])
    if low != s:  # λ(d,s) = λ(d, 2^d - s) via complementation
        lower_witness = f"complement of: {lower_witness}"
    return LambdaBounds(d, s, lower, upper, lower_witness, upper_source)
