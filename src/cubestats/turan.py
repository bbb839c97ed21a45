"""Turán graph quantities and the two-codimension closed form for λ.

t(n,k) is the edge count of the complete k-partite graph on n vertices
with near-equal parts; π(n,k) its density.  For subcubes of codimension
two, λ(d+2,d,s) equals π(d+2,ω(s)) on the nontrivial range of s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapabilityError, DomainError, check_int, show


# Most parts turan_parts lists; no caller in the package needs more than
# ω's cap 4s - 1 = 399 at s = 100.
PARTS_CAP = 1 << 20


def turan_parts(n: int, k: int) -> list[int]:
    """Sizes of the k near-equal parts of T(n,k), largest first.

    Non-integers raise DomainError, and k above PARTS_CAP CapabilityError.
    """
    n, k = check_int("n", n, 0), check_int("k", k, 1)
    if k > PARTS_CAP:
        raise CapabilityError(f"Turán graphs are capped at {PARTS_CAP} parts")
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def turan_edges(n: int, k: int) -> int:
    n, k = check_int("n", n, 0), check_int("k", k, 1)
    # past n parts the rest are empty, so T(n,k) = T(n,n); one part at n = 0
    parts = turan_parts(n, min(k, max(n, 1)))
    return math.comb(n, 2) - sum(math.comb(p, 2) for p in parts)


def turan_density(n: int, k: int) -> Fraction:
    """π(n,k) = t(n,k)/C(n,2); by convention 1 when n < 2."""
    n, k = check_int("n", n), check_int("k", k, 1)
    if n < 2:
        return Fraction(1)
    return Fraction(turan_edges(n, k), math.comb(n, 2))


def occupancy_case(d: int, s: int) -> tuple[str | None, int]:
    """Range check, trivial s and complement mirror of λ(·, d, s).

    Returns the name of the set attaining λ = 1 when s is 0, 2^(d-1) or
    2^d, else None, and s mirrored to 2^d - s when above 2^(d-1).
    Non-integers raise DomainError; numpy integers count as ints.
    """
    d, s = check_int("d", d, 0), check_int("s", s)
    # 2^d matters only when s >= 2^(d-1), where it is at most 2s; below,
    # any stand-in above 2s gives the same answers without building 2^d.
    top = 1 << d if s.bit_length() >= d else 2 * s + 1
    if not 0 <= s <= top:
        raise DomainError(f"s={show(s)} outside [0, 2^d]")
    if s in (0, top) or 2 * s == top:
        return {0: "empty set", top: "full cube"}.get(s, "parity set"), s
    return None, min(s, top - s)


def lambda_d2_closed_form(
    d: int, s: int
) -> Fraction | tuple[Fraction, Fraction]:
    """λ(d+2, d, s) exactly, or an enclosing interval when ω(s) is unknown.

    Trivial s (0, 2^(d-1), 2^d) give 1; s above 2^(d-1) mirrors down; s=1
    has its own clause (π(d+2,3) for d < 6, else 3/4); otherwise the value
    is π(d+2, ω(s)), an interval when ω(s) is only enclosed.
    """
    trivial, s = occupancy_case(d, s)
    if trivial:
        return Fraction(1)
    if s == 1:
        return turan_density(d + 2, 3) if d < 6 else Fraction(3, 4)
    from .johnson import omega  # here, not at the top: johnson loads numpy
    w = omega(s)
    if w.exact:
        return turan_density(d + 2, w.lower)
    return (turan_density(d + 2, w.lower), turan_density(d + 2, w.upper))
