"""Turán graph quantities and the two-codimension closed form for λ.

t(n,k) is the edge count of the complete k-partite graph on n vertices
with near-equal parts; π(n,k) its density.  For subcubes of codimension
two, λ(d+2,d,s) equals π(d+2,ω(s)) on the nontrivial range of s.
"""

from __future__ import annotations

from fractions import Fraction

from .cube import binomial
from .errors import DomainError, check_int
from .johnson import OmegaResult, omega


def turan_parts(n: int, k: int) -> list[int]:
    """Sizes of the k near-equal parts of T(n,k), largest first."""
    if n < 0 or k < 1:
        raise DomainError("need n >= 0 and k >= 1")
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def turan_edges(n: int, k: int) -> int:
    # past n parts the rest are empty, so T(n,k) = T(n,n); one part at n = 0
    parts = turan_parts(n, min(k, max(n, 1)))
    return binomial(n, 2) - sum(binomial(p, 2) for p in parts)


def turan_density(n: int, k: int) -> Fraction:
    """π(n,k) = t(n,k)/C(n,2); by convention 1 when n < 2."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < 2:
        return Fraction(1)
    return Fraction(turan_edges(n, k), binomial(n, 2))


def occupancy_case(d: int, s: int) -> tuple[str | None, int]:
    """Range check, trivial s and complement mirror of λ(·, d, s).

    Returns the name of the set attaining λ = 1 when s is 0, 2^(d-1) or
    2^d, else None, and s mirrored to 2^d - s when above 2^(d-1).
    Non-integers raise DomainError; numpy integers count as ints.
    """
    d, s = check_int("d", d), check_int("s", s)
    # 2^d matters only when s >= 2^(d-1), where it is at most 2s; below,
    # any stand-in above 2s gives the same answers without building 2^d.
    top = 1 << d if s.bit_length() >= d else 2 * s + 1
    if not 0 <= s <= top:
        raise DomainError(f"s={s} outside [0, 2^d]")
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
    if d < 0:
        raise DomainError("d must be >= 0")
    trivial, s = occupancy_case(d, s)
    if trivial:
        return Fraction(1)
    if s == 1:
        return turan_density(d + 2, 3) if d < 6 else Fraction(3, 4)
    w: OmegaResult = omega(s)
    if w.exact:
        return turan_density(d + 2, w.lower)
    return (turan_density(d + 2, w.lower), turan_density(d + 2, w.upper))
