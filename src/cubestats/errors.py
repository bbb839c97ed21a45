"""Exception types shared across the package, and the two readers of
arguments: ``check_int`` for integers and ``fields`` for JSON objects.

An integer argument is a Python or numpy integer, never a bool, float,
str or None.  Every public entry reads its integer arguments through
``check_int``, which returns a Python int or raises DomainError naming
the argument, so a non-integer never reaches a comparison, an index or
an ``lru_cache`` key that would treat 1.0 or True as 1; the few tests
kept by hand, for a pinned message or a measured cost, use ``is_int``
and ``show``.  Messages name an
integer above ``_SHOWN_BITS`` bits by its bit length (``show``): Python
refuses to print one past 4,300 digits, and no reader wants one.
"""

import numbers

# Integers above this many bits (about 300 digits) are shown by bit length
_SHOWN_BITS = 1024


class DomainError(ValueError):
    """An argument is outside the operation's documented domain."""


class CapabilityError(RuntimeError):
    """The request exceeds a configured desk-scale capability cap."""


class CertificateError(ValueError):
    """A supplied certificate fails its own validity check."""


def is_int(x) -> bool:
    """True for Python and numpy integers; bools are not integers here."""
    # the exact type test first, as it is cheaper; numpy registers its integer
    # scalars as numbers.Integral, but not np.bool_ or arrays
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def show(x) -> str:
    """x as an error message prints it: an integer in decimal, or by its
    bit length past ``_SHOWN_BITS`` bits; anything else by its repr."""
    if not is_int(x):
        return repr(x)
    x = int(x)
    if x.bit_length() <= _SHOWN_BITS:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


def check_int(name: str, x, lo: int | None = None, hi: int | None = None) -> int:
    """x as a Python int, when it is an integer in [lo, hi]; a bound left
    None is open, and ``hi`` is only given with ``lo``.  Else DomainError,
    naming the argument."""
    if not is_int(x):
        raise DomainError(f"{name} must be an integer, got {show(x)}")
    x = int(x)
    if hi is not None and not lo <= x <= hi:
        raise DomainError(f"{name} {show(x)} outside [{show(lo)}, {show(hi)}]")
    if lo is not None and x < lo:
        raise DomainError(f"{name} must be an integer >= {show(lo)}, got {show(x)}")
    return x


# kind -> (test, what the error message says the member must be)
_KINDS = {
    "int": (is_int, "an integer"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "list": (lambda x: isinstance(x, list), "a list"),
    "dict": (lambda x: isinstance(x, dict), "an object"),
    "ints": (  # a list of plain ints, as JSON gives, takes one walk over its types
        lambda x: isinstance(x, list) and (set(map(type, x)) <= {int} or all(map(is_int, x))),
        "a list of integers",
    ),
    "strs": (
        lambda x: isinstance(x, list) and all(isinstance(e, str) for e in x),
        "a list of strings",
    ),
}


def fields(obj, what: str, **kinds: str) -> tuple:
    """The members of the JSON object ``obj`` named in ``kinds``, in that order.

    Each kind is one of ``int``, ``str``, ``list``, ``dict``, ``ints`` (a
    list of integers) or ``strs`` (a list of strings); a trailing ``?``
    makes the member optional, and an absent one reads as None.  Raises
    DomainError, naming ``what`` and the member, when ``obj`` is not an
    object, or has a member missing, of the wrong kind, or not in ``kinds``.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object")
    for name in obj:
        if name not in kinds:
            raise DomainError(f"{what} has an unknown member {name!r}")
    for name, kind in kinds.items():
        test, description = _KINDS[kind.rstrip("?")]
        if name not in obj and not kind.endswith("?"):
            raise DomainError(f"{what} needs a member {name!r}")
        if name in obj and not test(obj[name]):
            raise DomainError(f"{what} member {name!r} must be {description}")
    return tuple(obj.get(name) for name in kinds)
