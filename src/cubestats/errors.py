"""Exception types shared across the package, and the one checker that
reads every JSON object arriving from outside the program."""

import numpy as np


class DomainError(ValueError):
    """An argument is outside the operation's documented domain."""


class CapabilityError(RuntimeError):
    """The request exceeds a configured desk-scale capability cap."""


class CertificateError(ValueError):
    """A supplied certificate fails its own validity check."""


def is_int(x) -> bool:
    """True for Python and numpy integers; bools are not integers here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(name: str, x) -> int:
    """x as a Python int; DomainError, naming it, unless ``is_int(x)``."""
    if not is_int(x):
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return int(x)


# kind -> (test, what the error message says the member must be)
_KINDS = {
    "int": (is_int, "an integer"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "list": (lambda x: isinstance(x, list), "a list"),
    "dict": (lambda x: isinstance(x, dict), "an object"),
    "ints": (lambda x: isinstance(x, list) and all(map(is_int, x)), "a list of integers"),
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
