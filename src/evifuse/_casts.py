"""The one cast per kind of value, below every other module of the package.

Every number the package takes from a caller, a value class's field or a
public function's argument, is read through one cast per kind of value:
`_real`, `_integer`, `_numeric` and `_integers`. Each takes what is a number
of its kind, in Python, numpy or parsed JSON, and raises a ValueError naming
the field for anything else, so `float("0.4")`, `int(True)`, `int(2.7)` and a
string array's cast to float never decide what a number is. A public
function checks, then calls a private twin that trusts; the library's own
loops call the twins. Every JSON object the package reads is read by one
reader, `_object`, which refuses an unknown key and a missing required one.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
import reprlib

import numpy as np

_MIN_CLASSES = 2  # the fewest components of a class vector

# The least integer magnitude float() refuses: halfway between the largest
# float, 2**1024 - 2**971, and 2**1024, which the tie rounds up to.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_real(value) -> bool:
    """True for a number float() reads without overflow; False for a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return not isinstance(value, numbers.Integral) or abs(int(value)) < _FLOAT_OVERFLOW


def _real(value, name) -> float:
    """`value` as a float; None, strings, booleans and containers are a ValueError."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, not {reprlib.repr(value)}")
    return float(value)


def _integer(value, name) -> int:
    """`value` as an int: any integer, or an integral real such as 3.0.

    2.7, inf, booleans and strings are a ValueError.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not (_is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, not {reprlib.repr(value)}")
    return int(value)


def _numeric(values, name) -> np.ndarray:
    """`values` as an array of numbers, of numpy's own dtype for them.

    Python integers beyond int64 make an object array, which passes when
    every element is a real number. Strings, booleans, None, mappings and
    ragged nesting are a ValueError.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValueError(f"{name} must be a regular array of numbers: {exc}") from None
    # numpy casts a boolean among numbers to a number, so the elements of a
    # list or tuple are checked by type too; an array's dtype tells
    flat = values if isinstance(values, (list, tuple)) else ()
    for _ in range(arr.ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    kind = arr.dtype.kind
    all_real = kind in "iuf" or (kind == "O" and all(map(_is_real, arr.flat)))
    if not all_real or {bool, np.bool_} & set(map(type, flat)):
        raise ValueError(f"{name} must hold only numbers, not {reprlib.repr(values)}")
    return arr


def _integers(values, name) -> np.ndarray:
    """`values` as a vector of integers, each entry read by the `_integer` rule.

    An integer array passes on its dtype alone; any other vector is read
    entry by entry, so [3.0] is [3] and [2.7], [inf] or [True] is a
    ValueError. Entries beyond int64 make an object array of Python ints.
    """
    arr = _numeric(values, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a list of integers")
    if arr.dtype.kind in "iu":
        return arr
    ints = [_integer(x, f"{name} entry") for x in arr.tolist()]
    return np.array(ints) if ints else arr.astype(np.int64)


def _read_only(values, name):
    arr = np.array(_numeric(values, name), dtype=float)
    if arr.ndim != 1 or arr.size < _MIN_CLASSES:
        raise ValueError(f"{name} must be a vector with at least {_MIN_CLASSES} components")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _cast_fields(obj) -> None:
    """Set each field of the frozen dataclass `obj` to its value read through its declared cast,
    `metadata={"cast": _real}`, plus "name" if its errors name it otherwise and "tuple" to hold
    an `_integers` vector as a tuple. A None in a field whose default is None stays None."""
    for f in dataclasses.fields(obj):
        cast, value = f.metadata.get("cast"), getattr(obj, f.name)
        if cast is not None and (value is not None or f.default is not None):
            value = cast(value, f.metadata.get("name", f.name))
            object.__setattr__(obj, f.name, tuple(value.tolist()) if f.metadata.get("tuple") else value)


def _object(value, name, required, optional) -> dict:
    """`value`, a parsed JSON object that holds every key of `required` and no key outside it and
    the mapping `optional`, as a new dict in which each absent key of `optional` has its default."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object")
    for key in value:
        if key not in optional and key not in required:
            raise ValueError(f"unknown {name} key {key!r}")
    for key in required:
        if key not in value:
            raise ValueError(f"{name} is missing {key!r}")
    return {**optional, **value}


def _field_keys(cls) -> tuple:
    """`_object`'s `required` and `optional` for a record of dataclass `cls`: the fields without a
    default, and the others with theirs."""
    optional = {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    return [f.name for f in dataclasses.fields(cls) if f.name not in optional], optional
