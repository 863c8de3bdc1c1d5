"""One checker for the declared JSON type and range of every field that a
config or trace file sets. A dataclass declares each field in its type hint
(``bool``, ``str``, ``Optional``, ``Literal``, a tuple, a ``Mapping``, a
class; an ``int`` or ``float`` always with its interval as ``Annotated``
text such as ``"(0, 1]"``; a list of points marked ``POINTS``, read as one
(n, 2) float array) and sets ``__post_init__ = check_fields`` or calls it.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
import struct
import types
from collections.abc import Mapping
from typing import Annotated, Any, Callable, Dict, List, Literal, Tuple, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

NonNegative = Annotated[float, "[0, inf)"]
Positive = Annotated[float, "(0, inf)"]
Share = Annotated[float, "[0, 1]"]
OpenShare = Annotated[float, "(0, 1)"]
Count = Annotated[int, "[0, inf)"]
PositiveCount = Annotated[int, "[1, inf)"]

Parser = Callable[[Any], Any]


def _bounds(interval: str) -> Tuple[float, float]:
    """The closed float bounds of an interval written ``"[lo, hi)"``: an open
    end moves to the next float inward, and an infinite end is always open,
    so membership is one chained comparison, which NaN fails."""
    lo, hi = map(float, interval[1:-1].split(","))
    least = lo if interval[0] == "[" and lo > -math.inf else math.nextafter(lo, math.inf)
    most = hi if interval[-1] == "]" and hi < math.inf else math.nextafter(hi, -math.inf)
    return least, most


class _Mismatch(Exception):
    """Raised with (expected, value); ``where`` is the path to it in the field."""

    where = ""


def check_fields(obj: Any, error: type = ValueError) -> None:
    """Raise ``error`` naming the first field of ``obj`` that breaks its
    declaration. A value of one of the field's exact scalar types within its
    bounds passes on one test; any other value goes to the field's parser."""
    table = _TABLES.get(type(obj)) or _TABLES.setdefault(type(obj), _table(type(obj)))
    for name, exact, least, most, parse in table:
        value = getattr(obj, name)  # vars(obj) would give each instance a dict
        if type(value) in exact and (least is None or least <= value <= most):
            continue
        try:
            parsed = parse(value)
        except _Mismatch as bad:
            expected, got = bad.args
            raise error(f"{name}{bad.where} must be {expected}, got {reprlib.repr(got)}") from None
        if parsed is not value:
            object.__setattr__(obj, name, parsed)


# per checked class, a (name, exact types, least, most, parser) row per field
_TABLES: Dict[type, Tuple[Tuple[str, Any, Any, Any, Parser], ...]] = {}


def _table(cls: type) -> Tuple[Tuple[str, Any, Any, Any, Parser], ...]:
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, *_fast(hints[f.name]), _parser(hints[f.name]))
                 for f in dataclasses.fields(cls))


def _fast(hint: Any) -> Tuple[Tuple[type, ...], Any, Any]:
    """(exact types, least, most): a value of one of those exact types within
    [least, most], or of that exact class when the bounds are None, needs no
    parser. A number field takes an int (a JSON 60) as it is, as its parser
    does; a bool is neither."""
    if get_origin(hint) is Annotated and get_args(hint)[1] != POINTS:
        base, interval = get_args(hint)
        return ((float, int) if base is float else (base,)), *_bounds(interval)
    return ((hint,) if isinstance(hint, type) else ()), None, None


def _parser(hint: Any) -> Parser:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:  # a number and its interval, or a list of points
        return _points(args[0]) if args[1] == POINTS else _number(*args)
    if origin in (Union, types.UnionType):  # Optional[X] or X | None
        parse = _parser(next(a for a in args if a is not type(None)))
        return lambda v: v if v is None else parse(v)
    if origin is tuple:
        return _tuple(args)
    if origin is Mapping:
        return _mapping(args[1])
    if origin is Literal:
        test, expected = (lambda v: v in args), f"one of {args}"
    else:
        names = {bool: "a boolean", str: "a string"}
        test, expected = (lambda v: isinstance(v, hint)), names.get(hint, f"a {hint.__name__}")

    def checked(v: Any) -> Any:
        if not test(v):
            raise _Mismatch(expected, v)
        return v

    return checked


def _number(base: type, interval: str) -> Parser:
    kind = "an integer" if base is int else "a number"
    in_range = f"{'an integer' if base is int else 'a finite number'} in {interval}"
    allowed = int if base is int else (int, float)
    least, most = _bounds(interval)

    def number(v: Any) -> Any:
        if isinstance(v, bool) or not isinstance(v, allowed):
            raise _Mismatch(kind, v)
        if not least <= v <= most:
            raise _Mismatch(in_range, v)
        return v

    return number


def _item(parse: Parser, key: Any, x: Any) -> Any:
    """``parse(x)``, with ``[key]`` put in front of the path of a mismatch."""
    try:
        return parse(x)
    except _Mismatch as bad:
        bad.where = f"[{key!r}]{bad.where}"
        raise


def _tuple(args: Tuple[Any, ...]) -> Parser:
    variadic = args[-1] is Ellipsis
    parsers = [_parser(a) for a in (args[:1] if variadic else args)]
    cls = args[0] if variadic and isinstance(args[0], type) else None

    def parse(v: Any) -> Tuple[Any, ...]:
        if not isinstance(v, (list, tuple)) or not (variadic or len(v) == len(args)):
            raise _Mismatch("a list" if variadic else f"a list of {len(args)}", v)
        # items of exactly the declared class, such as the entities the trace
        # reader has just built, need no parser
        if cls is not None and all(type(x) is cls for x in v):
            return v if type(v) is tuple else tuple(v)
        pairs = zip(parsers * len(v) if variadic else parsers, v)
        return tuple(_item(p, i, x) for i, (p, x) in enumerate(pairs))

    return parse


def _mapping(value: Any) -> Parser:
    parse = _parser(value)
    exact, least, most = _fast(value)

    def mapping(v: Any) -> dict:
        if not isinstance(v, Mapping):
            raise _Mismatch("an object", v)
        # numbers that pass the fast test need no parser
        if least is not None and all(
            type(x) in exact and least <= x <= most for x in v.values()
        ):
            return dict(v)
        return {k: _item(parse, k, x) for k, x in v.items()}

    return mapping


# marks a list of [x, y] points: Annotated[Tuple[Tuple[C, C], ...], POINTS]
# with C a bounded float. It is text: typing caches every hint it builds, and
# a parser in one would keep each imported copy of this module alive
POINTS = "points"


def _packed(flat: List[float]) -> np.ndarray:
    """The read-only, C-contiguous (n, 2) float64 array over the packed bytes
    of the coordinates ``flat``, x and y in turn."""
    return np.ndarray((len(flat) // 2, 2), np.float64, struct.pack(f"{len(flat)}d", *flat))


def _points(hint: Any) -> Parser:
    """Read a list of points as one read-only, C-contiguous float64 array of
    shape (n, 2), a JSON 5 as the 5.0 it stands for; a valid one passes
    through, and any other array is read as its list. Keypoint lists are long:
    pairs of floats in range are flattened in one comprehension and packed
    into one array; the general parser reads the rest or names the bad item."""
    pair, _ = get_args(hint)  # Tuple[Tuple[C, C], ...]
    general = _tuple((pair, ...))
    least, most = _fast(get_args(pair)[0])[1:]

    def parse(v: Any) -> np.ndarray:
        if isinstance(v, np.ndarray):
            if (v.dtype == np.float64 and v.ndim == 2 and v.shape[1] == 2
                    and v.flags.c_contiguous and not v.flags.writeable
                    and (not v.size or least <= v.min() and v.max() <= most)):
                return v
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            try:
                flat = [c for x, y in v if type(x) is float and type(y) is float
                        and least <= x <= most and least <= y <= most for c in (x, y)]
            except (TypeError, ValueError):  # an item that is not a pair
                flat = []
            if len(flat) == 2 * len(v):
                return _packed(flat)
        return _packed([float(c) for xy in general(v) for c in xy])

    return parse
