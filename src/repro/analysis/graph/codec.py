"""One generic dataclass <-> JSON codec for the summary records.

:func:`to_json` turns a (nested) dataclass into JSON-ready data: a
record becomes an object keyed by field name with every field still at
its default left out, tuples become lists, and dict keys become
strings.  :func:`from_json` rebuilds a record from the field type hints
alone, so no record class carries serialization code of its own.
Input that does not fit the hints raises ``KeyError``, ``TypeError`` or
``ValueError`` — the three errors the summary cache counts as a miss.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

__all__ = ["from_json", "to_json"]

_MISSING = dataclasses.MISSING


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, typing.Callable], ...]:
    """(name, default or MISSING, decoder) for every field of ``cls``."""
    hints = typing.get_type_hints(cls)
    out = []
    for field in dataclasses.fields(cls):
        default = field.default
        if field.default_factory is not _MISSING:
            default = field.default_factory()
        out.append((field.name, default, _decoder(hints[field.name])))
    return tuple(out)


def to_json(value):
    """JSON-ready form of a record tree (defaults omitted)."""
    if dataclasses.is_dataclass(value):
        return {
            name: to_json(getattr(value, name))
            for name, default, _decode in _fields(type(value))
            if default is _MISSING or getattr(value, name) != default
        }
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_json(item) for key, item in value.items()}
    return value


def from_json(cls: type, data):
    """Rebuild a ``cls`` record from :func:`to_json` output."""
    return _decoder(cls)(data)


def _expect(data, kind: type):
    if not isinstance(data, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(data).__name__}")
    return data


def _decode_record(cls: type, data) -> object:
    _expect(data, dict)
    kwargs = {}
    for name, default, decode in _fields(cls):
        if name in data:
            kwargs[name] = decode(data[name])
        elif default is _MISSING:
            raise KeyError(f"{cls.__name__}.{name}")
    if len(kwargs) != len(data):
        raise KeyError(f"unknown {cls.__name__} field(s): {sorted(set(data) - set(kwargs))}")
    return cls(**kwargs)


def _decode_fixed(decoders: tuple, data) -> tuple:
    if len(_expect(data, list)) != len(decoders):
        raise ValueError(f"expected {len(decoders)} items, got {len(data)}")
    return tuple(decode(item) for decode, item in zip(decoders, data))


@functools.cache
def _decoder(hint) -> typing.Callable:
    if dataclasses.is_dataclass(hint):
        return functools.partial(_decode_record, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        decode = _decoder(inner)
        return lambda data: None if data is None else decode(data)
    if origin is tuple and args[1:] == (Ellipsis,):
        item = _decoder(args[0])
        return lambda data: tuple(item(x) for x in _expect(data, list))
    if origin is tuple:
        return functools.partial(_decode_fixed, tuple(_decoder(arg) for arg in args))
    if origin is dict:
        key = int if args[0] is int else _decoder(args[0])
        value = _decoder(args[1])
        return lambda data: {key(k): value(v) for k, v in _expect(data, dict).items()}
    if hint in (str, int, bool):
        return functools.partial(_expect, kind=hint)
    raise TypeError(f"no JSON codec for {hint!r}")
