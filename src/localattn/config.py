"""One schema for the configuration records (ModelSpec, TrainConfig,
DatasetSource): config keys, text codecs and command-line flag types all come
from `dataclasses.fields` and one codec per field type.

Field types are int, float, bool, str, a comma-separated tuple of one of
these, and any of these `| None`. Values are written as `str` for ints,
`repr` for floats, true/false for bools and a comma-join for tuples; a None
value is omitted. Bools read true/false/1/0/yes/no in any case. An empty value
means "unset" (None) for a field whose type admits None and is malformed for
any other field.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

from .errors import ConfigurationError

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_str(text: str) -> str:
    if not text:
        raise ValueError(text)
    return text


# type: (name, parse, format); parse raises ValueError or KeyError on bad text
_SCALARS = {
    int: ("int", int, str),
    float: ("float", float, repr),
    bool: ("bool", lambda text: _BOOLS[text.lower()], lambda v: "true" if v else "false"),
    str: ("str", _parse_str, str),
}


class Field(typing.NamedTuple):
    name: str                   # dataclass field name
    key: str                    # config key and CLI dest
    parse: typing.Callable      # text -> value, ValueError on malformed text
    format: typing.Callable     # value -> text


def _field(name: str, key: str, hint) -> Field:
    optional = typing.get_origin(hint) in (typing.Union, types.UnionType)
    if optional:
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is tuple:
        type_name, parse_item, format_item = _SCALARS[typing.get_args(hint)[0]]
        type_name += " list"

        def parse_value(text):
            return tuple(parse_item(item.strip()) for item in text.split(","))

        def format_value(value):
            return ",".join(format_item(item) for item in value)
    else:
        type_name, parse_value, format_value = _SCALARS[hint]
    expected = "true or false" if hint is bool else type_name

    def parse(text: str):
        text = text.strip()
        if optional and not text:
            return None
        try:
            return parse_value(text)
        except (ValueError, KeyError):
            raise ValueError(f"expected {expected}, got {text!r}") from None

    parse.__name__ = type_name      # argparse reports "invalid <type_name> value"
    return Field(name, key, parse, format_value)


class ConfigRecord:
    """Mixin for a dataclass written as `key = value` text; each key is
    KEY_PREFIX followed by the field name."""

    KEY_PREFIX = ""

    @classmethod
    @functools.cache
    def config_fields(cls) -> tuple[Field, ...]:
        hints = typing.get_type_hints(cls)
        return tuple(_field(f.name, cls.KEY_PREFIX + f.name, hints[f.name])
                     for f in dataclasses.fields(cls))

    def to_mapping(self) -> dict[str, str]:
        values = ((f, getattr(self, f.name)) for f in self.config_fields())
        return {f.key: f.format(value) for f, value in values if value is not None}

    def require_positive(self, *names: str) -> None:
        """Raise ConfigurationError for the first of the fields `names` whose
        value is set and below 1."""
        for name in names:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(
                    f"{self.KEY_PREFIX}{name} must be at least 1, got {value}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], **overrides):
        """The record from the keys of `mapping` that name its fields (other
        keys are ignored), with `overrides` (field name -> value) on top."""
        kwargs = {}
        for f in cls.config_fields():
            if f.key in mapping:
                try:
                    kwargs[f.name] = f.parse(mapping[f.key])
                except ValueError as exc:
                    raise ConfigurationError(f"{f.key}: {exc}") from None
        return cls(**{**kwargs, **overrides})
