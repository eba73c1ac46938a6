"""One schema for the configuration records (ModelSpec, TrainConfig,
DatasetSource): config keys, text codecs, command-line flag types and the
input contract all come from `dataclasses.fields` and one codec per field
type.

Field types are int, float, bool, str, a comma-separated tuple of one of
these, and any of these `| None`. Values are written as `str` for ints,
`repr` for floats, true/false for bools and a comma-join for tuples; a None
value is omitted. Bools read true/false/1/0/yes/no in any case. An empty value
means "unset" (None) for a field whose type admits None and is malformed for
any other field.

The input contract: `within(default, valid)` declares beside a field's type
its valid set, applied to each item of a tuple: an interval such as "[1, inf)",
where a round bracket leaves its end out (nan lies in no interval, and no float
field's interval holds inf), or a tuple of allowed strings. Construction checks
each field once and raises ConfigurationError("<key> must lie in [1, inf), got
0") for the first value outside its set. Cross-field rules stay in the records.
"""

from __future__ import annotations

import dataclasses
import functools
import math
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


def within(default, valid: str | tuple[str, ...]):
    """A dataclass field whose value, or each item of a tuple value, lies in
    `valid`: an interval such as "(0, 1)" or "[1, inf)", or allowed strings."""
    if not isinstance(valid, str):
        return dataclasses.field(default=default, metadata={"choices": valid})
    low, high = (float(end) for end in valid[1:-1].split(","))
    interval = Interval(low, high, valid[0] == "(", valid[-1] == ")", valid)
    return dataclasses.field(default=default, metadata={"interval": interval})


class Interval(typing.NamedTuple):
    """Numbers from `low` to `high`, declared like "[0, 1)": a round bracket
    leaves its end out. nan lies in no interval."""
    low: float
    high: float
    open_low: bool
    open_high: bool
    text: str                   # as declared

    def holds(self, item) -> bool:
        above = self.low < item if self.open_low else self.low <= item
        below = item < self.high if self.open_high else item <= self.high
        return above and below

    def rule(self) -> str:
        """What `holds` asks, in words."""
        if (self.low, self.open_low, self.high) == (0, True, math.inf):
            return "be positive and finite"
        return f"lie in {self.text}"


class Field(typing.NamedTuple):
    name: str                   # dataclass field name
    key: str                    # config key and CLI dest
    parse: typing.Callable      # text -> value, ValueError on malformed text
    format: typing.Callable     # value -> text
    choices: tuple[str, ...] | None     # the strings each item may be
    interval: Interval | None           # the numbers each item may be

    def check(self, value) -> None:
        """ConfigurationError for the first item of `value` outside the
        field's valid set."""
        if value is None:
            return
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if self.choices is not None and item not in self.choices:
                raise ConfigurationError(
                    f"{self.key} must be one of {', '.join(self.choices)}, got {item!r}")
            if self.interval is not None and not self.interval.holds(item):
                raise ConfigurationError(f"{self.key} must {self.interval.rule()}, got {item!r}")


def _field(f: dataclasses.Field, key: str, hint) -> Field:
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
    return Field(f.name, key, parse, format_value, f.metadata.get("choices"),
                 f.metadata.get("interval"))


class ConfigRecord:
    """Mixin for a dataclass written as `key = value` text; each key is
    KEY_PREFIX followed by the field name. Construction checks every field."""

    KEY_PREFIX = ""

    @classmethod
    @functools.cache
    def config_fields(cls) -> tuple[Field, ...]:
        hints = typing.get_type_hints(cls)
        return tuple(_field(f, cls.KEY_PREFIX + f.name, hints[f.name])
                     for f in dataclasses.fields(cls))

    def __post_init__(self):
        for f in self.config_fields():
            f.check(getattr(self, f.name))

    def to_mapping(self) -> dict[str, str]:
        values = ((f, getattr(self, f.name)) for f in self.config_fields())
        return {f.key: f.format(value) for f, value in values if value is not None}

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
