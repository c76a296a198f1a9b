"""Runtime values: integers, strings, booleans, and the undefined marker.

``undef`` doubles as "variable not bound" and "evaluation error"; the two are
deliberately not distinguished anywhere downstream.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Union


class Undef:
    """The distinct undefined marker. Use the UNDEF singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undef"


UNDEF = Undef()


@dataclass(frozen=True)
class Bool:
    """Boolean data value, kept distinct from int (Python would conflate True and 1)."""

    value: bool

    def __repr__(self):
        return "tt" if self.value else "ff"


TT = Bool(True)
FF = Bool(False)

Value = Union[int, str, Bool]
UValue = Union[int, str, Bool, Undef]

INT = "Int"
STRING = "String"
BOOL = "Bool"
UNDEF_T = "Undef"
TOP_T = "Top"
BOT_T = "Bot"


# the type name of each value class; raw Python bools are not values
TYPE_OF_CLASS = {int: INT, str: STRING, Bool: BOOL, Undef: UNDEF_T}
_VALUE_CLASSES = frozenset((int, str, Bool))


def is_value(v) -> bool:
    return type(v) in _VALUE_CLASSES


def type_of(v: UValue) -> str:
    """Type name of a possibly undefined value."""
    try:
        return TYPE_OF_CLASS[type(v)]
    except KeyError:
        if isinstance(v, bool):
            raise TypeError("raw Python bool leaked into a value position; use Bool") from None
        raise TypeError(f"not a value: {v!r}") from None


def value_str(v: UValue) -> str:
    """Literal syntax for a value: ints bare, strings as ASCII JSON strings
    (every control, non-ASCII and line-breaking character escaped, so a
    literal stays on its line), booleans tt/ff."""
    if v is UNDEF:
        return "undef"
    if isinstance(v, Bool):
        return repr(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return int_str(v)


# The conversions between ints and decimal text, of any length: ``str`` and
# ``int`` refuse more digits than Python's limit (``sys.int_info``), so past
# it each half is converted on its own.

def int_str(n: int) -> str:
    """``n`` in decimal."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits
        head, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + int_str(head) + f"{int_str(low):0>{k}}"


def int_of(text: str) -> int:
    """The int that ``text``, an optional ``-`` and decimal digits, names
    (``int_str``'s inverse); a ``ValueError`` for any other text."""
    negative = text.startswith("-")
    digits = text[negative:]
    if not digits.isdecimal():
        raise ValueError(f"not an int: {text[:20]!r}")
    if len(digits) <= sys.int_info.str_digits_check_threshold:
        return int(text)
    k = len(digits) // 2
    n = int_of(digits[:-k]) * 10 ** k + int_of(digits[-k:])
    return -n if negative else n
