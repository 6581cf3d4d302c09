"""ASCII rendering of a subsemigroup inside the element array."""

from __future__ import annotations

from . import _EXPORTS
from .subsemigroups import SubsemigroupSpec, _check_window, _grid, require_valid

__all__ = list(_EXPORTS["render"])

_MARKS = bytes.maketrans(b"01", b".#")


def render_window(spec: SubsemigroupSpec, window: int) -> str:
    """Rows 0..window as lines of '#' (member) and '.' separated by spaces.

    Byte-exact contract: window + 1 lines of 2 * window + 1 characters,
    no trailing newline.
    """
    require_valid(spec)
    _check_window(window)
    size = window + 1
    # format() writes column 0 last, so each row's bits are reversed; the
    # marks go to every other byte, and each row's last gap ends its line
    marks = "".join([format(row, f"0{size}b")[::-1] for row in _grid(spec, size, size)])
    text = bytearray(b" ") * (2 * size * size)
    text[::2] = marks.encode().translate(_MARKS)
    text[2 * size - 1 :: 2 * size] = b"\n" * size
    return text[:-1].decode()
