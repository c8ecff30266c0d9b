"""The one CSV layout of every report and CLI file: a bool is ``true`` or
``false``, a float its shortest round-trip ``repr``, anything else ``str``;
a cell holding a comma, a double quote or a line break is quoted (RFC 4180)."""

import numpy as np


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    s = repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def row(*cells) -> str:
    """One CSV line of the cells, without its newline."""
    return ",".join(map(_cell, cells))


def text(header: str, rows) -> str:
    """The header line, one line per row and a final newline."""
    return "\n".join([header, *rows]) + "\n"
