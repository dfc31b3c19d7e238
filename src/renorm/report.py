"""The text of every CLI artifact, and its one atomic file writer.

write_report gives a command's JSON report: its results in an envelope
that names the command and holds the provenance (the tool, its version,
the schema version and the config the run read).  to_csv gives a plot
array.  Floats are written with 17 significant digits so every document
round-trips losslessly, and keys are sorted, so a report's bytes depend
on its values alone.  atomic_write puts a text in place through a temp
file and a rename, with the mode a shell redirect would give the file.
"""

from __future__ import annotations

import os
import stat
import tempfile

from . import __version__

SCHEMA_VERSION = 1


# json.dumps's escapes, ensure_ascii on: these seven as two characters,
# every other control character and DEL as \u00XX, the rest of the BMP
# as \uXXXX, lone surrogates too, and a character above U+FFFF as its
# surrogate pair
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _quote(s: str) -> str:
    """s as a JSON string, bitwise json.dumps(s), without importing json."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'  # printable ASCII, DEL excluded: nothing to escape
    out = []
    for ch in s:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _fmt(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return '"%s"' % value  # JSON has no non-finite literals
        return "%.17g" % value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{_quote(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    # any other number float() takes is written as a float; anything else,
    # a value object (renorm.value) among them, as the JSON string of its str()
    try:
        return _fmt(float(value))
    except (TypeError, ValueError):
        return _quote(str(value))


def write_report(command: str, config: dict, results: dict) -> str:
    """The JSON text of command's report: results in their envelope."""
    provenance = {
        "tool": "renorm",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": config,
    }
    return _fmt({"command": command, "provenance": provenance, "results": results}) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename.  mkstemp makes
    the temp file 0o600, so it is given the mode a shell redirect would
    leave: an existing file's permission bits, else 0o666 less the umask.
    A symlink is written through, as a redirect writes it: the temp file
    and the rename go to the link's target, and the link stays."""
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the one way to read it; restored at once
        os.umask(umask)
        mode = 0o666 & ~umask
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".renorm-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def to_csv(header, rows) -> str:
    """The CSV text of header and rows, tuples: a float (a float subclass
    too) in 17 significant digits, any other cell as its str().  Each row
    is one % operation, its format built once per tuple of cell types."""
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(["%.17g" if issubclass(k, float) else "%s" for k in kinds])
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"
