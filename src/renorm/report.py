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

import json
import os
import stat
import tempfile

from . import __version__

SCHEMA_VERSION = 1


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
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    # any other number float() takes is written as a float; anything else,
    # a value object (renorm.value) among them, as the JSON string of its str()
    try:
        return _fmt(float(value))
    except (TypeError, ValueError):
        return json.dumps(str(value))


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
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append("%.17g" % v if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
