"""Machine-readable result documents and their serialized forms.

JSON for structured reports, CSV for plot arrays.  Floats are written
with 17 significant digits so every document round-trips losslessly;
keys are sorted and writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as _np

from . import __version__

SCHEMA_VERSION = 1


def make_report(command: str, config: dict, results: dict) -> dict:
    return {
        "command": command,
        "provenance": {
            "tool": "renorm",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config": config,
        },
        "results": results,
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, _np.bool_):
        value = bool(value)
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
    # a numpy scalar is written as a float; anything else, a value object
    # (renorm.value) among them, as the JSON string of its str()
    try:
        return _fmt(float(value))
    except (TypeError, ValueError):
        return json.dumps(str(value))


def to_json(doc: dict) -> str:
    return _fmt(doc) + "\n"


def validate_report(doc: dict) -> None:
    """Check the envelope make_report builds; the results are free-form."""
    prov = doc.get("provenance")
    if not (
        isinstance(doc.get("command"), str)
        and isinstance(prov, dict)
        and prov.get("tool") == "renorm"
        and isinstance(prov.get("version"), str)
        and prov.get("schema_version") == SCHEMA_VERSION
        and isinstance(prov.get("config"), dict)
        and isinstance(doc.get("results"), dict)
    ):
        raise RuntimeError(f"malformed report envelope: {doc!r:.200}")


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".renorm-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(doc: dict, path: str | None) -> str:
    validate_report(doc)
    text = to_json(doc)
    if path:
        atomic_write(path, text)
    return text


def to_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append("%.17g" % v if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
