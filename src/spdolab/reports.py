"""Deterministic report emission: CSV, JSON, and the run manifest.

Numbers are written with 17 significant digits ('.' decimal point) and '\n'
line endings so identical floating-point results produce identical bytes on
every platform. The manifest is written last and lists a sha256 digest for
every other emitted file; it is the only artifact carrying a timestamp.

A run first removes the files its out dir's previous manifest lists, so it
leaves no file of an earlier run, and each writer then creates its file anew
and returns it with the digest of the bytes it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "0.1.0"


def format_number(x) -> str:
    """Shortest 17-significant-digit decimal form; round-trips float64."""
    return "{:.17g}".format(float(x))


def format_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "pass" if value else "fail"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_number(value)
    return str(value)


# str.format fields that print a cell of exactly this type as format_cell does
_CELL_FIELDS = {float: "{:.17g}", int: "{:d}", str: "{}"}


class Artifact(type(Path())):
    """The path of a file a writer created, with the sha256 of its bytes. It
    is a Path, so a caller reads the file's name or size as from any path."""

    sha256: str


def _write(path: str | Path, text: str) -> Artifact:
    data = text.encode()
    artifact = Artifact(path)
    artifact.write_bytes(data)
    artifact.sha256 = hashlib.sha256(data).hexdigest()
    return artifact


def write_csv(path: str | Path, header: list[str], rows) -> Artifact:
    """One line per row, each through one template per tuple of cell types;
    cells of other types are first put through format_cell."""
    lines = [",".join(header)]
    templates: dict[tuple, tuple[str, list[int]]] = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = (",".join(_CELL_FIELDS.get(t, "{}") for t in types),
                                [i for i, t in enumerate(types) if t not in _CELL_FIELDS])
        template, other = templates[types]
        if other:
            row = list(row)
            for i in other:
                row[i] = format_cell(row[i])
        lines.append(template.format(*row))
    return _write(path, "\n".join(lines) + "\n")


# the C-level string encoder that json.dumps itself uses for ASCII output
_json_string = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str, out: list[str]) -> None:
    """Append to `out` the JSON of `value` at nesting `indent`, in the layout
    of json.dumps(..., indent=2, sort_keys=True), coercing as it goes: numpy
    scalars and arrays unwrapped, tuples as lists, keys as str(key), and
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            out.append(float.__repr__(value))
        elif math.isnan(value):
            out.append('"nan"')
        else:
            out.append('"inf"' if value > 0 else '"-inf"')
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(int.__repr__(int(value)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        items = {str(k): v for k, v in value.items()}
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(items):
            out += (separator, _json_string(key), ": ")
            _json_text(items[key], inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for v in value:
            out.append(separator)
            _json_text(v, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def write_json(path: str | Path, payload: dict) -> Artifact:
    """`payload` as indented JSON with sorted keys (see _json_text), built in
    one pass with the C-level leaf encoders."""
    out: list[str] = []
    _json_text(payload, "", out)
    out.append("\n")
    return _write(path, "".join(out))


def platform_name() -> str:
    """The system-release-machine[-with-libc] string of `platform.platform()`,
    from `platform.uname()` fields and `platform.libc_ver()`. It never reads
    `uname().processor`, which on Linux runs `uname -p` in a subprocess. On
    Linux, wherever that processor name is empty or the machine's, the two
    strings agree."""
    uname = platform.uname()
    libc, version = platform.libc_ver()
    parts = [uname.system, uname.release, uname.machine]
    if libc:
        parts += ["with", libc + version]
    return "-".join(p.strip() for p in parts if p).replace(" ", "_").replace("/", "-")


def environment_stamp() -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform_name(),
    }


def remove_artifacts(out_dir: str | Path) -> None:
    """Remove the files the manifest of `out_dir` lists, then the manifest.
    Only plain file names in the out dir are removed; a file that cannot be
    removed is rewritten in place."""
    manifest = Path(out_dir) / "manifest.json"
    try:
        listed = json.loads(manifest.read_bytes()).get("files")
    except (OSError, ValueError, AttributeError):
        listed = None
    names = [n for n in listed if isinstance(n, str)] if isinstance(listed, dict) else []
    for name in names + [manifest.name]:
        if name not in ("", "..") and Path(name).name == name:
            with contextlib.suppress(OSError):
                (manifest.parent / name).unlink()


def write_manifest(out_dir: str | Path, command: str, seed: int,
                   files: list[Artifact]) -> Artifact:
    out_dir = Path(out_dir)
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "seed": int(seed),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "files": {f.name: f.sha256 for f in sorted(files)},
    }
    return write_json(out_dir / "manifest.json", manifest)
