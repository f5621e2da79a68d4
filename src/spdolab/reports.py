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


def jsonable(value):
    """Plain-JSON coercion: numpy scalars unwrapped, non-finite floats as strings."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def write_json(path: str | Path, payload: dict) -> Artifact:
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    return _write(path, text + "\n")


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
