"""Flat key = value experiment configuration with per-key schema validation.

The file format is deliberately small: one `key = value` pair per line,
`#` comments, blank lines ignored. Values are typed by the schema of the
selected command; unknown keys are rejected with their line number. Lists
are comma separated. This keeps configs diffable and the parser obvious;
no nested structure is ever needed by the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError

COMMANDS = ("symbol-verify", "bounded-test", "elliptic-parametrix",
            "roots-check", "reduce", "carleman-scan")

# accepted alias -> canonical command
COMMAND_ALIASES = {"parametrix-test": "elliptic-parametrix"}


@dataclass(frozen=True)
class Key:
    kind: str                       # int | float | str | float-list | int-list
    default: object = None          # None and required=False means optional
    required: bool = False
    check: Callable[[object], str | None] | None = None  # returns error text


def _positive(x) -> str | None:
    return None if x > 0 else f"must be positive, got {x}"


def _nonnegative(x) -> str | None:
    return None if x >= 0 else f"must be nonnegative, got {x}"


def _at_least(bound: int) -> Callable[[object], str | None]:
    return lambda x: None if x >= bound else f"must be at least {bound}, got {x}"


def _power_of_two(x) -> str | None:
    ok = x >= 2 and (x & (x - 1)) == 0
    return None if ok else f"must be a power of two at least 2, got {x}"


def _dim(x) -> str | None:
    return None if x in (1, 2) else f"must be 1 or 2, got {x}"


def _all_positive(xs) -> str | None:
    return None if all(v > 0 for v in xs) else f"entries must be positive, got {xs}"


_SHARED = {
    "command": Key("str", required=True),
    "seed": Key("int", 0, check=_nonnegative),
    "n": Key("int", 1, check=_dim),
    "M": Key("int", 128, check=_power_of_two),
}


def _shared(*keys: str) -> dict[str, Key]:
    """`command` and `seed`, which every runner reads, plus the named shared keys.

    A schema holds only the keys its runner reads, so any other is rejected.
    """
    return {key: _SHARED[key] for key in ("command", "seed", *keys)}


SCHEMAS: dict[str, dict[str, Key]] = {
    "symbol-verify": {
        **_shared("n"),
        "symbol": Key("str", required=True),
        "l": Key("float"),  # optional declared-order override
    },
    "bounded-test": {
        # the harness always runs in one dimension
        **_shared(),
        "symbol": Key("str", required=True),
        "s": Key("float", 1.0),
        "cutoffs": Key("int-list", (32, 64, 128), check=_all_positive),
        "trials": Key("int", 10, check=_at_least(1)),
    },
    "elliptic-parametrix": {
        **_shared("n", "M"),
        "symbol": Key("str", required=True),
        "cutoff": Key("float", 1.0, check=_positive),
    },
    "roots-check": {
        **_shared("n"),
        "principal": Key("str", required=True),
        "epsilon": Key("float", 0.1, check=_positive),
        "num-angles": Key("int", 64, check=_at_least(1)),
        "num-x": Key("int", 8, check=_at_least(1)),
    },
    "reduce": {
        **_shared("n"),
        "principal": Key("str", required=True),
        "num-angles": Key("int", 64, check=_at_least(1)),
        "num-x": Key("int", 8, check=_at_least(1)),
    },
    "carleman-scan": {
        # the horizons come from T-list alone, so T is not a key here
        **_shared("n", "M"),
        "K": Key("int", 512, check=_at_least(16)),
        "P": Key("int", 256, check=_at_least(1)),
        "a1": Key("str", "zero"),
        "b1": Key("str", "zero"),
        "process": Key("str", "brownian-mode:0.1,1"),
        "window": Key("str", "sine"),
        "mu-list": Key("float-list", check=_all_positive),
        "T-list": Key("float-list", (0.0625, 0.125, 0.25), check=_all_positive),
        "kappa-list": Key("float-list", (16.0, 64.0, 256.0), check=_all_positive),
    },
}


@dataclass
class ExperimentConfig:
    command: str
    values: dict[str, object]

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def echo(self) -> dict:
        """Defaults-filled view for report.json; lists echoed as lists."""
        out = {"command": self.command}
        for key, value in self.values.items():
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


def _parse_scalar(raw: str, kind: str, key: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"expected {kind}, got {raw!r}", key=key, line=line) from None
    return raw


def _parse_value(raw: str, kind: str, key: str, line: int):
    if kind == "str":
        return raw
    if kind in ("float-list", "int-list"):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError("list value is empty", key=key, line=line)
        item = kind.split("-")[0]
        return tuple(_parse_scalar(p, item, key, line) for p in parts)
    return _parse_scalar(raw, kind, key, line)


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")

    pairs: dict[str, tuple[str, int]] = {}
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        stripped = text.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        if key in pairs:
            raise ConfigError("duplicate key", key=key, line=lineno)
        pairs[key] = (raw, lineno)

    if "command" not in pairs:
        raise ConfigError("missing required key", key="command")
    command_raw, command_line = pairs["command"]
    command = COMMAND_ALIASES.get(command_raw, command_raw)
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command_raw!r}; choose one of "
                          f"{', '.join(COMMANDS)}", key="command", line=command_line)

    schema = SCHEMAS[command]
    values: dict[str, object] = {}
    for key, (raw, lineno) in pairs.items():
        if key == "command":
            values[key] = command
            continue
        if key not in schema:
            raise ConfigError(f"unknown key for command {command!r}", key=key, line=lineno)
        spec = schema[key]
        value = _parse_value(raw, spec.kind, key, lineno)
        if spec.check is not None:
            problem = spec.check(value)
            if problem:
                raise ConfigError(problem, key=key, line=lineno)
        values[key] = value

    for key, spec in schema.items():
        if key in values:
            continue
        if spec.required:
            raise ConfigError("missing required key", key=key)
        if spec.default is not None:
            values[key] = spec.default

    return ExperimentConfig(command, values)
