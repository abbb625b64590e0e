"""Key=value run configuration with optional per-scenario sections.

The format is a small subset of INI: blank lines and `#` comments are
ignored, `[section]` headers open a scenario-specific block, and everything
before the first header is global.  A key given twice in one block is an
error that names both lines.  Values keep their string form here;
consumers coerce them with the typed getters, which reject NaN and ±inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Malformed configuration text or a value of the wrong type."""


@dataclass
class RunConfig:
    """Parsed configuration: global options plus per-section overrides."""

    options: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)

    def scoped(self, section: str) -> dict:
        """Global options overlaid with one section's entries."""
        merged = dict(self.options)
        merged.update(self.sections.get(section, {}))
        return merged


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    current, section = cfg.options, None
    first_line = {}  # (section, or None for the globals, key) -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current, section = cfg.sections.setdefault(name, {}), name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first}")
        current[key] = value.strip()
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc


def get_float(options: dict, key: str, default: float) -> float:
    if key not in options:
        return default
    try:
        value = float(options[key])
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: expected a number, got {options[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"option {key!r}: expected a finite number, got {options[key]!r}")
    return value


def get_int(options: dict, key: str, default: int) -> int:
    if key not in options:
        return default
    try:
        return int(options[key], 0)
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: expected an integer, got {options[key]!r}") from exc


def get_floats(options: dict, key: str, default) -> tuple:
    """Comma-separated list of numbers; an empty item is an error, not skipped."""
    if key not in options:
        return tuple(default)
    parts = [p.strip() for p in options[key].split(",")]
    if not all(parts):
        raise ConfigError(f"option {key!r}: expected numbers with no empty item, "
                          f"got {options[key]!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: expected numbers, got {options[key]!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"option {key!r}: expected finite numbers, got {options[key]!r}")
    return values
