"""Plain-text (INI) experiment configuration: flat key = value sections."""

from __future__ import annotations

import configparser
import dataclasses
from contextlib import contextmanager
from typing import Any, Callable

from .harness import (CONFIG_SECTIONS, ExperimentConfig, _format_bool,
                      _parse_bool, _parse_float, _parse_int)


class ConfigError(ValueError):
    """Unreadable or invalid configuration file."""


@contextmanager
def _blaming(source: str):
    """Re-raise a ValueError as a ConfigError that names its source."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return tuple(items)


def _optional(parser: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        return None if text.strip() == "" else parser(text)
    return parse


# field annotation (a string: the config modules postpone them) -> parser
_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": _parse_int,
    "float": _parse_float,
    "str": str.strip,
    "bool": _parse_bool,
    "int | None": _optional(_parse_int),
    "float | None": _optional(_parse_float),
    "tuple[int, ...]": lambda text: tuple(map(_parse_int, _parse_str_list(text))),
    "tuple[str, ...]": _parse_str_list,
}
# field -> INI key, where the two differ
_KEYS = {"learning_rate": "lr"}
# ExperimentConfig fields that are not [experiment] keys: the nested sections,
# and the fixed model, which only code can set
_NOT_KEYS = {"fixed_scm", *filter(None, CONFIG_SECTIONS.values())}


def _section_schema(cls: type) -> dict[str, tuple[str, Callable[[str], Any]]]:
    """INI key -> (field, parser) for the settable fields of ``cls``."""
    schema = {}
    for f in dataclasses.fields(cls):
        if f.name in _NOT_KEYS:
            continue
        parse = _PARSERS.get(f.type)
        if parse is None:
            raise TypeError(f"config field {cls.__name__}.{f.name}: no INI "
                            f"parser for the annotation {f.type!r}")
        schema[_KEYS.get(f.name, f.name)] = (f.name, parse)
    return schema


def _sections(cfg: ExperimentConfig) -> dict[str, Any]:
    """INI section -> the config object that holds its values."""
    return {section: cfg if attr is None else getattr(cfg, attr)
            for section, attr in CONFIG_SECTIONS.items()}


_CLASSES = {section: type(obj)
            for section, obj in _sections(ExperimentConfig()).items()}
# section -> key -> (dataclass field, parser)
_SCHEMA = {section: _section_schema(cls) for section, cls in _CLASSES.items()}

# comment lines written above a key; the dataclasses hold every default
_HEADER = "# scmbench experiment configuration"
_COMMENTS = {
    ("experiment", "confounder_levels"): "benchmark cells, in report column order",
    ("experiment", "master_seed"):
        "omit master_seed to fall back to the WORKBENCH_SEED environment variable",
    ("train", "rounds"): "blank means one round per candidate",
    ("train", "tau"):
        "blank means recalibrate each round from label-permuted null scores",
    ("icp", "max_subset_size"): "blank means unlimited subset size",
}


def write_default_config(path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_ini(ExperimentConfig()))


def _build(section: str, values: dict[str, Any]) -> Any:
    """Construct a section's config; its ValueError, which starts with the
    field it blames, gains the section and the INI key of that field."""
    try:
        return _CLASSES[section](**values)
    except ValueError as exc:
        blamed = str(exc).split(" ", 1)[0]
        raise ConfigError(f"[{section}] {_KEYS.get(blamed, blamed)}: {exc}") from exc


def read_config(path) -> tuple[ExperimentConfig, bool]:
    """Parse a config file; returns (config, whether master_seed was given).

    Missing sections or keys fall back to defaults; unknown sections or keys
    and malformed values raise ConfigError naming the offender.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    values: dict[str, dict[str, Any]] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            entry = _SCHEMA[section].get(key)
            if entry is None:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            field_name, parse = entry
            with _blaming(f"[{section}] {key}"):
                values[section][field_name] = parse(raw)

    master_seed_present = "master_seed" in values["experiment"]
    nested = {attr: _build(section, values[section])
              for section, attr in CONFIG_SECTIONS.items() if attr}
    return _build("experiment", {**values["experiment"], **nested}), master_seed_present


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize a config to the INI layout that read_config parses."""
    lines = [_HEADER, ""]
    for section, obj in _sections(cfg).items():
        lines.append(f"[{section}]")
        for key, (field_name, _) in _SCHEMA[section].items():
            if (section, key) in _COMMENTS:
                lines.append(f"# {_COMMENTS[section, key]}")
            value = getattr(obj, field_name)
            if value is None:
                text = ""
            elif isinstance(value, bool):
                text = _format_bool(value)
            elif isinstance(value, tuple):
                text = ", ".join(str(v) for v in value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}".rstrip())
        lines.append("")
    return "\n".join(lines)

