"""Plain-text (INI) experiment configuration: flat key = value sections."""

from __future__ import annotations

import configparser
import dataclasses
from typing import Any, Callable

from .harness import CONFIG_SECTIONS, ExperimentConfig, _blaming, _text_form


class ConfigError(ValueError):
    """Unreadable or invalid configuration file."""


# ExperimentConfig fields that are not [experiment] keys: the nested sections,
# and the fixed model, which only code can set
_SKIPPED_FIELDS = {"fixed_scm", *filter(None, CONFIG_SECTIONS.values())}


def _section_schema(cls: type) -> dict[str, tuple[Callable, Callable]]:
    """INI key (the field's name) -> (format, parse) for the settable fields
    of ``cls``."""
    return {f.name: _text_form(cls, f)
            for f in dataclasses.fields(cls) if f.name not in _SKIPPED_FIELDS}


def _sections(cfg: ExperimentConfig) -> dict[str, Any]:
    """INI section -> the config object that holds its values."""
    return {section: cfg if attr is None else getattr(cfg, attr)
            for section, attr in CONFIG_SECTIONS.items()}


_CLASSES = {section: type(obj)
            for section, obj in _sections(ExperimentConfig()).items()}
# section -> key -> (format, parse)
_SCHEMA = {section: _section_schema(cls) for section, cls in _CLASSES.items()}

# comment lines written above a key; the dataclasses hold every default
_HEADER = "# scmbench experiment configuration"
_COMMENTS = {
    ("experiment", "confounder_levels"): "benchmark cells, in report column order",
}


def write_default_config(path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_ini(ExperimentConfig()))


def _build(section: str, values: dict[str, Any]) -> Any:
    """A section's config; its ValueError gains the section and blamed key."""
    with _blaming(lambda name: f"[{section}] {name}", ConfigError):
        return _CLASSES[section](**values)


def read_config(path) -> ExperimentConfig:
    """Parse a config file.

    Missing sections or keys fall back to defaults. Unknown sections (no
    header names "", so [DEFAULT] is one), unknown keys (case-sensitive, set
    with '='), values continued on an indented line and malformed values
    raise ConfigError naming the offender.
    """
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",),
                                       default_section="")
    parser.optionxform = str
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
            _, parse = entry
            with _blaming(f"[{section}] {key}", ConfigError):
                # configparser joins an indented line onto the value above
                if "\n" in raw:
                    raise ValueError(f"expected a value on one line, got {raw!r}")
                values[section][key] = parse(raw)

    nested = {attr: _build(section, values[section])
              for section, attr in CONFIG_SECTIONS.items() if attr}
    return _build("experiment", {**values["experiment"], **nested})


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize a config to the INI layout that read_config parses."""
    lines = [_HEADER, ""]
    for section, obj in _sections(cfg).items():
        lines.append(f"[{section}]")
        for key, (fmt, _) in _SCHEMA[section].items():
            if (section, key) in _COMMENTS:
                lines.append(f"# {_COMMENTS[section, key]}")
            lines.append(f"{key} = {fmt(getattr(obj, key))}")
        lines.append("")
    return "\n".join(lines)

