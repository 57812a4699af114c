"""Plain-text (INI) experiment configuration: flat key = value sections."""

from __future__ import annotations

import configparser
from typing import Any

from .harness import CONFIG_SECTIONS, ExperimentConfig, _forms, _from_text, _to_text


def _sections(cfg: ExperimentConfig) -> dict[str, Any]:
    """INI section -> the config object that holds its values."""
    return {section: cfg if attr is None else getattr(cfg, attr)
            for section, attr in CONFIG_SECTIONS.items()}


_CLASSES = {section: type(obj)
            for section, obj in _sections(ExperimentConfig()).items()}

# comment lines written above a key; the dataclasses hold every default
_HEADER = "# scmbench experiment configuration"
_COMMENTS = {
    ("experiment", "confounder_levels"): ("benchmark cells; records follow this order, "
                                          "the table runs from most to fewest confounders"),
}


def read_config(path) -> ExperimentConfig:
    """Parse a config file.

    Missing sections or keys fall back to defaults. Unknown sections (no
    header names "", so [DEFAULT] is one), unknown keys (case-sensitive, set
    with '='), values continued on an indented line and malformed values
    raise ValueError naming the offender.
    """
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",),
                                       default_section="")
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:  # not a ValueError
        raise ValueError(f"cannot parse config: {exc}") from exc

    texts: dict[str, dict[str, str]] = {section: {} for section in _CLASSES}
    for section in parser.sections():
        if section not in texts:
            raise ValueError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _forms(_CLASSES[section]):
                raise ValueError(f"unknown key '{key}' in [{section}]")
            # configparser joins an indented line onto the value above
            if "\n" in raw:
                raise ValueError(f"[{section}] {key}: expected a value on one "
                                 f"line, got {raw!r}")
            texts[section][key] = raw

    def build(section: str, **given: Any) -> Any:
        return _from_text(_CLASSES[section], texts[section],
                          lambda key: f"[{section}] {key}", **given)

    return build("experiment", **{attr: build(section)
                                  for section, attr in CONFIG_SECTIONS.items() if attr})


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize a config to the INI layout that read_config parses back
    equal. A config with a fixed_scm raises ValueError: an INI file has no
    key for the model, and always draws random ones."""
    if cfg.fixed_scm is not None:
        raise ValueError("fixed_scm cannot be written to an INI file, which "
                         "always draws random models")
    lines = [_HEADER, ""]
    for section, obj in _sections(cfg).items():
        lines.append(f"[{section}]")
        for key, text in _to_text(obj).items():
            if (section, key) in _COMMENTS:
                lines.append(f"# {_COMMENTS[section, key]}")
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)

