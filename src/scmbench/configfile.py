"""Plain-text (INI) experiment configuration: flat key = value sections."""

from __future__ import annotations

import configparser
from typing import Any, Callable

from .harness import ExperimentConfig
from .icp import IcpConfig
from .identifier import TrainConfig
from .scm import GenConfig


class ConfigError(ValueError):
    """Unreadable or invalid configuration file."""


_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False, "on": True, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return tuple(items)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _parse_str_list(text))


def _optional(parser: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        return None if text.strip() == "" else parser(text)
    return parse


# section -> key -> (dataclass field, parser)
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {
    "experiment": {
        "num_dags": ("num_dags", int),
        "samples_per_env": ("samples_per_env", int),
        "confounder_levels": ("confounder_levels", _parse_int_list),
        "methods": ("methods", _parse_str_list),
        "master_seed": ("master_seed", int),
        "include_observational": ("include_observational", _parse_bool),
    },
    "generation": {
        "nodes_min": ("nodes_min", int),
        "nodes_max": ("nodes_max", int),
        "edge_prob": ("edge_prob", float),
        "weight_min": ("weight_min", float),
        "weight_max": ("weight_max", float),
        "sign_flip_prob": ("sign_flip_prob", float),
        "noise_std_min": ("noise_std_min", float),
        "noise_std_max": ("noise_std_max", float),
        "intervention_value_min": ("intervention_value_min", float),
        "intervention_value_max": ("intervention_value_max", float),
        "min_parents": ("min_parents", int),
    },
    "train": {
        "hidden_width": ("hidden_width", int),
        "lr": ("learning_rate", float),
        "epochs_per_round": ("epochs_per_round", int),
        "batch_size": ("batch_size", int),
        "rounds": ("rounds", _optional(int)),
        "holdout_fraction": ("holdout_fraction", float),
        "tau": ("tau", float),
        "tau_auto": ("tau_auto", _parse_bool),
        "tau_multiplier": ("tau_multiplier", float),
        "calibration_permutations": ("calibration_permutations", int),
    },
    "icp": {
        "alpha": ("alpha", float),
        "max_subset_size": ("max_subset_size", _optional(int)),
        "test": ("test", str.strip),
        "num_permutations": ("num_permutations", int),
        "enumeration_budget": ("enumeration_budget", int),
    },
}

# comment lines written above a key; the dataclasses hold every default
_HEADER = "# scmbench experiment configuration"
_COMMENTS = {
    ("experiment", "confounder_levels"): "benchmark cells, in report column order",
    ("experiment", "master_seed"):
        "omit master_seed to fall back to the WORKBENCH_SEED environment variable",
    ("train", "rounds"): "blank means one round per candidate",
    ("icp", "max_subset_size"): "blank means unlimited subset size",
}


def write_default_config(path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_ini(ExperimentConfig()))


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
            try:
                values[section][field_name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

    master_seed_present = "master_seed" in values["experiment"]
    try:
        gen = GenConfig(**values["generation"])
        train = TrainConfig(**values["train"])
        icp = IcpConfig(**values["icp"])
        cfg = ExperimentConfig(gen=gen, train=train, icp=icp,
                               **values["experiment"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, master_seed_present


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize a config to the INI layout that read_config parses."""
    sources = {
        "experiment": cfg,
        "generation": cfg.gen,
        "train": cfg.train,
        "icp": cfg.icp,
    }
    lines = [_HEADER, ""]
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        obj = sources[section]
        for key, (field_name, _) in schema.items():
            if (section, key) in _COMMENTS:
                lines.append(f"# {_COMMENTS[section, key]}")
            value = getattr(obj, field_name)
            if value is None:
                text = ""
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ", ".join(str(v) for v in value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}".rstrip())
        lines.append("")
    return "\n".join(lines)

