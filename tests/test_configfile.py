"""Tests for the INI experiment-configuration round trip."""

import configparser
import dataclasses
import json
import re

import numpy as np
import pytest

import scmbench as sb
from scmbench.configfile import config_to_ini, read_config
from scmbench.harness import (_TEXT_FORMS, CONFIG_SECTIONS, RunRecord, _config_echo,
                              _forms)


def write(tmp_path, text: str):
    path = tmp_path / "scmbench.ini"
    path.write_text(text)
    return path


class TestDefaults:
    def test_default_file_round_trips_to_default_config(self, tmp_path):
        path = write(tmp_path, config_to_ini(sb.ExperimentConfig()))
        assert read_config(path) == sb.ExperimentConfig()

    def test_unsupported_annotation_is_a_type_error(self):
        @dataclasses.dataclass(frozen=True)
        class Odd:
            ratio: complex = 1j

        with pytest.raises(TypeError, match=r"Odd\.ratio"):
            _forms(Odd)

    def test_default_text_starts_with_the_header(self):
        text = config_to_ini(sb.ExperimentConfig())
        assert text.startswith("# scmbench experiment configuration\n")
        assert ("# benchmark cells; records follow this order, the table runs from "
                "most to fewest confounders\nconfounder_levels = 0, 1, 2\n") in text

    def test_ini_keys_are_the_report_echo_keys(self):
        # the INI file and report.json's config echo name each value alike
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(config_to_ini(sb.ExperimentConfig()))
        echo = _config_echo(sb.ExperimentConfig())
        for section, attr in CONFIG_SECTIONS.items():
            shown = echo if attr is None else echo[section]
            keys = [k for k in shown if k not in {"fixed_scm", *CONFIG_SECTIONS}]
            assert list(parser[section]) == keys

    def test_ini_keys_are_the_settable_values(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(config_to_ini(sb.ExperimentConfig()))
        assert {section: list(parser[section]) for section in parser.sections()} == {
            "experiment": ["num_dags", "samples_per_env", "confounder_levels", "methods",
                           "master_seed"],
            "generation": ["nodes_min", "nodes_max", "intervention_value_min",
                           "intervention_value_max"],
            "train": ["tau_multiplier"],
            "icp": ["alpha", "test"],
        }

    def test_generation_seed_is_rejected(self, tmp_path):
        path = write(tmp_path, "[generation]\nseed = 7\n")
        with pytest.raises(ValueError, match=r"unknown key 'seed' in \[generation\]"):
            read_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("train", "tau_auto", "false"),
        ("train", "rounds", "3"),
        ("train", "tau", "0.5"),
        ("experiment", "include_observational", "false"),
        ("icp", "max_subset_size", "2"),
        ("train", "lr", "0.01"),
        ("generation", "weight_min", "0.5"),
        ("generation", "weight_max", "2.0"),
        ("generation", "sign_flip_prob", "0.5"),
        ("generation", "noise_std_min", "0.7"),
        ("generation", "noise_std_max", "1.5"),
        ("generation", "min_parents", "2"),
        ("train", "hidden_width", "16"),
        ("train", "holdout_fraction", "0.3"),
        ("train", "learning_rate", "0.01"),
        ("train", "epochs_per_round", "600"),
        ("train", "batch_size", "256"),
        ("train", "calibration_permutations", "64"),
        ("generation", "edge_prob", "0.3"),
        ("icp", "num_permutations", "199"),
        ("icp", "enumeration_budget", "4096"),
    ], ids=["tau_auto", "rounds", "tau", "include_observational", "max_subset_size",
            "lr", "weight_min", "weight_max", "sign_flip_prob", "noise_std_min",
            "noise_std_max", "min_parents", "hidden_width", "holdout_fraction",
            "learning_rate", "epochs_per_round", "batch_size", "calibration_permutations",
            "edge_prob", "num_permutations", "enumeration_budget"])
    def test_removed_key_is_rejected(self, tmp_path, section, key, value):
        path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            read_config(path)
        assert str(info.value) == f"unknown key '{key}' in [{section}]"


class TestRoundTrip:
    def test_custom_config_survives_serialization(self, tmp_path):
        cfg = sb.ExperimentConfig(
            num_dags=7, samples_per_env=321, confounder_levels=(2, 0),
            methods=("icp",), master_seed=99,
            gen=sb.GenConfig(nodes_min=4, nodes_max=6),
            train=sb.TrainConfig(tau_multiplier=2.5),
            icp=sb.IcpConfig(alpha=0.01, test="energy-permutation"))
        path = write(tmp_path, config_to_ini(cfg))
        assert read_config(path) == cfg

    def test_written_lines_have_no_trailing_space(self):
        # every written value has text, so no line ends in "key = "
        for cfg in (sb.ExperimentConfig(),
                    sb.ExperimentConfig(methods=("icp",), confounder_levels=(3,),
                                        icp=sb.IcpConfig(test="energy-permutation"))):
            lines = config_to_ini(cfg).splitlines()
            assert [line for line in lines if line != line.rstrip()] == []
            assert "[icp]" in lines

    def test_every_settable_field_round_trips(self, tmp_path):
        cfg = sb.ExperimentConfig(
            num_dags=7, samples_per_env=321, confounder_levels=(2, 0),
            methods=("icp",), master_seed=99,
            gen=sb.GenConfig(
                nodes_min=4, nodes_max=6, intervention_value_min=-1.5,
                intervention_value_max=2.25),
            train=sb.TrainConfig(tau_multiplier=2.5),
            icp=sb.IcpConfig(alpha=0.01, test="energy-permutation"))
        default = sb.ExperimentConfig()
        echo = _config_echo(cfg)
        not_keys = {"fixed_scm", *CONFIG_SECTIONS.values()}
        settable = 0
        for section, attr in CONFIG_SECTIONS.items():
            if attr is None:
                obj, base, shown = cfg, default, echo
            else:
                obj, base = getattr(cfg, attr), getattr(default, attr)
                shown = echo[section]
            for f in dataclasses.fields(obj):
                if f.name in not_keys:
                    continue
                value = getattr(obj, f.name)
                assert value != getattr(base, f.name), (section, f.name)
                assert json.dumps(shown[f.name]) == json.dumps(value)
                settable += 1
        assert settable == 12
        assert read_config(write(tmp_path, config_to_ini(cfg))) == cfg

    def test_missing_keys_fall_back_to_defaults(self, tmp_path):
        path = write(tmp_path, "[experiment]\nnum_dags = 3\n")
        cfg = read_config(path)
        assert cfg.num_dags == 3
        assert cfg.samples_per_env == sb.ExperimentConfig().samples_per_env
        assert cfg.master_seed == 0

    def test_empty_file_is_all_defaults(self, tmp_path):
        assert read_config(write(tmp_path, "")) == sb.ExperimentConfig()

    def test_floats_may_be_written_as_integers(self, tmp_path):
        path = write(tmp_path, "[generation]\nintervention_value_min = -3\n"
                               "intervention_value_max = 1e+1\n"
                               "[train]\ntau_multiplier = 1e-05\n")
        cfg = read_config(path)
        assert cfg.gen.intervention_value_min == -3.0
        assert cfg.gen.intervention_value_max == 10.0
        assert cfg.train.tau_multiplier == 1e-05


class TestErrors:
    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[experimant]\nnum_dags = 3\n")
        with pytest.raises(ValueError, match=r"unknown section \[experimant\]"):
            read_config(path)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "[train]\ntau_multipler = 3.0\n")
        with pytest.raises(ValueError, match="unknown key 'tau_multipler'"):
            read_config(path)

    def test_malformed_value_names_section_and_key(self, tmp_path):
        path = write(tmp_path, "[train]\ntau_multiplier = fast\n")
        with pytest.raises(ValueError, match=r"\[train\] tau_multiplier"):
            read_config(path)

    @pytest.mark.parametrize("text, where, message", [
        # integers are an optional '-' and ASCII digits, as the writer makes them
        ("[experiment]\nnum_dags = 1_0\n", "[experiment] num_dags",
         "expected an integer, got '1_0'"),
        ("[experiment]\nsamples_per_env = +500\n", "[experiment] samples_per_env",
         "expected an integer, got '+500'"),
        ("[experiment]\nconfounder_levels = 0, \u0661\n",
         "[experiment] confounder_levels", "expected an integer, got '\u0661'"),
        ("[generation]\nnodes_max = 1_0\n", "[generation] nodes_max",
         "expected an integer, got '1_0'"),
        # master_seed is omitted, not left blank, to take its default
        ("[experiment]\nmaster_seed =\n", "[experiment] master_seed",
         "expected an integer, got ''"),
        # the seed is read as strictly as --seed reads it
        ("[experiment]\nmaster_seed = 1_0\n", "[experiment] master_seed",
         "expected an integer, got '1_0'"),
        ("[experiment]\nmaster_seed = +1\n", "[experiment] master_seed",
         "expected an integer, got '+1'"),
        # a constructor's error gains the section and the key
        ("[experiment]\nnum_dags = -1\n", "[experiment] num_dags",
         "num_dags must lie in [1, inf), got -1"),
        ("[experiment]\nmaster_seed = -1\n", "[experiment] master_seed",
         "master_seed must lie in [0, inf), got -1"),
        ("[train]\ntau_multiplier = nan\n", "[train] tau_multiplier",
         "tau_multiplier must lie in (0, inf), got nan"),
        ("[generation]\nnodes_min = 13\n", "[generation] nodes_max",
         "nodes_max must be >= nodes_min"),
        # the default methods hold icp, whose subset budget admits 12 candidates
        ("[generation]\nnodes_max = 14\n", "[experiment] methods",
         "methods include icp, which admits at most 12 candidates (a budget of 4096 "
         "subsets), so nodes_max must be at most 13, got 14"),
        # every model needs two candidates to be its outcome parents
        ("[generation]\nnodes_min = 2\n", "[generation] nodes_min",
         "nodes_min must lie in [3, inf), got 2"),
        # floats are the forms str and repr of a float write, and integers
        ("[train]\ntau_multiplier = 0_0.5\n", "[train] tau_multiplier",
         "expected a number, got '0_0.5'"),
        ("[train]\ntau_multiplier = +1\n", "[train] tau_multiplier",
         "expected a number, got '+1'"),
        ("[train]\ntau_multiplier = infinity\n", "[train] tau_multiplier",
         "expected a number, got 'infinity'"),
        ("[train]\ntau_multiplier = 1E-3\n", "[train] tau_multiplier",
         "expected a number, got '1E-3'"),
        ("[generation]\nintervention_value_min = .5\n",
         "[generation] intervention_value_min", "expected a number, got '.5'"),
        ("[icp]\nalpha = \uff11.0\n", "[icp] alpha",
         "expected a number, got '\uff11.0'"),
        # list values are the items config_to_ini joins, none of them empty
        ("[experiment]\nmethods = iid,\n", "[experiment] methods",
         "expected a comma-separated list, got 'iid,'"),
        ("[experiment]\nconfounder_levels = 0, ,2\n", "[experiment] confounder_levels",
         "expected a comma-separated list, got '0, ,2'"),
        ("[experiment]\nmethods =\n", "[experiment] methods",
         "expected a comma-separated list, got ''"),
    ], ids=["num_dags=1_0", "samples_per_env=+500", "confounder_levels=arabic-1",
            "nodes_max=1_0", "master_seed=blank", "master_seed=1_0",
            "master_seed=+1", "num_dags=-1", "master_seed=-1",
            "tau_multiplier=nan", "nodes_min=13", "nodes_max=14-with-icp", "nodes_min=2",
            "tau_multiplier=0_0.5", "tau_multiplier=+1", "tau_multiplier=infinity", "tau_multiplier=1E-3",
            "intervention_value_min=.5", "alpha=fullwidth-1.0", "methods=iid-comma",
            "confounder_levels=empty-item", "methods=blank"])
    def test_bad_value_names_section_and_key(self, tmp_path, text, where,
                                             message):
        with pytest.raises(ValueError) as info:
            read_config(write(tmp_path, text))
        assert str(info.value) == f"{where}: {message}"

    def test_semantic_error_propagates(self, tmp_path):
        path = write(tmp_path, "[icp]\nalpha = 1.5\n")
        with pytest.raises(ValueError, match="alpha"):
            read_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nnum_dags = 3\n",
        "[DEFAULT]\nnum_dags = 3\n[generation]\nnodes_min = 4\n",
    ], ids=["alone", "beside-generation"])
    def test_default_section_is_unknown(self, tmp_path, text):
        with pytest.raises(ValueError, match=r"^unknown section \[DEFAULT\]$"):
            read_config(write(tmp_path, text))

    @pytest.mark.parametrize("text, message", [
        ("[train]\nTAU_MULTIPLIER = 0.5\n", "unknown key 'TAU_MULTIPLIER' in [train]"),
        ("[experiment]\nNUM_DAGS = 3\n", "unknown key 'NUM_DAGS' in [experiment]"),
    ], ids=["TAU_MULTIPLIER", "NUM_DAGS"])
    def test_keys_are_case_sensitive(self, tmp_path, text, message):
        with pytest.raises(ValueError) as info:
            read_config(write(tmp_path, text))
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[experiment]\nmethods = iid,\n  icp\n",
         r"[experiment] methods: expected a value on one line, got 'iid,\nicp'"),
        ("[experiment]\nconfounder_levels = 0,\n\t2\n",
         r"[experiment] confounder_levels: expected a value on one line, got '0,\n2'"),
    ], ids=["space-indented-icp", "tab-indented-2"])
    def test_indented_continuation_line_is_rejected(self, tmp_path, text, message):
        # configparser would join the indented line onto the value above it
        with pytest.raises(ValueError) as info:
            read_config(write(tmp_path, text))
        assert str(info.value) == message

    def test_keys_take_only_equals(self, tmp_path):
        with pytest.raises(ValueError, match=r"cannot parse config: (?s:.*)"
                                              r"\[line +2\]: 'num_dags: 3"):
            read_config(write(tmp_path, "[experiment]\nnum_dags: 3\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="absent.ini"):
            read_config(tmp_path / "absent.ini")

    def test_unparseable_ini(self, tmp_path):
        path = write(tmp_path, "num_dags = 3\n")  # key before any section
        with pytest.raises(ValueError, match="cannot parse"):
            read_config(path)


CONFIG_CLASSES = (sb.ExperimentConfig, sb.GenConfig, sb.TrainConfig,
                  sb.IcpConfig)
FLOAT_TYPES = ("float",)
INT_TYPES = ("int",)


def numeric_field_cases():
    """(class, field, value) for every value a numeric field must refuse."""
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            values = ((np.nan, np.inf, -np.inf) if f.type in FLOAT_TYPES
                      else (2.5, np.nan, np.inf) if f.type in INT_TYPES
                      else ())
            for value in values:
                yield pytest.param(cls, f.name, value,
                                   id=f"{cls.__name__}.{f.name}={value}")


def finite_end_cases():
    """(class, field, value, interval) just past each finite end of a field's
    declared interval: the end itself if it is open, else the next integer
    (or float) outside it; a tuple field gets a one-entry tuple."""
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            interval = f.metadata.get("interval")
            if interval is None:
                continue
            integer = f.type.startswith(("int", "tuple[int"))
            lo, hi = (float(end) for end in interval[1:-1].split(","))
            for end, open_end, outward in ((lo, interval[0] == "(", -1),
                                           (hi, interval[-1] == ")", 1)):
                if np.isinf(end):
                    continue
                value = (end if open_end else end + outward if integer
                         else float(np.nextafter(end, outward * np.inf)))
                value = int(value) if integer else value
                yield pytest.param(cls, f.name, (value,) if f.type.startswith("tuple")
                                   else value, interval,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


class TestDeclaredRanges:
    """A numeric config field added without a declared range fails here."""

    def test_every_field_type_is_known(self):
        types = {f.type for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)}
        assert types - {*FLOAT_TYPES, *INT_TYPES} <= {
            "bool", "str", "tuple[int, ...]", "tuple[str, ...]", "GenConfig",
            "TrainConfig", "IcpConfig", "LinearGaussianScm | None"}

    @pytest.mark.parametrize("cls, name", [(sb.ExperimentConfig, "num_dags"),
                                           (sb.GenConfig, "nodes_min")])
    def test_bool_is_not_an_integer(self, cls, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            cls(**{name: True})

    @pytest.mark.parametrize("cls, name", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in CONFIG_CLASSES for f in dataclasses.fields(cls) if f.type in FLOAT_TYPES])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_bool_or_text_is_not_a_number(self, cls, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {value!r}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name, value, interval", finite_end_cases())
    def test_value_past_a_finite_end_names_the_field(self, cls, name, value, interval):
        entry = value[0] if isinstance(value, tuple) else value
        with pytest.raises(ValueError, match=f"^{name} must lie in {re.escape(interval)}, "
                                             f"got {re.escape(repr(entry))}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name, value", numeric_field_cases())
    def test_nonfinite_or_fractional_value_names_the_field(self, cls, name,
                                                           value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            cls(**{name: value})


class TestTextForms:
    """config.ini and records.csv spell every value through one table."""

    SAMPLES = {
        "int": (0, -3, 12), "float": (0.1, -2.5e-07, 1e300, np.inf, 3),
        "str": ("iid", "mean-variance"), "bool": (True, False),
        "tuple[int, ...]": ((2, 0), (7,)), "tuple[str, ...]": (("iid", "icp"),),
        "frozenset[int]": (frozenset(), frozenset({3, 1, 10})),
    }

    def test_every_record_and_settable_config_field_has_a_text_form(self):
        not_keys = {"fixed_scm", *CONFIG_SECTIONS.values()}
        walked = [(cls, f) for cls in (RunRecord, *CONFIG_CLASSES)
                  for f in dataclasses.fields(cls) if f.name not in not_keys]
        assert len(walked) == 8 + 12
        for cls, f in walked:
            assert f.type in _TEXT_FORMS, f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("annotation", list(SAMPLES))
    def test_every_form_round_trips(self, annotation):
        assert set(self.SAMPLES) == set(_TEXT_FORMS)
        fmt, parse = _TEXT_FORMS[annotation]
        for value in self.SAMPLES[annotation]:
            assert parse(fmt(value)) == value

    def test_node_sets_are_written_sorted(self):
        fmt, _ = _TEXT_FORMS["frozenset[int]"]
        assert fmt(frozenset({10, 3, 1})) == "1|3|10"
        assert fmt(frozenset()) == ""
