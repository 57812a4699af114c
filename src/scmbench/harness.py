"""Reproducible benchmark sweep: DAGs x confounder levels x methods.

Every random draw derives from (master_seed, dag_id, purpose tag, level), so
any execution order, worker count, or subset of cells reproduces identical
numbers. Both methods in a cell consume the same sampled batches, which are
read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import time
from types import MappingProxyType
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from itertools import zip_longest

import numpy as np

from . import icp as _icp
from .icp import IcpConfig, icp_identify
from .identifier import TrainConfig, identify_parents
from .scm import (Environment, GenConfig, LinearGaussianScm, SampleBatch,
                  _bounded, _check_bound, _check_bounds, add_confounders,
                  parents, random_scm, sample)

KNOWN_METHODS = ("iid", "icp")
# INI section -> the ExperimentConfig field holding its settings (None: the
# experiment's own fields); report.json's config echo uses the same names
CONFIG_SECTIONS = {"experiment": None, "generation": "gen", "train": "train",
                   "icp": "icp"}

# purpose tags for seed derivation
_TAG_SCM = 1
_TAG_CONFOUND = 2
_TAG_ENV = 3
_TAG_SAMPLE = 4
_TAG_IID = 5
_TAG_ICP = 6


@dataclass(frozen=True)
class ExperimentConfig:
    num_dags: int = _bounded(50, "[1, inf)")
    samples_per_env: int = _bounded(2000, "[10, inf)")
    confounder_levels: tuple[int, ...] = _bounded((0, 1, 2), "[0, inf)")
    methods: tuple[str, ...] = ("iid", "icp")
    master_seed: int = _bounded(0, "[0, inf)")
    gen: GenConfig = field(default_factory=GenConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)
    fixed_scm: LinearGaussianScm | None = None

    def __post_init__(self) -> None:
        _check_bounds(self)
        for name in ("confounder_levels", "methods"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be non-empty and unique")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ValueError(f"methods must be among {KNOWN_METHODS}, "
                             f"got {sorted(unknown)}")
        # the most candidates whose 2^n subsets fit icp's budget, as it stands now
        most = _icp._SUBSET_BUDGET.bit_length() - 1
        if "icp" in self.methods and self.gen.nodes_max - 1 > most:
            raise ValueError(f"methods include icp, which admits at most {most} candidates "
                             f"(a budget of {_icp._SUBSET_BUDGET} subsets), so nodes_max "
                             f"must be at most {most + 1}, got {self.gen.nodes_max}")


@dataclass(frozen=True)
class RunRecord:
    """One cell's outcome; it checks itself as records.csv rows are checked."""

    dag_id: int = _bounded(MISSING, "[0, inf)")
    method: str
    confounders: int = _bounded(MISSING, "[0, inf)")
    z: frozenset[int] = _bounded(MISSING, "[0, inf)")
    pa0: frozenset[int] = _bounded(MISSING, "[0, inf)")
    js: float
    violated: bool
    wall_time: float = _bounded(MISSING, "[0, inf)")

    def __post_init__(self) -> None:
        _check_bounds(self)
        if self.method not in KNOWN_METHODS:
            raise ValueError(f"method must be one of {KNOWN_METHODS}, "
                             f"got {self.method!r}")
        # repr(float) round-trips, so a row the writer made matches exactly;
        # js=True and violated=0 compare equal but are written as 1.0 and false
        for name, implied in (("js", jaccard(self.z, self.pa0)),
                              ("violated", not self.z <= self.pa0)):
            value = getattr(self, name)
            if not isinstance(value, type(implied)) or value != implied:
                raise ValueError(f"{name} must be {implied!r}, as z and pa0 "
                                 f"give, got {value!r}")


@dataclass(frozen=True, eq=False)
class Report:
    """A sweep's outcome; report.json holds every field but ``records``."""

    master_seed: int
    config_hash: str
    config: dict
    cells: dict
    errors: tuple[dict, ...]
    timestamp: str
    records: tuple[RunRecord, ...]


def jaccard(z: frozenset[int], pa0: frozenset[int]) -> float:
    """|intersection| / |union|, with two empty sets scoring 1.0."""
    if not z and not pa0:
        return 1.0
    return len(z & pa0) / len(z | pa0)


def _rng(master_seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, *keys)))


def environments_for(scm: LinearGaussianScm, gen: GenConfig,
                     rng: np.random.Generator) -> list[Environment]:
    """One clamp environment per candidate, in node order, each with a value
    drawn once from the intervention range."""
    return [Environment(id=j, value=float(rng.uniform(gen.intervention_value_min,
                                                      gen.intervention_value_max)))
            for j in range(1, scm.num_observed)]


def _run_method(method: str, batches: list[SampleBatch], cfg: ExperimentConfig,
                dag_id: int, level: int) -> frozenset[int]:
    if method == "iid":
        rng = _rng(cfg.master_seed, dag_id, _TAG_IID, level)
        return identify_parents(batches, cfg.train, rng).estimated_set
    icp_seed = int(_rng(cfg.master_seed, dag_id, _TAG_ICP, level).integers(0, 2 ** 32))
    return icp_identify(batches, cfg.icp, seed=icp_seed).estimated_set


def _dag_task(args: tuple[ExperimentConfig, int]) -> tuple[list[RunRecord], list[dict]]:
    cfg, dag_id = args
    records: list[RunRecord] = []
    errors: list[dict] = []

    def fail(level: int, methods: tuple[str, ...], exc: Exception, stage: str = "") -> None:
        for method in methods:
            errors.append({"dag_id": dag_id, "method": method, "confounders": level,
                           "error": f"{stage}{type(exc).__name__}: {exc}"})

    try:
        if cfg.fixed_scm is not None:
            base = cfg.fixed_scm
        else:
            base = random_scm(cfg.gen, _rng(cfg.master_seed, dag_id, _TAG_SCM))
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        for level in cfg.confounder_levels:
            fail(level, cfg.methods, exc, "generation: ")
        return records, errors

    for level in cfg.confounder_levels:
        try:
            scm_l = add_confounders(base, level,
                                    _rng(cfg.master_seed, dag_id, _TAG_CONFOUND, level))
            envs = environments_for(scm_l, cfg.gen,
                                    _rng(cfg.master_seed, dag_id, _TAG_ENV, level))
            sample_rng = _rng(cfg.master_seed, dag_id, _TAG_SAMPLE, level)
            batches = [sample(scm_l, env, cfg.samples_per_env, sample_rng)
                       for env in envs]
            pa0 = parents(scm_l, 0)
        except Exception as exc:  # noqa: BLE001
            fail(level, cfg.methods, exc, "setup: ")
            continue
        for method in cfg.methods:
            start = time.perf_counter()
            try:
                z = _run_method(method, batches, cfg, dag_id, level)
            except Exception as exc:  # noqa: BLE001
                fail(level, (method,), exc)
                continue
            wall = time.perf_counter() - start
            records.append(RunRecord(
                dag_id=dag_id, method=method, confounders=level,
                z=z, pa0=pa0, js=jaccard(z, pa0),
                violated=not z <= pa0, wall_time=wall))
    return records, errors


def aggregate_cells(records: list[RunRecord] | tuple[RunRecord, ...],
                    methods: tuple[str, ...], levels: tuple[int, ...]) -> dict:
    """Per-(method, level) mean_js, sd_js (ddof=1), fwer, and record count."""
    cells: dict = {}
    for method in methods:
        cells[method] = {}
        for level in levels:
            cell = [r for r in records if r.method == method and r.confounders == level]
            if not cell:
                cells[method][level] = {"mean_js": None, "sd_js": None,
                                        "fwer": None, "n": 0}
                continue
            js = np.array([r.js for r in cell])
            sd = float(js.std(ddof=1)) if js.size > 1 else 0.0
            cells[method][level] = {
                "mean_js": float(js.mean()),
                "sd_js": sd,
                "fwer": sum(r.violated for r in cell) / len(cell),
                "n": len(cell),
            }
    return cells


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Every field in order; nested configs under their section names, and a
    fixed model as its node counts."""
    sections = {attr: name for name, attr in CONFIG_SECTIONS.items() if attr}
    echo = {sections.get(k, k): v for k, v in dataclasses.asdict(cfg).items()}
    if cfg.fixed_scm is not None:
        echo["fixed_scm"] = {"num_observed": cfg.fixed_scm.num_observed,
                             "num_latent": cfg.fixed_scm.num_latent}
    return echo


def _check_threads(threads) -> None:
    """Check the worker-process count, which never changes the numbers."""
    _check_bound("threads", threads, "[1, inf)", integer=True)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Run the full sweep on min(threads, num_dags) worker processes; cell
    failures land in Report.errors instead of aborting. Records and errors
    come in (dag, level, method) order with levels and methods as configured,
    because pool.map keeps task order and _dag_task appends in that order."""
    _check_threads(threads)
    tasks = [(cfg, dag_id) for dag_id in range(cfg.num_dags)]
    workers = min(threads, cfg.num_dags)
    if workers == 1:
        outcomes = [_dag_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_dag_task, tasks))

    records = [r for recs, _ in outcomes for r in recs]
    errors = [e for _, errs in outcomes for e in errs]
    echo = _config_echo(cfg)
    config_hash = hashlib.sha256(
        json.dumps(echo, sort_keys=True).encode()).hexdigest()
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return Report(
        records=tuple(records),
        cells=aggregate_cells(records, cfg.methods, cfg.confounder_levels),
        errors=tuple(errors),
        config=echo,
        master_seed=cfg.master_seed,
        config_hash=config_hash,
        timestamp=timestamp,
    )


@contextmanager
def _blaming(where: str):
    """Re-raise a ValueError with ``where`` in front."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse_int(text: str) -> int:
    """The one reader of integers from outside the program: an optional '-'
    and ASCII digits (int() would also take '+1', ' 1', '1_0', '\u0661')."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_float(text: str) -> float:
    """The one reader of floats from outside the program: the forms str and
    repr of a float write, and integers (float() would also take '+1', '.5',
    '1E-3', '1_0.5', 'infinity', '\uff11.0')."""
    if not re.fullmatch(r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf)|nan", text):
        raise ValueError(f"expected a number, got {text!r}")
    return float(text)


_BOOLS = {"true": True, "false": False}


def _parse_bool(text: str) -> bool:
    if text not in _BOOLS:
        raise ValueError(f"expected one of {list(_BOOLS)}, got {text!r}")
    return _BOOLS[text]


def _parse_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(","))
    if not all(items):
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


# field annotation (a string: the modules postpone them) -> (format, parse):
# the one text form of a value, in config.ini and in records.csv alike
_TEXT_FORMS = {
    "int": (str, _parse_int),
    "float": (lambda v: repr(float(v)), _parse_float),
    "str": (str, str),
    "bool": ({v: t for t, v in _BOOLS.items()}.__getitem__, _parse_bool),
    "tuple[int, ...]": (lambda v: ", ".join(map(str, v)),
                        lambda text: tuple(map(_parse_int, _parse_list(text)))),
    "tuple[str, ...]": (", ".join, _parse_list),
    # a node set, as records.csv writes z and pa0
    "frozenset[int]": (lambda v: "|".join(map(str, sorted(v))),
                       lambda text: frozenset(map(_parse_int, text.split("|")))
                       if text else frozenset()),
}


@functools.cache
def _forms(cls: type) -> MappingProxyType:
    """Field name -> (format, parse) of the text form of each field of
    ``cls`` but the fixed model and the nested config sections, which have
    none; read-only, as every caller shares it."""
    skipped = {"fixed_scm", *filter(None, CONFIG_SECTIONS.values())}
    forms = {}
    for f in dataclasses.fields(cls):
        if f.name in skipped:
            continue
        if f.type not in _TEXT_FORMS:
            raise TypeError(f"{cls.__name__}.{f.name}: no text form for {f.type!r}")
        forms[f.name] = _TEXT_FORMS[f.type]
    return MappingProxyType(forms)


def _to_text(obj) -> dict[str, str]:
    """Field name -> the text of its value, for every field with a text form."""
    return {name: fmt(getattr(obj, name)) for name, (fmt, _) in _forms(type(obj)).items()}


def _from_text(cls: type, texts: dict[str, str], where, **given):
    """cls(**given, **parsed texts). A ValueError from parsing a text, or from
    the constructor about the field its message starts with, is re-raised
    with where(field) in front."""
    forms = _forms(cls)
    values = {}
    for name, text in texts.items():
        with _blaming(where(name)):
            values[name] = forms[name][1](text)
    try:
        return cls(**given, **values)
    except ValueError as exc:
        raise ValueError(f"{where(str(exc).split(' ', 1)[0])}: {exc}") from exc


CSV_HEADER = ",".join(_forms(RunRecord))


def write_records_csv(records, path) -> None:
    rows = [",".join(_to_text(r).values()) for r in records]
    with open(path, "w") as fh:
        fh.write("\n".join([CSV_HEADER, *rows]) + "\n")


def read_records_csv(path) -> list[RunRecord]:
    """Parse a records CSV. A blank line, a value it cannot parse or that
    write_records_csv would spell otherwise, a row RunRecord refuses, or a
    second row for one (dag_id, method, confounders) cell raises ValueError
    naming the line (and the column)."""
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1)]
    if not lines:
        raise ValueError("empty CSV: expected a header line")
    if blank := [no for no, ln in lines if not ln.strip()]:
        raise ValueError(f"line {blank[0]}: blank line")
    want = CSV_HEADER.split(",")
    got = lines[0][1].split(",")
    for i, (name, found) in enumerate(zip_longest(want, got)):
        if name != found:  # None pads the shorter list; split never yields it
            name, found = ("absent" if name is None else repr(name),
                           "nothing" if found is None else repr(found))
            raise ValueError(f"header column {i} should be {name}, found {found}")
    records = []
    cells: dict[tuple, int] = {}
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(want):
            raise ValueError(f"line {no}: malformed record line: {ln!r}")
        record = _from_text(RunRecord, dict(zip(want, parts)),
                            lambda name: f"line {no}, column '{name}'")
        for name, text, written in zip(want, parts, _to_text(record).values()):
            if text != written:
                raise ValueError(f"line {no}, column '{name}': expected {written!r}, "
                                 f"as the writer spells it, got {text!r}")
        first = cells.setdefault((record.dag_id, record.method, record.confounders), no)
        if first != no:
            raise ValueError(f"line {no}: dag_id, method and confounders "
                             f"repeat line {first}")
        records.append(record)
    return records


def write_report_json(report: Report, path) -> None:
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if f.name != "records"}
    with open(path, "w") as fh:
        json.dump(fields, fh, indent=2)
        fh.write("\n")
