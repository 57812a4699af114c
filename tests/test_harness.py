"""Tests for the benchmark sweep harness and its metrics."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scmbench as sb
from scmbench import harness, icp, identifier
from scmbench import scm as scm_module

node_sets = st.frozensets(st.integers(0, 8), max_size=6)


def record(dag_id=0, method="iid", confounders=0, z=frozenset({1}),
           pa0=frozenset({1}), wall_time=0.1):
    return harness.RunRecord(dag_id=dag_id, method=method, confounders=confounders,
                             z=z, pa0=pa0, js=harness.jaccard(z, pa0),
                             violated=not z <= pa0, wall_time=wall_time)


class TestJaccard:
    @pytest.mark.parametrize("z, pa0, expected", [
        ({1, 2}, {2, 3}, 1.0 / 3.0),
        ({1, 2}, {1, 2}, 1.0),
        ({1}, set(), 0.0),
        (set(), set(), 1.0),
        ({1}, {1, 2}, 0.5),
    ])
    def test_hand_computed_values(self, z, pa0, expected):
        assert harness.jaccard(frozenset(z), frozenset(pa0)) == expected

    @given(a=node_sets, b=node_sets)
    def test_bounds_symmetry_and_identity(self, a, b):
        js = harness.jaccard(a, b)
        assert 0.0 <= js <= 1.0
        assert js == harness.jaccard(b, a)
        assert (js == 1.0) == (a == b)


class TestFwer:
    def test_hand_computed_values(self):
        def fwer(records):
            return harness.aggregate_cells(records, ("iid",), (0,))["iid"][0]["fwer"]

        clean = [record(dag_id=i) for i in range(4)]
        assert fwer(clean) == 0.0
        dirty = [record(dag_id=i, z=frozenset({1, 3})) for i in range(4)]
        assert fwer(dirty) == 1.0
        five_of_fifty = ([record(dag_id=i, z=frozenset({1, 3})) for i in range(5)]
                         + [record(dag_id=i) for i in range(5, 50)])
        assert fwer(five_of_fifty) == 0.1


class TestEnvironmentsFor:
    def test_one_clamp_per_candidate(self):
        scm = sb.four_node_demo_scm()
        gen = sb.GenConfig()
        envs = sb.environments_for(scm, gen, np.random.default_rng(0))
        assert [e.id for e in envs] == [1, 2, 3]
        # one scalar draw per environment, in node order
        draws = np.random.default_rng(0).uniform(3.0, 7.0, size=3)
        assert [e.value for e in envs] == draws.tolist()

    @pytest.mark.parametrize("confounders", [0, 1, 2])
    def test_ids_are_the_observed_candidates_once_each(self, confounders):
        # latent confounders get no environment: identify_parents takes ids 1..l
        gen = sb.GenConfig(nodes_min=5, nodes_max=7)
        draw = np.random.default_rng(30 + confounders)
        scm = sb.add_confounders(sb.random_scm(gen, draw), confounders, draw)
        envs = sb.environments_for(scm, gen, draw)
        assert [e.id for e in envs] == list(range(1, scm.num_observed))
        assert all(e.value is not None for e in envs)

    def test_determinism(self):
        scm = sb.four_node_demo_scm()
        a = sb.environments_for(scm, sb.GenConfig(), np.random.default_rng(4))
        b = sb.environments_for(scm, sb.GenConfig(), np.random.default_rng(4))
        assert a == b


class TestAggregateCells:
    def test_hand_computed_aggregates(self):
        records = [
            record(dag_id=0, z=frozenset({1})),
            record(dag_id=1, z=frozenset({1, 3})),
            record(dag_id=0, method="icp", z=frozenset()),
        ]
        cells = harness.aggregate_cells(records, methods=("iid", "icp"), levels=(0,))
        iid = cells["iid"][0]
        assert iid["n"] == 2
        assert iid["mean_js"] == pytest.approx((1.0 + 0.5) / 2.0)
        assert iid["sd_js"] == pytest.approx(float(np.std([1.0, 0.5], ddof=1)))
        assert iid["fwer"] == 0.5
        icp = cells["icp"][0]
        assert icp == {"mean_js": 0.0, "sd_js": 0.0, "fwer": 0.0, "n": 1}

    def test_empty_cell_reports_zero_count(self):
        cells = harness.aggregate_cells([record()], methods=("iid",), levels=(0, 1))
        assert cells["iid"][1] == {"mean_js": None, "sd_js": None,
                                   "fwer": None, "n": 0}


class TestRunExperiment:
    def small_config(self, **overrides):
        base = dict(num_dags=2, samples_per_env=400, confounder_levels=(0,),
                    methods=("iid", "icp"), master_seed=11,
                    gen=sb.GenConfig(nodes_min=5, nodes_max=6))
        base.update(overrides)
        return sb.ExperimentConfig(**base)

    def test_fixed_scm_recovers_the_demo_answer(self):
        cfg = sb.ExperimentConfig(num_dags=1, samples_per_env=2000,
                                  confounder_levels=(0,), methods=("iid", "icp"),
                                  master_seed=0, fixed_scm=sb.four_node_demo_scm())
        report = sb.run_experiment(cfg)
        assert len(report.records) == 2
        for rec in report.records:
            assert rec.pa0 == {1, 2}
            assert rec.z == {1, 2}
            assert rec.js == 1.0
            assert not rec.violated
        for method in ("iid", "icp"):
            assert report.cells[method][0] == {"mean_js": 1.0, "sd_js": 0.0,
                                               "fwer": 0.0, "n": 1}

    def test_record_fields_are_mutually_consistent(self):
        report = sb.run_experiment(self.small_config())
        assert report.records, "expected records"
        for rec in report.records:
            assert rec.js == harness.jaccard(rec.z, rec.pa0)
            assert rec.violated == (not rec.z <= rec.pa0)
            assert rec.wall_time >= 0.0

    def test_records_are_sorted_and_complete(self):
        cfg = self.small_config(confounder_levels=(0, 1))
        report = sb.run_experiment(cfg)
        keys = [(r.dag_id, r.confounders, r.method) for r in report.records]
        expected = [(d, lvl, m) for d in range(2) for lvl in (0, 1)
                    for m in ("iid", "icp")]
        assert keys == expected
        assert report.errors == ()

    @staticmethod
    def body(report):
        return ([(r.dag_id, r.method, r.confounders, r.z, r.pa0, r.js,
                  r.violated) for r in report.records],
                report.cells, report.config_hash, report.master_seed)

    def test_reruns_are_identical(self):
        cfg = self.small_config()
        assert self.body(sb.run_experiment(cfg)) == self.body(sb.run_experiment(cfg))

    def test_worker_count_does_not_change_results(self):
        cfg = self.small_config(confounder_levels=(0, 1))
        serial = sb.run_experiment(cfg, threads=1)
        parallel = sb.run_experiment(cfg, threads=2)
        assert self.body(serial) == self.body(parallel)

    def test_master_seed_changes_the_hash_and_results(self):
        a = sb.run_experiment(self.small_config(master_seed=1))
        b = sb.run_experiment(self.small_config(master_seed=2))
        assert a.config_hash != b.config_hash
        assert self.body(a) != self.body(b)

    def test_failed_cells_are_collected_not_raised(self, monkeypatch):
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.0)
        cfg = self.small_config(confounder_levels=(0, 1))
        report = sb.run_experiment(cfg)
        assert report.records == ()
        assert len(report.errors) == 8  # 2 dags x 2 levels x 2 methods
        for err in report.errors:
            assert set(err) == {"dag_id", "method", "confounders", "error"}
            assert err["error"].startswith("generation: GenerationError: ")
        assert report.cells["iid"][0]["n"] == 0

    def test_errors_come_in_dag_level_method_order_from_workers(self, monkeypatch):
        # the workers see the patch because Python 3.11 on Linux starts them with
        # fork, which copies this process's modules
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.0)
        cfg = self.small_config(confounder_levels=(0, 1))
        report = sb.run_experiment(cfg, threads=2)
        keys = [(e["dag_id"], e["confounders"], e["method"]) for e in report.errors]
        assert keys == [(d, lvl, m) for d in range(2) for lvl in (0, 1)
                        for m in ("iid", "icp")]

    def test_a_diverged_training_names_its_exception_type(self, monkeypatch):
        # a step size of 1e200 is inf in the float32 step, so the second
        # update's loss is not finite
        monkeypatch.setattr(identifier, "_STEP_SIZE", 1e200)
        cfg = sb.ExperimentConfig(num_dags=1, samples_per_env=400,
                                  confounder_levels=(0,), methods=("iid", "icp"),
                                  fixed_scm=sb.four_node_demo_scm())
        with np.errstate(over="ignore", invalid="ignore"):
            report = sb.run_experiment(cfg)
        assert report.errors == ({"dag_id": 0, "method": "iid", "confounders": 0,
                                  "error": "TrainingDivergedError: non-finite loss at step 2"},)
        assert [r.method for r in report.records] == ["icp"]

    @pytest.mark.parametrize("exc, error", [
        (ValueError("bad batch"), "ValueError: bad batch"),
        (np.linalg.LinAlgError("Singular matrix"), "LinAlgError: Singular matrix"),
        (sb.TrainingDivergedError("non-finite loss"),
         "TrainingDivergedError: non-finite loss"),
        (KeyError(3), "KeyError: 3"),
    ], ids=["ValueError", "LinAlgError", "TrainingDivergedError", "KeyError"])
    def test_a_method_failure_names_its_exception_type(self, monkeypatch, exc, error):
        def failing(batches, train_cfg, rng):
            raise exc

        monkeypatch.setattr(sb.harness, "identify_parents", failing)
        report = sb.run_experiment(self.small_config(num_dags=1))
        assert report.errors == ({"dag_id": 0, "method": "iid", "confounders": 0,
                                  "error": error},)
        assert [r.method for r in report.records] == ["icp"]

    def test_a_method_writing_into_a_batch_fails_only_its_own_cell(self, monkeypatch):
        cfg = sb.ExperimentConfig(num_dags=1, samples_per_env=400,
                                  confounder_levels=(0,), methods=("iid", "icp"),
                                  master_seed=0, fixed_scm=sb.four_node_demo_scm())
        clean = sb.run_experiment(cfg)
        real = harness.identify_parents

        def mutating(batches, train_cfg, rng):
            batches[0].data[0, 0] += 1.0
            return real(batches, train_cfg, rng)

        monkeypatch.setattr(sb.harness, "identify_parents", mutating)
        report = sb.run_experiment(cfg)

        def masked(records):
            return [dataclasses.replace(r, wall_time=0.0) for r in records]

        assert [(e["method"], e["confounders"]) for e in report.errors] == [("iid", 0)]
        assert "read-only" in report.errors[0]["error"]
        assert masked(report.records) == masked(
            r for r in clean.records if r.method == "icp")

    def test_a_setup_failure_fails_every_method_at_its_level_only(self, monkeypatch):
        cfg = self.small_config(confounder_levels=(0, 1, 2))
        clean = sb.run_experiment(cfg)
        real = harness.sample

        def failing(scm, env, n, rng):
            if scm.num_latent == 1:
                raise RuntimeError("no rows at one confounder")
            return real(scm, env, n, rng)

        monkeypatch.setattr(sb.harness, "sample", failing)
        report = sb.run_experiment(cfg)
        assert [(e["dag_id"], e["confounders"], e["method"], e["error"])
                for e in report.errors] == [
            (d, 1, m, "setup: RuntimeError: no rows at one confounder")
            for d in range(2) for m in ("iid", "icp")]
        assert ([dataclasses.replace(r, wall_time=0.0) for r in report.records]
                == [dataclasses.replace(r, wall_time=0.0) for r in clean.records
                    if r.confounders != 1])

    @pytest.mark.parametrize("threads, num_dags, workers", [
        (1, 3, None), (8, 1, None), (2, 3, 2), (8, 6, 6), (500, 50, 50)])
    def test_never_starts_more_workers_than_dags(self, monkeypatch, threads, num_dags,
                                                 workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(sb.harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sb.harness, "_dag_task", lambda task: ([], []))
        sb.run_experiment(self.small_config(num_dags=num_dags), threads=threads)
        assert started == ([] if workers is None else [workers])

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="threads"):
            sb.run_experiment(self.small_config(), threads=0)


class TestExperimentConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(num_dags=0),
        dict(samples_per_env=5),
        dict(confounder_levels=()),
        dict(confounder_levels=(0, 0)),
        dict(confounder_levels=(-1,)),
        dict(methods=()),
        dict(methods=("iid", "iid")),
        dict(methods=("gradient-boosting",)),
        dict(master_seed=-1),
        dict(confounder_levels=(1.5,)),
    ])
    def test_rejects_bad_values(self, overrides):
        (field,) = overrides
        with pytest.raises(ValueError, match=f"^{field} must"):
            sb.ExperimentConfig(**overrides)

    @pytest.mark.parametrize("methods, nodes_max", [
        (("iid", "icp"), 13), (("icp",), 13), (("iid",), 14)],
        ids=["iid+icp-13", "icp-13", "iid-14"])
    def test_accepts_models_icp_can_enumerate(self, methods, nodes_max):
        gen = sb.GenConfig(nodes_min=3, nodes_max=nodes_max)
        assert sb.ExperimentConfig(methods=methods, gen=gen).gen.nodes_max == nodes_max

    @pytest.mark.parametrize("budget, nodes_max, message", [
        (4096, 14, "at most 12 candidates (a budget of 4096 subsets), so nodes_max "
                   "must be at most 13, got 14"),
        (255, 9, "at most 7 candidates (a budget of 255 subsets), so nodes_max "
                 "must be at most 8, got 9"),
    ], ids=["budget-4096", "budget-255"])
    def test_refuses_models_icp_cannot_enumerate(self, monkeypatch, budget, nodes_max,
                                                 message):
        # the budget is read when the check runs, as icp_identify reads it
        monkeypatch.setattr(icp, "_SUBSET_BUDGET", budget)
        gen = sb.GenConfig(nodes_min=3, nodes_max=nodes_max)
        for methods in (("icp",), ("iid", "icp")):
            with pytest.raises(ValueError) as info:
                sb.ExperimentConfig(methods=methods, gen=gen)
            assert str(info.value) == f"methods include icp, which admits {message}"


class TestRunRecordValidation:
    """A record built in code is refused for what the records reader refuses."""

    @pytest.mark.parametrize("overrides, message", [
        (dict(js=7.5), r"js must be 1\.0, as z and pa0 give, got 7\.5$"),
        (dict(js=float("nan")), "js must"),
        (dict(violated=True), "violated must be False, as z and pa0 give, got True$"),
        # the right value of the wrong type: a bool js, an int violated
        (dict(js=True), r"js must be 1\.0, as z and pa0 give, got True$"),
        (dict(violated=0), "violated must be False, as z and pa0 give, got 0$"),
        (dict(z=frozenset({1, 2}), js=0.5, violated=False), "violated must be True"),
        (dict(z=frozenset({1, 2}), js=1.0, violated=True), "js must be 0.5"),
        (dict(dag_id=-1), r"dag_id must lie in \[0, inf\), got -1$"),
        (dict(dag_id=True), "dag_id must be an integer, got True$"),
        (dict(confounders=2.0), "confounders must be an integer, got 2.0$"),
        (dict(method="gbm"), "method must be one of \\('iid', 'icp'\\), got 'gbm'$"),
        (dict(method=" iid"), "method must"),
        (dict(z=frozenset({-1}), js=0.0, violated=True),
         r"z must lie in \[0, inf\), got -1$"),
        (dict(pa0=frozenset({1, -1}), js=0.5, violated=False),
         r"pa0 must lie in \[0, inf\), got -1$"),
        (dict(wall_time=float("nan")), r"wall_time must lie in \[0, inf\), got nan$"),
        (dict(wall_time=float("inf")), r"wall_time must lie in \[0, inf\), got inf$"),
        (dict(wall_time=-0.5), "wall_time must"),
    ], ids=["js=7.5", "js=nan", "violated=True", "js=True", "violated=0",
            "violated=False", "js=1.0",
            "dag_id=-1", "dag_id=True", "confounders=2.0", "method=gbm",
            "method=space-iid", "z-node=-1", "pa0-node=-1", "wall_time=nan",
            "wall_time=inf", "wall_time=-0.5"])
    def test_rejects_a_record_the_reader_would_refuse(self, overrides, message):
        fields = dict(dag_id=0, method="iid", confounders=0, z=frozenset({1}),
                      pa0=frozenset({1}), js=1.0, violated=False, wall_time=0.1)
        with pytest.raises(ValueError, match=f"^{message}"):
            harness.RunRecord(**{**fields, **overrides})


class TestCsvRoundTrip:
    def test_records_survive_a_round_trip(self, tmp_path):
        records = [record(dag_id=0, z=frozenset(), pa0=frozenset({1, 2}),
                          wall_time=0.25),
                   record(dag_id=1, method="icp", confounders=2,
                          z=frozenset({2, 5}), pa0=frozenset({2, 5}),
                          wall_time=1.5)]
        path = tmp_path / "records.csv"
        harness.write_records_csv(records, path)
        assert harness.read_records_csv(path) == records

    def test_aggregates_recomputed_from_csv_match_the_report(self, tmp_path):
        cfg = sb.ExperimentConfig(num_dags=2, samples_per_env=400,
                                  confounder_levels=(0,), methods=("icp",),
                                  master_seed=5,
                                  gen=sb.GenConfig(nodes_min=5, nodes_max=6))
        report = sb.run_experiment(cfg)
        path = tmp_path / "records.csv"
        harness.write_records_csv(report.records, path)
        recomputed = harness.aggregate_cells(harness.read_records_csv(path),
                                             methods=("icp",), levels=(0,))
        assert recomputed == report.cells

    def test_header_errors_name_the_offending_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dag_id,method,conf,z,pa0,js,violated,wall_time\nx\n")
        with pytest.raises(ValueError, match="column 2 should be 'confounders'"):
            harness.read_records_csv(path)
        for extra in ("extra", "nothing"):  # no name makes a ninth column welcome
            path.write_text(f"{harness.CSV_HEADER},{extra}\n")
            with pytest.raises(ValueError, match=f"column 8 should be absent, found '{extra}'$"):
                harness.read_records_csv(path)
        path.write_text(harness.CSV_HEADER.rsplit(",", 1)[0] + "\n")
        with pytest.raises(ValueError, match="column 7 should be 'wall_time', found nothing$"):
            harness.read_records_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty CSV"):
            harness.read_records_csv(path)

    def test_repeated_cell_names_both_lines(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(harness.CSV_HEADER + "\n0,iid,0,1,1,1.0,false,0.5\n"
                        "0,icp,0,1,1,1.0,false,0.5\n1,iid,0,1,1,1.0,false,0.5\n"
                        "0,iid,0,,1,0.0,false,0.7\n")
        with pytest.raises(ValueError, match="^line 5: dag_id, method and "
                                             "confounders repeat line 2$"):
            harness.read_records_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("\n{header}\n{row}\n", 1),
        ("{header}\n\n{row}\n", 2),
        ("{header}\n{row}\n \t\n", 3),
        ("{header}\n{row}\n\n", 3),
    ])
    def test_blank_lines_are_rejected(self, tmp_path, text, line):
        # write_records_csv never writes one, so the reader does not skip them
        path = tmp_path / "records.csv"
        path.write_text(text.format(header=harness.CSV_HEADER,
                                    row="0,iid,0,1,1,1.0,false,0.5"))
        with pytest.raises(ValueError, match=f"^line {line}: blank line$"):
            harness.read_records_csv(path)

    def test_malformed_record_line_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(harness.CSV_HEADER + "\n0,iid,0\n")
        with pytest.raises(ValueError, match="malformed record"):
            harness.read_records_csv(path)

    @pytest.mark.parametrize("line, column", [
        ("0,iid,0,1,1,1.0,yes,0.5", "violated"),
        ("0,iid,0,1,1,1.0,True,0.5", "violated"),
        ("0,gbm,0,1,1,1.0,false,0.5", "method"),
        ("0,iid ,0,1,1,1.0,false,0.5", "method"),
        ("0,iid,one,1,1,1.0,false,0.5", "confounders"),
        ("0,iid,0,1|x,1,1.0,false,0.5", "z"),
        # js and violated must agree with z and pa0
        ("0,iid,0,1,1,nan,false,0.5", "js"),
        ("0,iid,0,1,1,7.5,false,0.5", "js"),
        ("0,iid,0,1|2,1,0.5,false,0.5", "violated"),
        # wall_time must be finite and >= 0
        ("0,iid,0,1,1,1.0,false,inf", "wall_time"),
        ("0,iid,0,1,1,1.0,false,-3", "wall_time"),
        ("0,iid,0,1,1,1.0,false,nan", "wall_time"),
        # every value must be spelled as write_records_csv writes it
        ("0,iid,0,2|1,1|2,1.0,false,0.5", "z"),
        ("0,iid,0,1|1,1,1.0,false,0.5", "z"),
        ("0,iid,0,01|2,1|2,1.0,false,0.5", "z"),
        ("00,iid,0,1,1,1.0,false,0.5", "dag_id"),
        ("0,iid,0,1,1,1.00,false,0.5", "js"),
        ("0,iid,0,1,1,1,false,0.5", "js"),
        ("0,iid,0,1,1,1.0,false,0.50", "wall_time"),
        ("0,iid,0,1,1,1.0,false,1_0.5", "wall_time"),
        ("0,iid,0,1,1,1.0,false,.5", "wall_time"),
        ("0,iid,0,1,1,1.0,false,5E-1", "wall_time"),
        ("0,iid,0,1,1,+1.0,false,0.5", "js"),
        ("0,iid,0,1,1,1.0 ,false,0.5", "js"),
        # integers must be plain non-negative ASCII decimals
        ("0,iid,0,1_0,1,0.0,true,0.5", "z"),
        ("+0,iid,0,1,1,1.0,false,0.5", "dag_id"),
        ("0,iid,-1,1,1,1.0,false,0.5", "confounders"),
        ("0,iid,0,1|-1,1,0.5,true,0.5", "z"),
        ("0,iid,0,1,\u0661,1.0,false,0.5", "pa0"),
    ])
    def test_unknown_values_name_the_line_and_column(self, tmp_path, line, column):
        path = tmp_path / "bad.csv"
        path.write_text(harness.CSV_HEADER + "\n0,icp,0,1,1,1.0,false,0.5\n"
                        + line + "\n")
        with pytest.raises(ValueError, match=f"line 3, column '{column}'"):
            harness.read_records_csv(path)

    @pytest.mark.parametrize("text", ["maybe", "yes", "True", "1"])
    def test_malformed_boolean(self, tmp_path, text):
        # booleans are spelled as write_records_csv writes them
        path = tmp_path / "bad.csv"
        path.write_text(harness.CSV_HEADER + f"\n0,iid,0,1,1,1.0,{text},0.5\n")
        with pytest.raises(ValueError) as info:
            harness.read_records_csv(path)
        assert str(info.value) == ("line 2, column 'violated': expected one of "
                                   f"['true', 'false'], got '{text}'")


class TestReportJson:
    def test_layout(self, tmp_path):
        cfg = sb.ExperimentConfig(num_dags=1, samples_per_env=400,
                                  confounder_levels=(0,), methods=("icp",),
                                  master_seed=9, fixed_scm=sb.four_node_demo_scm())
        report = sb.run_experiment(cfg)
        path = tmp_path / "report.json"
        harness.write_report_json(report, path)
        data = json.loads(path.read_text())
        assert data["master_seed"] == 9
        assert data["config_hash"] == report.config_hash
        assert data["config"]["num_dags"] == 1
        assert data["cells"]["icp"]["0"]["n"] == 1
        assert data["errors"] == []
        assert "timestamp" in data
