"""Tests of the benchmark itself: tracer arithmetic, the correctness gate,
metric names and seeded inputs.  Run with `python -m pytest perfbench`."""

import json
import os
import re
import time

import pytest

import layer_delta
import run
import tracer
import workloads

run.import_findual()

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def _deadline():
    return time.monotonic() + run.RUN_DEADLINE_S


def test_self_time_of_three_level_nest():
    now = [0]

    def tick(ns):
        now[0] += ns

    tr = tracer.Tracer(clock=lambda: now[0])
    inner = tr.wrap("t.inner", lambda: tick(5))

    def middle_body():
        tick(3)
        inner()
        tick(2)

    middle = tr.wrap("t.middle", middle_body)

    def outer_body():
        tick(1)
        middle()
        middle()
        tick(4)

    tr.wrap("t.outer", outer_body)()
    assert dict(tr.calls) == {"t.outer": 1, "t.middle": 2, "t.inner": 2}
    # outer lasts 25 ns, of which its two middles take 20; each middle lasts
    # 10 ns, of which its inner takes 5.
    assert dict(tr.self_ns) == {"t.outer": 5, "t.middle": 10, "t.inner": 10}


def test_self_time_survives_an_exception():
    now = [0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 7
        raise ValueError("boom")

    inner = tr.wrap("t.inner", failing)

    def outer_body():
        now[0] += 1
        with pytest.raises(ValueError):
            inner()

    tr.wrap("t.outer", outer_body)()
    assert dict(tr.self_ns) == {"t.outer": 1, "t.inner": 7}
    assert tr._open == []


def test_install_binds_one_wrapper_in_every_namespace():
    import findual
    from findual import algebra, qplane, selftest, twist

    original = algebra.validate_algebra
    restore = tracer.install(tracer.Tracer())
    try:
        wrapped = algebra.validate_algebra
        assert wrapped is not original
        for namespace in (findual, qplane, selftest, twist):
            assert namespace.validate_algebra is wrapped
        assert wrapped.__wrapped__ is original
    finally:
        restore()
    assert algebra.validate_algebra is original and qplane.validate_algebra is original


def test_traced_job_counts_calls_and_keeps_output(work_dir):
    job = [j for j in workloads.build("selftest", 5).jobs if j.name == "verify-coradical"][0]
    plain = run.run_job(job, work_dir)
    traced = run.run_job(job, work_dir, trace=True)
    assert plain.problem is None and traced.problem is None
    assert plain.sha256 == traced.sha256
    assert traced.layers["cli.cli_run.calls"] == 1
    assert traced.layers["selftest.run_criterion.calls"] == 1
    assert set(traced.layers) == set(tracer.metric_units())


def test_corrupted_output_counts_as_failed(work_dir):
    good = [j for j in workloads.build("selftest", 5).jobs if j.name == "verify-coradical"][0]
    # Same job name, different bytes: the report echoes its argv.
    corrupted = good._replace(argv=good.argv + ("--seed", "6"))
    workload = workloads.Workload("selftest", workloads.DEFAULT_SEED, (good, corrupted))
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    res = run.run_workload(workload, 0.01, False, digests, os.path.join(work_dir, "w"))
    assert res["attempted"] == 2 * res["passes"]
    assert res["failed"] == res["passes"]
    assert res["fail_rate"] == 0.5
    assert all("sha256" in p for p in res["problems"])


def test_broken_invariant_counts_as_failed(work_dir):
    job = workloads.Job("census-3-13-json", call=lambda: '{"aggregate": {}}',
                        check=workloads._census_json(13))
    workload = workloads.Workload("census", 11, (job,))
    result = run.run_pass(workload, work_dir, {}, _deadline())
    assert result.failed == 1
    assert "check raised KeyError" in result.results[0].problem


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert per_layer == {**tracer.metric_units(), run.OVERHEAD_METRIC: "s"}
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert len(per_layer) <= 128
    names = [*per_layer, *end_to_end, *workloads.NAMES, "fail_rate"]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    for w in workloads.NAMES:
        assert all(NAME.fullmatch(j.name) for j in workloads.build(w, 5).jobs)


def test_other_seed_gives_other_inputs_that_pass_every_invariant(work_dir):
    seed = 11
    for name in workloads.NAMES:
        default, other = workloads.build(name, 5), workloads.build(name, seed)
        seeded = tuple(j for j in other.jobs if j.seeded)
        assert seeded
        before = {j.name: j.argv for j in default.jobs if j.seeded}
        corpus = any("corpus" in j.needs for j in seeded)
        assert corpus or any(before[j.name] != j.argv for j in seeded)
        subset = other._replace(jobs=seeded)
        sub_dir = os.path.join(work_dir, name)
        os.makedirs(sub_dir)
        run.prepare(subset, sub_dir)
        result = run.run_pass(subset, sub_dir, {}, _deadline())
        assert [r.problem for r in result.results] == [None] * len(seeded)
        if corpus:
            default_dir = os.path.join(work_dir, name + "-default")
            os.makedirs(default_dir)
            run.prepare(default._replace(jobs=seeded), default_dir)
            with open(os.path.join(sub_dir, "corpus0.json")) as a, \
                    open(os.path.join(default_dir, "corpus0.json")) as b:
                assert a.read() != b.read()


def test_layer_delta_reports_moves_over_ten_percent():
    def record(values):
        metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
        return {"results": [{"workload": "census", "trace": True, "metrics": metrics}]}

    base = record({"a.self_s": 1.0, "b.self_s": 1.0, "c.calls": 0})
    new = record({"a.self_s": 1.05, "b.self_s": 1.2, "c.calls": 3})
    rows = layer_delta.deltas(base, new)
    assert [(r[1], r[3], r[4]) for r in rows] == [("b.self_s", 1.0, 1.2), ("c.calls", 0, 3)]
    assert rows[0][5] == pytest.approx(0.2) and rows[1][5] is None
