"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args) -> tuple[dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def _traced_pass(queries):
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        answers, _, _, _ = run.run_pass(queries, rec)
    finally:
        restore()
    return rec, answers


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(trace, section):
    result, _ = _bench("--workload", "synthesize", "--seed", 3, "--seconds", 0.2,
                       "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_finishes_within_seconds(workload):
    result, elapsed = _bench("--workload", workload, "--seed", 5, "--seconds", 0.2, "--tiny")
    assert result["correct"] is True
    assert elapsed < 30


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_counts(workload):
    assert workloads.make_specs(workload, 7) == workloads.make_specs(workload, 7)
    assert workloads.make_specs(workload, 7) != workloads.make_specs(workload, 8)
    counts = []
    for _ in range(2):
        queries = workloads.prepare(workloads.make_specs(workload, 7, tiny=True))
        rec, answers = _traced_pass(queries)
        metrics = run.layer_metrics(rec, queries, answers, spans, 0.0)
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_do_not_change_answers(workload):
    queries = workloads.prepare(workloads.make_specs(workload, 11, tiny=True))
    plain, _, failed, _ = run.run_pass(queries)
    rec, traced = _traced_pass(queries)
    assert failed == 0 and len(rec) > 0
    assert all(run._same(a, b) for a, b in zip(plain, traced))


def test_wrappers_sit_where_callers_look_and_come_off():
    import splicelab
    import splicelab.automata
    import splicelab.core
    import splicelab.decider

    original = splicelab.automata.dfa_union
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        for looked_up in (splicelab.decider.dfa_union, splicelab.automata.dfa_union, splicelab.dfa_union):
            assert looked_up.__wrapped__ is original
        assert hasattr(splicelab.core.SplicingSystem.initial_contains, "__wrapped__")
        splicelab.member(splicelab.examples.anbn(), "aabb")
        dfa = splicelab.regex_to_dfa(splicelab.parse_regex("ab*"), ("a", "b"))
    finally:
        restore()
    assert splicelab.decider.dfa_union is original
    assert not hasattr(splicelab.core.SplicingSystem.initial_contains, "__wrapped__")
    names = {rec.names[rec.name_of[i]] for i in range(len(rec))}
    assert {"closure.member", "core.initial_contains"} <= names
    # sizing a returned Dfa records no span of its own: nothing here reads
    # n_states at the top level
    top = {rec.names[rec.name_of[i]] for i in range(len(rec)) if rec.parent[i] == -1}
    assert "automata.regex_to_dfa" in top and "automata.n_states" not in top
    assert spans.per_name(rec)["automata.regex_to_dfa"]["max"] == dfa.n_states


def test_oracles_reject_wrong_answers():
    queries = workloads.prepare(workloads.make_specs("closure", 2, tiny=True))
    answers, _, _, _ = run.run_pass(queries)
    assert oracles.check_answers(queries, answers) == []
    target = next(q for q in queries if q.spec.kind == "closure" and len(answers[q.qid]) > 1)
    answers[target.qid] = answers[target.qid][:-1]
    assert oracles.check_answers(queries, answers)

    queries = workloads.prepare(workloads.make_specs("member", 2, tiny=True))
    answers, _, _, _ = run.run_pass(queries)
    target = next(q for q in queries if q.spec.kind == "member")
    answers[target.qid] = not answers[target.qid]
    assert oracles.check_answers(queries, answers)


@pytest.mark.parametrize("workload, trace", [(w, 0) for w in WORKLOADS] + [("decide", 1)])
def test_failed_queries_are_counted_not_fatal(workload, trace, monkeypatch, capsys):
    """One query of each kind raises; the run still checks the rest and
    prints every metric, with the failures counted."""
    import splicelab

    bind, chosen = workloads._bind, {}

    def failing_bind(spec, system, target):
        if spec.uses is not None or chosen.setdefault(spec.kind, spec) != spec:
            return bind(spec, system, target)

        def call(got):
            raise splicelab.BudgetExceededError("injected failure")

        return call

    monkeypatch.setattr(workloads, "_bind", failing_bind)
    code = run.main(["--workload", workload, "--seed", "4", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["failed"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    if not trace:
        assert result["metrics"]["answered_share"]["value"] < 1
