#!/usr/bin/env python3
"""The splicelab benchmark.

    python3 bench/run.py --workload closure --seed 1 --seconds 25 --trace 0

Runs one workload (``closure``, ``member``, ``decide`` or ``synthesize``)
against the public ``splicelab`` API, single-threaded, in this process.
Without ``--workload`` it runs all four, each in its own process so that
peak memory belongs to one workload.

A run sets up (import, input generation from the seed, parsing, warm-up),
then repeats the workload's fixed query set in passes for ``--seconds``,
then checks every answer against independent references.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run also makes one traced pass
and reports per-layer counts and self times.  A wrong answer sets
``correct`` to false and the exit code to 1.

Query times are reported in reference seconds (unit ``ref_s``).  Before
each query the run times ``reference_kernel``, a fixed pure-Python job
that uses no splicelab code, and divides the query's seconds by the
median seconds of the kernel runs nearest to it; one kernel run counts as
``KERNEL_REF_S``.  So the figures follow the work splicelab does, not how
busy the shared host is at the moment.  Plain seconds are in the
diagnostics.  ``setup_s`` is plain seconds.  Diagnostics (input record,
size tiers, scaling by tier) are printed above the last line and written
to ``.bench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_runs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 7  # at least this many set-up samples per run
KERNEL_REF_S = 0.001  # one run of the reference kernel is a reference millisecond
KERNEL_WINDOW = 4
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="S tier only, a quarter of it (for tests)")
    return p.parse_args(argv)


def _pctl(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import splicelab."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import splicelab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout.strip())


def reference_kernel() -> int:
    """A fixed pure-Python job that uses no splicelab code: build the words
    over {a, b} up to length 8, sort them, group their reversals by length.
    Its time is the yardstick for the host's current speed."""
    words = [""]
    for _ in range(8):
        words = words + [w + c for w in words for c in "ab" if len(w) < 8]
    table: dict[int, list[str]] = {}
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        table.setdefault(len(w), []).append(w[::-1])
    return sum(len(v) for v in table.values())


def run_pass(queries, recorder=None):
    """One pass over the query set: answers, per-query seconds, failures,
    and the seconds of the reference kernel, which runs once before each
    query.  Answer checks are not in the timed region."""
    answers: list = [None] * len(queries)
    times = [0.0] * len(queries)
    kernel = [0.0] * len(queries)
    failed = 0
    clock = time.perf_counter
    for q in queries:
        t0 = clock()
        reference_kernel()
        t1 = clock()
        if recorder is not None:
            recorder.query = q.qid
        try:
            answer = q.call(answers)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
            failed += 1
        times[q.qid] = clock() - t1
        kernel[q.qid] = t1 - t0
        answers[q.qid] = answer
        if recorder is not None:
            recorder.query = -1
    return answers, times, failed, kernel


def local_kernel(kernel: list[float]) -> list[float]:
    """For each query of a pass, the median time of the KERNEL_WINDOW kernel
    runs on either side of it (the one just before it counts as before)."""
    return [statistics.median(kernel[max(0, j - KERNEL_WINDOW + 1): j + KERNEL_WINDOW + 1])
            for j in range(len(kernel))]


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _setup(workloads, name, seed, tiny):
    specs = workloads.make_specs(name, seed, tiny)
    queries = workloads.prepare(specs)
    # warm-up: the smallest S-tier query of each kind that stands alone
    smallest = {}
    for q in queries:
        s = q.spec
        if s.tier == "S" and s.uses is None:
            size = (len(s.system or ""), s.bound or 0, len(s.word or ""), len(s.regex or ""))
            if s.kind not in smallest or size < smallest[s.kind][0]:
                smallest[s.kind] = (size, q)
    answers: list = [None] * len(queries)
    for _, q in smallest.values():
        try:
            answers[q.qid] = q.call(answers)
        except Exception:  # the timed passes count it
            pass
    return queries


def _record(workloads, queries, answers) -> dict:
    """Input record: counts, size distributions and property shares."""
    import oracles

    props = [workloads.properties(q) for q in queries]
    n = len(props)

    def share(key, value=True):
        having = [p for p in props if key in p]
        return {"share": round(sum(p[key] == value for p in having) / len(having), 4),
                "of": len(having)} if having else None

    def dist(key):
        values = sorted(p[key] for p in props if key in p)
        if not values:
            return None
        return {"n": len(values), "min": values[0], "median": statistics.median(values),
                "max": values[-1]}

    record = {
        "queries": n,
        "kinds": {k: sum(p["kind"] == k for p in props) for k in sorted({p["kind"] for p in props})},
        "tiers": {t: sum(p["tier"] == t for p in props) for t in workloads.TIERS},
        "sizes": {k: dist(k) for k in ("word_len", "dfa_states", "rules", "bound")},
        "shares": {k: share(k) for k in ("alphabetic", "completed", "circular")},
    }
    member_answers = [a for q, a in zip(queries, answers) if q.spec.kind == "member" and isinstance(a, bool)]
    if member_answers:
        record["shares"]["member"] = {"share": round(sum(member_answers) / len(member_answers), 4),
                                      "of": len(member_answers)}
    classes = [oracles.verdict_class(a) for q, a in zip(queries, answers) if q.spec.kind == "decide"]
    if classes:
        record["verdicts"] = {c: classes.count(c) for c in sorted(set(classes))}
    generable = [a is not None for q, a in zip(queries, answers)
                 if q.spec.kind == "generable" and not isinstance(a, BaseException)]
    if generable:
        record["shares"]["generable"] = {"share": round(sum(generable) / len(generable), 4),
                                         "of": len(generable)}
    return record


def _tier_curve(queries, per_query) -> dict:
    """Scaling by size tier: query count and summed per-query reference
    seconds."""
    curve = {}
    for tier in ("S", "M", "L"):
        secs = [per_query[q.qid] for q in queries if q.spec.tier == tier]
        curve[tier] = {"queries": len(secs), "ref_s": round(sum(secs), 6),
                       "max_query_ref_s": round(max(secs), 6) if secs else 0.0}
    return curve


def grammar_productions(queries, answers) -> int:
    return sum(len(a.productions) for q, a in zip(queries, answers)
               if q.spec.kind == "synthesize" and not isinstance(a, BaseException))


def layer_metrics(rec, queries, answers, spans, overhead: float) -> dict:
    """Per-layer metrics from one traced pass (set-up included)."""
    import oracles

    rows = spans.per_name(rec)
    kind_of = {q.qid: q.spec.kind for q in queries}
    member_rows = spans.per_name(
        rec, keep=lambda i: rec.names[rec.name_of[i]] == "core.initial_contains"
        and kind_of.get(rec.query_of[i]) == "member")
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in spans.LAYERS}
    for name, row in rows.items():
        layer = layers[name.split(".")[0]]
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]

    def row(name, field):
        return rows.get(name, {}).get(field, 0)

    def family_self(*names):
        # a public entry point and the public helper it delegates to, so
        # that the figure does not depend on which of them does the work
        return sum(row(n, "self_s") for n in names)

    member_calls = sum(1 for q in queries if q.spec.kind == "member")
    nodes = member_rows.get("core.initial_contains", {}).get("calls", 0)
    classes = [oracles.verdict_class(a) for q, a in zip(queries, answers) if q.spec.kind == "decide"]
    automata_max = max((r["max"] for n, r in rows.items() if n.startswith("automata.")), default=0)
    grammar_max = max((r["max"] for n, r in rows.items() if n.startswith("grammar.")), default=0)
    values = {
        "core.calls": (layers["core"]["calls"], "count"),
        "core.self_s": (layers["core"]["self_s"], "s"),
        "core.initial_contains.calls": (nodes, "count"),
        "closure.calls": (layers["closure"]["calls"], "count"),
        "closure.self_s": (layers["closure"]["self_s"], "s"),
        "closure.words_out": (row("closure.closure_bounded", "sum"), "count"),
        "closure.nodes_per_member": (nodes / member_calls if member_calls else 0.0, "nodes/call"),
        "automata.calls": (layers["automata"]["calls"], "count"),
        "automata.self_s": (layers["automata"]["self_s"], "s"),
        "automata.dfa_boolean.calls": (row("automata.dfa_boolean", "calls"), "count"),
        "automata.dfa_concat.calls": (row("automata.dfa_concat", "calls"), "count"),
        "automata.state_languages.calls": (row("automata.state_languages", "calls"), "count"),
        "automata.determinize.self_s": (row("automata.determinize", "self_s"), "s"),
        "automata.states_out.max": (automata_max, "states"),
        "decider.calls": (layers["decider"]["calls"], "count"),
        "decider.self_s": (layers["decider"]["self_s"], "s"),
        "decider.splice_image.self_s": (row("decider.splice_image", "self_s"), "s"),
        "decider.image_states.max": (row("decider.splice_image", "max"), "states"),
    }
    for cls in ("equal", "incl1", "incl2", "incl3", "conjugacy"):
        values[f"decider.verdict.{cls}"] = (classes.count(cls), "count")
    values.update({
        "grammar.calls": (layers["grammar"]["calls"], "count"),
        "grammar.self_s": (layers["grammar"]["self_s"], "s"),
        "grammar.varset.calls": (row("grammar.varset", "calls"), "count"),
        "grammar.bar_hillel.calls": (row("grammar.bar_hillel", "calls"), "count"),
        "grammar.bar_hillel.self_s": (row("grammar.bar_hillel", "self_s"), "s"),
        "grammar.kral_eliminate.self_s": (family_self("grammar.kral_eliminate", "grammar.kral_single"), "s"),
        "grammar.cfg_simplify.self_s": (row("grammar.cfg_simplify", "self_s"), "s"),
        "grammar.enumerate_cfg.self_s": (
            family_self("grammar.enumerate_cfg", "grammar.enumerate_cfg_tuples"), "s"),
        "grammar.productions_out.max": (grammar_max, "count"),
        "grammar_productions": (grammar_productions(queries, answers), "count"),
        "synthesis.calls": (layers["synthesis"]["calls"], "count"),
        "synthesis.self_s": (layers["synthesis"]["self_s"], "s"),
        "synthesis.concat_grammar.productions": (row("synthesis.concat_grammar", "sum"), "count"),
        "synthesis.pure_grammar.productions": (row("synthesis.pure_grammar", "sum"), "count"),
        "transform.self_s": (layers["transform"]["self_s"], "s"),
        "transform.complete_system.rules_out": (row("transform.complete_system", "sum"), "count"),
        "fileformat.self_s": (layers["fileformat"]["self_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(args) -> int:
    if not (SRC / "splicelab" / "__init__.py").is_file() or not (TESTS / "helpers.py").is_file():
        print(f"error: {ROOT} holds no splicelab sources (src/splicelab) or test oracles "
              "(tests/helpers.py)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(TESTS)]
    import oracles
    import spans
    import workloads

    name, seed = args.workload, args.seed
    setup_samples = []

    def set_up():
        # set-up is sampled once before the passes and once after each, so
        # that its median spans the run as the query medians do
        import_s = _import_seconds()
        t0 = time.perf_counter()
        made = _setup(workloads, name, seed, args.tiny)
        setup_samples.append(import_s + time.perf_counter() - t0)
        return made

    queries = set_up()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, per_pass, kernels, attempted, failed = [], [], [], 0, 0
    first = None
    deadline = time.perf_counter() + budget
    while True:
        gc.collect()
        t0 = time.perf_counter()
        answers, times, fails, kernel = run_pass(queries)
        walls.append(time.perf_counter() - t0)
        per_pass.append(times)
        kernels.append(local_kernel(kernel))
        attempted += len(queries)
        failed += fails
        if first is None:
            first = answers
        elif not all(_same(a, b) for a, b in zip(first, answers)):
            print("error: answers changed between passes", file=sys.stderr)
            return _finish(args, False, attempted, failed, {}, {})
        set_up()
        if time.perf_counter() + walls[-1] > deadline:
            break
    while len(setup_samples) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Each query's time is its median over the passes, in seconds (for the
    # diagnostics) and in reference seconds (for the metrics): its seconds
    # divided by the median time of the kernel runs nearest to it, times
    # KERNEL_REF_S.  A shared two-vCPU Intel Xeon VM slows down by a third to
    # a half for spells of seconds to minutes, and the kernel slows down with
    # it.  Over twelve 20-second runs of the closure workload there the
    # interquartile spread of the summed per-query time was 0.30 of its
    # median in seconds, 0.05 in reference seconds with each pass's median
    # kernel time, and 0.04 with the nearest kernel runs, which also cut the
    # pass-to-pass jitter of single queries by a third to a half.
    per_query = [statistics.median(col) for col in zip(*per_pass)]
    per_query_ref = [statistics.median(t / k for t, k in zip(col, near)) * KERNEL_REF_S
                     for col, near in zip(zip(*per_pass), zip(*kernels))]
    total_ref_s = sum(per_query_ref)

    t0 = time.perf_counter()
    problems = oracles.check_answers(queries, first)
    rng = random.Random(f"cli:{name}:{seed}")
    cli_problems, cli_runs = oracles.check_cli(queries, first, rng, OUT / f"cli-{os.getpid()}")
    problems += cli_problems
    check_s = time.perf_counter() - t0

    report = {
        "workload": name, "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
        "seed": seed, "tiny": args.tiny,
        "python": platform.python_version(), "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "passes": len(walls), "pass_walls_s": [round(w, 6) for w in walls],
        "query_samples": len(per_query), "setup_samples_s": [round(s, 6) for s in setup_samples],
        "grammar_productions": grammar_productions(queries, first),
        "cli_commands": cli_runs, "check_s": round(check_s, 3), "inputs": _record(workloads, queries, first),
        "seconds": {"total": round(sum(per_query), 6), "query_p50": round(statistics.median(per_query), 6),
                    "query_p90": round(_pctl(per_query, 90), 6)},
        "kernel_s": [round(statistics.median(k), 7) for k in kernels],
        "scaling_by_tier": _tier_curve(queries, per_query_ref), "problems": problems[:20],
    }
    metrics = {
        "total_ref_s": {"value": total_ref_s, "unit": "ref_s"},
        "query_p50_ref_s": {"value": statistics.median(per_query_ref), "unit": "ref_s"},
        "query_p90_ref_s": {"value": _pctl(per_query_ref, 90), "unit": "ref_s"},
        "answered_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if args.trace:
        metrics, traced_ok = _traced(args, workloads, spans, queries, first, sum(per_query), report)
        if not traced_ok:
            problems.append("traced answers differ from untraced answers")
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    return _finish(args, not problems, attempted, failed, metrics, report)


def _traced(args, workloads, spans, queries, untraced, wall_s, report):
    """One traced set-up and pass; per-layer metrics from its spans."""
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        traced_queries = _setup(workloads, args.workload, args.seed, args.tiny)
        gc.collect()
        answers, times, _, _ = run_pass(traced_queries, rec)
        traced_wall = sum(times)
    finally:
        restore()
    same = all(_same(a, b) for a, b in zip(untraced, answers))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    spans.write(rec, path)
    report["spans"] = {"count": len(rec), "file": str(path.relative_to(ROOT))}
    metrics = layer_metrics(rec, traced_queries, answers, spans, traced_wall - wall_s)
    return metrics, same


def _finish(args, correct, attempted, failed, metrics, report) -> int:
    if report:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        _print_report(report, metrics)
    for problem in report.get("problems", []) if report else []:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _print_report(report, metrics) -> None:
    print(f"# workload {report['workload']} seed {report['seed']}: {report['why']}")
    print(f"# python {report['python']}  git {report['git_sha'][:12]}  nproc {report['nproc']}  "
          f"passes {report['passes']}  query samples {report['query_samples']} per pass")
    inputs = report["inputs"]
    print(f"# inputs: {inputs['queries']} queries {inputs['kinds']}  tiers {inputs['tiers']}")
    print(f"# sizes: {json.dumps(inputs['sizes'])}")
    print(f"# shares: {json.dumps(inputs['shares'])}" + (
        f"  verdicts {inputs['verdicts']}" if "verdicts" in inputs else ""))
    for tier, row in report["scaling_by_tier"].items():
        print(f"# tier {tier}: {row['queries']:4d} queries  {row['ref_s']:.4f} ref_s  "
              f"slowest {row['max_query_ref_s']:.4f} ref_s")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process; prints their results and a
    combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
