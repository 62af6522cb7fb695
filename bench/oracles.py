"""Answer checks, run after the timed passes.

The references are independent of the code path under test: closed forms
(aⁿbⁿ, Dyck counts as sums of Catalan numbers, the powers of ``doubling``),
the brute-force oracles of ``tests/helpers.py`` at bounds they can reach,
the bounded closure against the compiled grammar (what ``splicelab check``
does), exact replay of every derivation and witness, and each decider
witness against the inclusion it names.  A sample of queries also goes
through the command line in-process, whose exit codes must agree with the
API answers.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import splicelab as sl
from helpers import (
    _fits,
    in_one_step_image,
    is_balanced,
    naive_circular_closure,
    naive_flat_closure,
    rotations,
)
from workloads import MEMBER_BUDGET

NAIVE_MAX_LEN = 8
NAIVE_MAX_RULES = 20
DOUBLING_BLOCK = "0123"


class Checker:
    """Collects problems; caches the reference closures it computes."""

    def __init__(self):
        self.problems: list[str] = []
        self._closures: dict = {}

    def fail(self, query, message: str) -> None:
        s = query.spec
        self.problems.append(f"query {query.qid} ({s.kind} {s.label} tier {s.tier}): {message}")

    def closure(self, system, n: int) -> set[str]:
        """Linearized bounded closure (every rotation, for circular systems)."""
        key = (id(system), n)
        if key not in self._closures:
            words = sl.closure_bounded(system, n)
            if system.mode == sl.CIRCULAR:
                flat: set[str] = set()
                for w in words:
                    flat |= w.linearize()
                self._closures[key] = flat
            else:
                self._closures[key] = set(words)
        return self._closures[key]


def _flat_words(answer) -> list[str]:
    return [w if isinstance(w, str) else w.representative for w in answer]


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _naive(system, n: int) -> set[str]:
    if system.mode == sl.CIRCULAR:
        return naive_circular_closure(system, n)
    return naive_flat_closure(system, n)


# --------------------------------------------------------------------------
# per-kind checks


def _check_closures(chk: Checker, queries, answers) -> None:
    by_system: dict[int, list] = {}
    for q in queries:
        if q.spec.kind == "closure" and not isinstance(answers[q.qid], BaseException):
            by_system.setdefault(id(q.system), []).append(q)
    for group in by_system.values():
        group.sort(key=lambda q: q.spec.bound)
        largest = group[-1]
        big = _flat_words(answers[largest.qid])
        for q in group:
            n, words = q.spec.bound, _flat_words(answers[q.qid])
            if words != sorted(set(words), key=lambda w: (len(w), w)) or any(len(w) > n for w in words):
                chk.fail(q, "closure is not a sorted, duplicate-free list within the bound")
            if words != [w for w in big if len(w) <= n]:
                chk.fail(q, f"disagrees with the closure at bound {largest.spec.bound} cut to {n}")
            _check_closed_form(chk, q, words)
        smallest, system = group[0], group[0].system
        m = min(smallest.spec.bound, NAIVE_MAX_LEN)
        cut = {w for w in _flat_words(answers[smallest.qid]) if len(w) <= m}
        if len(system.rules) <= NAIVE_MAX_RULES:
            naive = _naive(system, m)
            got = set().union(*map(rotations, cut)) if system.mode == sl.CIRCULAR else cut
            if got != naive:
                chk.fail(smallest, f"differs from the naive fixpoint at bound {m}")
        if system.is_alphabetic and system.mode == sl.FLAT and len(system.rules) <= NAIVE_MAX_RULES:
            m = min(m, 7)
            words = {w for w in chk.closure(system, m)}
            if system.initial.had_epsilon:
                words.add("")
            if set(sl.enumerate_cfg(sl.synthesize(system), m)) != words:
                chk.fail(smallest, f"differs from the compiled grammar at bound {m}")


def _check_closed_form(chk: Checker, q, words: list[str]) -> None:
    form, n = q.spec.oracle.get("form"), q.spec.bound
    if form == "anbn":
        want = ["a" * k + "b" * k for k in range(1, n // 2 + 1)]
        if words != want:
            chk.fail(q, "not the aⁿbⁿ closed form")
    elif form == "dyck":
        want = sum(_catalan(k) for k in range(1, n // 2 + 1))
        if len(words) != want or not all(is_balanced(w) for w in words):
            chk.fail(q, f"{len(words)} words, want {want} balanced words")
    elif form == "doubling":
        powers = {
            (len(w) - 2) // 4
            for w in words
            if w[0] == "x" and w[-1] == "y" and w[1:-1] == DOUBLING_BLOCK * ((len(w) - 2) // 4)
        }
        want = {2**j for j in range(8) if 2 + 4 * 2**j <= n}
        if powers != want:
            chk.fail(q, f"bracketed powers {sorted(powers)}, want {sorted(want)}")
    elif form == "concat_chain":
        want = {"c"} | {"c" * i + "ab" for i in range(n - 1)}
        if set(words) != want:
            chk.fail(q, "not the c*ab|c closed form")


def _as_word(system, word: str):
    return sl.CircularWord(word) if system.mode == sl.CIRCULAR else word


def _check_witness(chk: Checker, q, answer) -> None:
    try:
        got = sl.replay_sequence(q.system, answer)
    except sl.SpliceError as exc:
        chk.fail(q, f"witness does not replay: {exc}")
        return
    if got != _as_word(q.system, q.spec.word):
        chk.fail(q, f"witness replays to {got}")


def _member_truth(chk: Checker, q) -> bool:
    label, w, system = q.spec.label, q.spec.word, q.system
    if label == "anbn":
        return w == "a" * (len(w) // 2) + "b" * (len(w) // 2) and len(w) >= 2
    if label == "dyck":
        return is_balanced(w)
    if label == "anbn_circular":
        k = len(w) // 2
        return len(w) >= 2 and "a" * k + "b" * k in rotations(w)
    if label == "doubling" and w[1:-1] == DOUBLING_BLOCK * ((len(w) - 2) // 4) and w[0] + w[-1] == "xy":
        k = (len(w) - 2) // 4
        return k > 0 and k & (k - 1) == 0
    truth = w in chk.closure(system, len(w))
    if len(w) <= NAIVE_MAX_LEN and truth != (w in _naive(system, len(w))):
        chk.fail(q, "the closure and the naive fixpoint disagree on this word")
    return truth


def _check_member(chk: Checker, q, answer) -> None:
    truth = _member_truth(chk, q)
    if q.spec.kind == "member":
        if answer is not truth:
            chk.fail(q, f"member said {answer}, the reference says {truth}")
        return
    if (answer is not None) != truth:
        chk.fail(q, f"derivation {'found' if answer is not None else 'missing'}, reference says {truth}")
    elif answer is not None:
        _check_witness(chk, q, answer)


def _in_image(system, accepts, word: str) -> bool:
    """Whether ``word`` comes from one rule application to two accepted
    words (circular systems: some rotation of it, by the definition)."""
    if system.mode != sl.CIRCULAR:
        return in_one_step_image(accepts, sorted(system.rules), word)
    for r in rotations(word):
        for k in range(1, len(r)):
            left, right = r[:k], r[k:]
            for rule in system.rules:
                if (_fits(left, rule.beta, rule.alpha) and _fits(right, rule.gamma, rule.delta)
                        and accepts(left) and accepts(right)):
                    return True
    return False


def verdict_class(verdict) -> str:
    if isinstance(verdict, BaseException):
        return "failed"
    if verdict.equal:
        return "equal"
    if verdict.failing_inclusion == "conjugacy":
        return "conjugacy"
    return f"incl{verdict.failing_inclusion}"


def _differential_bound(letters: int) -> int:
    return {1: 12, 2: 9, 3: 6}.get(letters, 5)


def _language(chk: Checker, system, K, n: int) -> tuple[set[str], set[str]]:
    words = set(chk.closure(system, n))
    if system.initial.had_epsilon:
        words.add("")
    target = set(sl.enumerate_dfa(K, n))
    if K.accepts(""):
        target.add("")
    return words, target


def _check_decide(chk: Checker, q, verdict) -> None:
    system, K = q.system, q.target
    expect = q.spec.oracle.get("expect")
    cls = verdict_class(verdict)
    if expect is not None and cls != (expect if isinstance(expect, str) else f"incl{expect}"):
        chk.fail(q, f"verdict {cls}, expected {expect}")
    w = verdict.witness
    if verdict.equal:
        words, target = _language(chk, system, K, _differential_bound(len(K.alphabet)))
        if words != target:
            chk.fail(q, "EQUAL but the bounded languages differ")
        return
    if cls == "conjugacy":
        ok = not K.accepts(w) and any(K.accepts(r) for r in rotations(w))
    elif cls == "incl1":
        ok = not K.accepts(w) and ((w == "" and system.initial.had_epsilon) or system.initial_contains(w))
    elif cls == "incl2":
        ok = not K.accepts(w) and _in_image(system, K.accepts, w)
    else:
        ok = K.accepts(w) and (
            not system.initial.had_epsilon if w == ""
            else not system.initial_contains(w) and not _in_image(system, K.accepts, w)
        )
    if not ok:
        chk.fail(q, f"witness {w!r} does not violate inclusion {verdict.failing_inclusion}")


def _check_generable(chk: Checker, q, found) -> None:
    expect = q.spec.oracle.get("expect")
    if expect is not None and (found is not None) != expect:
        chk.fail(q, f"generability {'found' if found else 'none'}, expected {expect}")
    if found is not None:
        words, target = _language(chk, found, q.target, _differential_bound(len(q.target.alphabet)))
        if words != target or not sl.decide_equal(found, q.target).equal:
            chk.fail(q, "the returned system does not generate the target")


def _check_synthesis(chk: Checker, q, answer, answers) -> None:
    kind, system = q.spec.kind, q.system
    if kind == "synthesize":
        if not isinstance(answer, sl.Cfg):
            chk.fail(q, "synthesize returned no grammar")
        return
    if kind == "serialize":
        parsed, compiled = sl.parse_grammar(answer), answers[q.spec.uses]
        if sl.serialize_grammar(parsed) != answer:
            chk.fail(q, "serialized grammar does not round-trip")
        if set(parsed.productions) != set(compiled.productions) or parsed.start != compiled.start:
            chk.fail(q, "parsed grammar differs from the compiled one")
        return
    n = q.spec.bound
    words = set(chk.closure(system, n))
    if system.initial.had_epsilon:
        words.add("")
    if set(answer) != words:
        chk.fail(q, f"grammar words differ from the closure at bound {n}")
    m = min(n, 6)
    if len(system.rules) <= NAIVE_MAX_RULES:
        naive = _naive(system, m) | ({""} if system.initial.had_epsilon else set())
        if {w for w in answer if len(w) <= m} != naive:
            chk.fail(q, f"grammar words differ from the naive fixpoint at bound {m}")


def check_answers(queries, answers) -> list[str]:
    chk = Checker()
    _check_closures(chk, queries, answers)
    for q in queries:
        kind, answer = q.spec.kind, answers[q.qid]
        if isinstance(answer, BaseException):
            continue  # counted as failed, not as wrong
        if kind == "witness":
            _check_witness(chk, q, answer)
        elif kind in ("member", "derivation"):
            _check_member(chk, q, answer)
        elif kind == "decide":
            _check_decide(chk, q, answer)
        elif kind == "generable":
            _check_generable(chk, q, answer)
        elif kind in ("synthesize", "serialize", "enumerate"):
            _check_synthesis(chk, q, answer, answers)
    return chk.problems


# --------------------------------------------------------------------------
# command line agreement


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sl.cli.run_command([str(a) for a in argv])
    return code, out.getvalue()


def check_cli(queries, answers, rng, workdir: Path, per_kind: int = 2) -> tuple[list[str], int]:
    """Send a sample of queries through ``splicelab.cli.run_command`` and
    compare exit codes and output with the API answers.  Returns the
    problems and the number of commands run."""
    import splicelab.cli  # noqa: F401  (binds sl.cli)

    problems: list[str] = []
    workdir.mkdir(parents=True, exist_ok=True)
    runs = 0
    try:
        by_kind: dict[str, list] = {}
        for q in queries:
            by_kind.setdefault(q.spec.kind, []).append(q)
        sample = []
        for kind in sorted(by_kind):
            group = sorted(by_kind[kind], key=lambda q: q.qid)
            sample += rng.sample(group, min(per_kind, len(group)))
        for q in sample:
            spec, answer = q.spec, answers[q.qid]
            if isinstance(answer, BaseException):
                continue
            sysfile = workdir / f"q{q.qid}.spl"
            if spec.system is not None:
                sysfile.write_text(spec.system, encoding="utf-8")
            want_out = None
            if spec.kind == "closure":
                argv, want = ["closure", sysfile, "--max-len", spec.bound], 0
                want_out = "".join(w + "\n" for w in _flat_words(answer))
            elif spec.kind in ("member", "derivation", "witness"):
                member = answer if spec.kind == "member" else answer is not None
                argv = ["member", sysfile, spec.word, "--budget", MEMBER_BUDGET]
                want = 0 if member else 1
            elif spec.kind == "decide":
                argv, want = ["decide-equal", sysfile, "--regex", spec.regex], 0 if answer.equal else 1
                w = answer.witness
                want_out = "EQUAL\n" if answer.equal else (
                    f"NOT-EQUAL {answer.failing_inclusion} {w if w else '_'}\n")
            elif spec.kind == "generable":
                argv = ["generable", "--alphabet", " ".join(spec.letters), "--regex", spec.regex]
                want = 1 if answer is None else 0
                want_out = "NONE\n" if answer is None else sl.serialize_system(answer)
            elif spec.kind in ("synthesize", "serialize"):
                argv, want = ["synthesize", sysfile, "--method", spec.method], 0
                want_out = sl.serialize_grammar(answer) if spec.kind == "synthesize" else answer
            else:
                gfile = workdir / f"q{q.qid}.cfg"
                gfile.write_text(sl.serialize_grammar(answers[q.spec.uses]), encoding="utf-8")
                argv, want = ["enumerate", gfile, "--max-len", spec.bound], 0
                want_out = "".join((w or "_") + "\n" for w in answer)
            code, out = _cli(argv)
            runs += 1
            if code != want or (want_out is not None and out != want_out):
                problems.append(f"cli {argv[0]} for query {q.qid}: exit {code}, want {want}")
        budget_problems, budget_runs = _check_budget_exit(queries, workdir)
        problems += budget_problems
        runs += budget_runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems, runs


def _check_budget_exit(queries, workdir: Path) -> tuple[list[str], int]:
    """Exit code 3 must match BudgetExceededError on a starved search."""
    candidates = [q for q in queries if q.spec.kind == "member" and len(q.spec.word) >= 8]
    if not candidates:
        return [], 0
    q = min(candidates, key=lambda q: q.qid)
    try:
        sl.member(q.system, q.spec.word, 3)
        want = None
    except sl.BudgetExceededError:
        want = 3
    path = workdir / "budget.spl"
    path.write_text(q.spec.system, encoding="utf-8")
    code, _ = _cli(["member", path, q.spec.word, "--budget", 3])
    if want is not None and code != want:
        return [f"cli member with budget 3 exited {code}, the API raised BudgetExceededError"], 1
    if want is None and code not in (0, 1):
        return [f"cli member with budget 3 exited {code}, the API answered"], 1
    return [], 1
