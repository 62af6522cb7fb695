"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from splicelab import cli
from splicelab.automata import dfa_none, parse_regex, regex_to_dfa
from splicelab.cli import run_command
from splicelab.core import InitialSet
from splicelab.fileformat import parse_grammar, parse_system, serialize_dfa
from splicelab.grammar import enumerate_cfg
from splicelab.transform import circular_to_flat

SIR_EX = "alphabet a b\ninitial finite ab\nsplice a#b$a#b\n"

SIR_EX2 = "alphabet a b\nmode circular\ninitial finite ab\nsplice a#b$a#b\n"

EX_PURE = (
    "alphabet a b c\n"
    "initial regex c*ab|c\n"
    "splice c#b$-#a\n"
    "splice c#c$-#b\n"
    "splice a#b$a#b\n"
)

EX_CONCAT = (
    "alphabet a b c\n"
    "initial finite ab c\n"
    "concat -#c$-#b\n"
    "concat -#c$a#b\n"
    "concat -#c$b#b\n"
    "concat -#c$c#b\n"
)

EPS_SYSTEM = "alphabet a b\ninitial regex (ab)*\nsplice a#b$a#b\n"

DYCK = "alphabet a b\ninitial finite ab\nsplice -#-$-#-\n"


@pytest.fixture
def spl(tmp_path):
    def write(text, name="system.spl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestClosure:
    def test_block_words(self, spl, capsys):
        code = run_command(["closure", spl(SIR_EX), "--max-len", "8"])
        assert code == 0
        assert capsys.readouterr().out == "ab\naabb\naaabbb\naaaabbbb\n"

    def test_circular_representatives(self, spl, capsys):
        code = run_command(["closure", spl(SIR_EX2), "--max-len", "4"])
        assert code == 0
        assert capsys.readouterr().out == "ab\naabb\n"

    def test_circular_linearized(self, spl, capsys):
        code = run_command(["closure", spl(SIR_EX2), "--max-len", "4", "--linearize"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["ab", "ba", "aabb", "abba", "baab", "bbaa"]

    def test_bad_bound(self, spl, capsys):
        code = run_command(["closure", spl(SIR_EX), "--max-len", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMember:
    def test_positive(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "aaabbb"])
        assert code == 0
        assert capsys.readouterr().out == "MEMBER\n"

    def test_negative(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "abab"])
        assert code == 1
        assert capsys.readouterr().out == "NOT-MEMBER\n"

    def test_trace(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "aabb", "--trace"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "MEMBER"
        assert out[0].startswith("1. [splice a#b$a#b] ")
        assert out[0].endswith("-> aabb")

    def test_trace_of_axiom(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "ab", "--trace"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["axiom ab", "MEMBER"]

    def test_epsilon_token(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "_"])
        assert code == 1
        assert capsys.readouterr().out == "NOT-MEMBER\n"

    def test_epsilon_member_when_axioms_had_it(self, spl, capsys):
        code = run_command(["member", spl(EPS_SYSTEM), "_", "--trace"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["axiom _", "MEMBER"]

    def test_budget_exit_code(self, spl, capsys):
        code = run_command(["member", spl(SIR_EX), "aabb", "--budget", "0"])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_long_word(self, spl, capsys):
        code = run_command(["member", spl(DYCK), "ab" * 1500])
        assert code == 0
        assert capsys.readouterr().out == "MEMBER\n"


class TestDecideEqual:
    def test_not_equal_with_witness(self, spl, capsys):
        code = run_command(["decide-equal", spl(SIR_EX), "--regex", "(ab)+"])
        assert code == 1
        assert capsys.readouterr().out == "NOT-EQUAL 2 aabb\n"

    def test_equal(self, spl, capsys):
        code = run_command(["decide-equal", spl(EX_CONCAT), "--regex", "c*ab|c"])
        assert code == 0
        assert capsys.readouterr().out == "EQUAL\n"

    def test_epsilon_witness_rendered_as_token(self, spl, capsys):
        code = run_command(["decide-equal", spl(SIR_EX), "--regex", "(ab)*"])
        assert code == 1
        assert capsys.readouterr().out == "NOT-EQUAL 3 _\n"

    @pytest.mark.parametrize("mode", ["", "mode circular\n"])
    def test_epsilon_axiom_builds_no_odd_word(self, spl, capsys, mode):
        system = spl(f"alphabet a\n{mode}initial regex (aa)*\nsplice -#-$-#-\n")
        assert run_command(["decide-equal", system, "--regex", "a*"]) == 1
        assert capsys.readouterr().out == "NOT-EQUAL 3 a\n"
        assert run_command(["member", system, "a"]) == 1
        assert capsys.readouterr().out == "NOT-MEMBER\n"

    def test_dfa_file_target(self, spl, tmp_path, capsys):
        target = tmp_path / "target.dfa"
        dfa = regex_to_dfa(parse_regex("(ab)+"), ("a", "b"))
        target.write_text(serialize_dfa(dfa), encoding="utf-8")
        code = run_command(["decide-equal", spl(SIR_EX), "--dfa", str(target)])
        assert code == 1
        assert capsys.readouterr().out == "NOT-EQUAL 2 aabb\n"

    def test_nonminimal_dfa_file(self, spl, tmp_path, capsys):
        # a+ with two accepting states where one suffices: the structural
        # conjugacy check needs the parsed automaton minimized
        target = tmp_path / "target.dfa"
        target.write_text(
            "alphabet a\nstates 3\nstart 0\nfinal 1 2\n0 a 1\n1 a 2\n2 a 2\n",
            encoding="utf-8",
        )
        system = spl("alphabet a\nmode circular\ninitial finite a\nsplice -#-$-#-\n")
        code = run_command(["decide-equal", system, "--dfa", str(target)])
        assert code == 0
        assert capsys.readouterr().out == "EQUAL\n"

    def test_regex_outside_alphabet(self, spl, capsys):
        code = run_command(["decide-equal", spl(SIR_EX), "--regex", "c*"])
        assert code == 2
        assert capsys.readouterr().err == "error: regex uses letters outside the alphabet: ['c']\n"


class TestGenerable:
    def test_found(self, capsys):
        code = run_command(["generable", "--alphabet", "a", "--regex", "aa*"])
        assert code == 0
        system = parse_system(capsys.readouterr().out)
        assert system.initial.words == frozenset({"a"})

    def test_none(self, capsys):
        code = run_command(["generable", "--alphabet", "a b", "--regex", "a*b"])
        assert code == 1
        assert capsys.readouterr().out == "NONE\n"

    @pytest.mark.parametrize("regex", ["b*", "_", "(ab)*"])
    def test_epsilon_target_round_trip(self, spl, regex, capsys):
        """The printed system, read back, equals its target, the empty word
        included."""
        assert run_command(["generable", "--alphabet", "a b", "--regex", regex]) == 0
        path = spl(capsys.readouterr().out)
        assert run_command(["decide-equal", path, "--regex", regex]) == 0
        assert capsys.readouterr().out == "EQUAL\n"

    def test_regex_outside_alphabet(self, capsys):
        code = run_command(["generable", "--alphabet", "a b", "--regex", "c*"])
        assert code == 2
        assert capsys.readouterr().err == "error: regex uses letters outside the alphabet: ['c']\n"

    def test_regex_file_beyond_argv_limit(self, tmp_path, capsys):
        # 200,001 characters: more than one command-line argument may hold
        path = tmp_path / "deep.re"
        path.write_text("(" * 100000 + "a" + ")" * 100000 + "\n", encoding="utf-8")
        code = run_command(["generable", "--alphabet", "a", "--regex-file", str(path)])
        assert code == 0
        assert "initial finite a\n" in capsys.readouterr().out


class TestRegexFile:
    @pytest.mark.parametrize("command", ["generable", "decide-equal"])
    def test_same_answer_as_regex(self, spl, tmp_path, command, capsys):
        path = tmp_path / "target.re"
        path.write_text("(ab)+\n", encoding="utf-8")
        if command == "generable":
            head = ["generable", "--alphabet", "a b"]
        else:
            head = ["decide-equal", spl(SIR_EX)]
        want = run_command([*head, "--regex", "(ab)+"]), capsys.readouterr()
        got = run_command([*head, "--regex-file", str(path)]), capsys.readouterr()
        assert got == want

    @pytest.mark.parametrize("command", ["generable", "decide-equal"])
    def test_both_flags(self, spl, tmp_path, command, capsys):
        path = tmp_path / "target.re"
        path.write_text("a\n", encoding="utf-8")
        if command == "generable":
            head = ["generable", "--alphabet", "a"]
        else:
            head = ["decide-equal", spl("alphabet a\ninitial finite a\n")]
        code = run_command([*head, "--regex", "a", "--regex-file", str(path)])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_neither_flag(self, capsys):
        code = run_command(["generable", "--alphabet", "a"])
        assert code == 2
        assert "one of the arguments --regex --regex-file is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generable", "decide-equal"])
    def test_unreadable_file(self, spl, tmp_path, command, capsys):
        missing = str(tmp_path / "missing.re")
        if command == "generable":
            args = ["generable", "--alphabet", "a", "--regex-file", missing]
        else:
            args = ["decide-equal", spl("alphabet a\ninitial finite a\n"), "--regex-file", missing]
        code = run_command(args)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


class TestRewriteCommands:
    def test_complete_output_parses(self, spl, capsys):
        code = run_command(["complete", spl(EX_PURE)])
        assert code == 0
        system = parse_system(capsys.readouterr().out)
        assert len(system.rules) > 3

    def test_split_output_is_heterogeneous(self, spl, capsys):
        mixed = "alphabet a b c\ninitial finite ab c\nsplice a#b$a#b\nsplice c#-$-#b\n"
        code = run_command(["split", spl(mixed)])
        assert code == 0
        system = parse_system(capsys.readouterr().out)
        assert all(r.is_pure for r in system.splice_rules)
        assert system.concat_rules

    def test_to_flat(self, spl, capsys):
        code = run_command(["to-flat", spl(SIR_EX2)])
        assert code == 0
        system = parse_system(capsys.readouterr().out)
        assert system.mode == "flat"
        assert system.initial.words == frozenset({"ab", "ba"})

    def test_to_flat_epsilon_only_axioms(self, spl, capsys):
        # the rotation closure of an ε-only regular set is the empty ε-free
        # language, which has no regex of its own
        text = "alphabet a b\nmode circular\ninitial regex _\nsplice a#b$a#b\n"
        code = run_command(["to-flat", spl(text)])
        assert code == 0
        out = capsys.readouterr().out
        assert "initial regex _\n" in out
        assert parse_system(out) == circular_to_flat(parse_system(text))

    def test_to_flat_rejects_flat_input(self, spl, capsys):
        code = run_command(["to-flat", spl(SIR_EX)])
        assert code == 2


class TestSynthesize:
    def test_stdout_grammar(self, spl, capsys):
        code = run_command(["synthesize", spl(SIR_EX)])
        assert code == 0
        g = parse_grammar(capsys.readouterr().out)
        assert enumerate_cfg(g, 6) == ["ab", "aabb", "aaabbb"]

    def test_output_file(self, spl, tmp_path, capsys):
        out = tmp_path / "grammar.cfg"
        code = run_command(["synthesize", spl(SIR_EX), "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        g = parse_grammar(out.read_text(encoding="utf-8"))
        assert enumerate_cfg(g, 4) == ["ab", "aabb"]

    def test_unwritable_output(self, spl, tmp_path, capsys):
        # exit 1 would read as a negative answer
        out = str(tmp_path / "missing" / "grammar.cfg")
        code = run_command(["synthesize", spl(SIR_EX), "-o", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_methods_agree_on_language(self, spl, capsys):
        run_command(["synthesize", spl(EX_PURE)])
        graft = parse_grammar(capsys.readouterr().out)
        run_command(["synthesize", spl(EX_PURE), "--method", "kral"])
        kral = parse_grammar(capsys.readouterr().out)
        assert set(enumerate_cfg(graft, 7)) == set(enumerate_cfg(kral, 7))

    def test_deterministic_bytes(self, spl, capsys):
        run_command(["synthesize", spl(EX_PURE)])
        first = capsys.readouterr().out
        run_command(["synthesize", spl(EX_PURE)])
        assert capsys.readouterr().out == first


class TestEnumerate:
    def test_words_per_line(self, tmp_path, capsys):
        path = tmp_path / "grammar.cfg"
        path.write_text("start S\nS -> a S b | ab\n", encoding="utf-8")
        code = run_command(["enumerate", str(path), "--max-len", "4"])
        assert code == 0
        assert capsys.readouterr().out == "ab\naabb\n"

    def test_epsilon_rendered_as_token(self, tmp_path, capsys):
        path = tmp_path / "grammar.cfg"
        path.write_text("start S\nS -> _ | a\n", encoding="utf-8")
        code = run_command(["enumerate", str(path), "--max-len", "1"])
        assert code == 0
        assert capsys.readouterr().out == "_\na\n"

    def test_huge_bound(self, tmp_path, capsys):
        path = tmp_path / "grammar.cfg"
        path.write_text("start S\nS -> a\n", encoding="utf-8")
        code = run_command(["enumerate", str(path), "--max-len", str(10**20)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: a bound is too large (")

    def test_long_body(self, tmp_path, capsys):
        path = tmp_path / "grammar.cfg"
        path.write_text("start S\nS -> " + "a" * 1500 + "\n", encoding="utf-8")
        code = run_command(["enumerate", str(path), "--max-len", "1500"])
        assert code == 0
        assert capsys.readouterr().out == "a" * 1500 + "\n"


class TestCheck:
    def test_pure_fixture(self, spl, capsys):
        code = run_command(["check", spl(EX_PURE), "--max-len", "10"])
        assert code == 0
        assert capsys.readouterr().out == "OK\n"

    def test_concat_fixture(self, spl, capsys):
        code = run_command(["check", spl(EX_CONCAT), "--max-len", "8"])
        assert code == 0
        assert capsys.readouterr().out == "OK\n"

    def test_circular_fixture(self, spl, capsys):
        code = run_command(["check", spl(SIR_EX2), "--max-len", "8"])
        assert code == 0
        assert capsys.readouterr().out == "OK\n"

    def test_epsilon_axioms(self, spl, capsys):
        code = run_command(["check", spl(EPS_SYSTEM), "--max-len", "6"])
        assert code == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize(
        "rules, least",
        [("S -> a T b\nT -> a T b | ab\n", "ab"), ("S -> _ | a S b | ab\n", "_")],
        ids=["drops ab", "adds the empty word"],
    )
    def test_mismatch(self, spl, monkeypatch, capsys, rules, least):
        # the grammar in place of the synthesized one differs from the
        # closure of SIR_EX, the words a^n b^n, in one word
        grammar = parse_grammar("start S\nterminals a b\n" + rules)
        monkeypatch.setattr(cli, "synthesize", lambda system, **kw: grammar)
        code = run_command(["check", spl(SIR_EX), "--max-len", "8"])
        assert code == 1
        assert capsys.readouterr().out == least + "\n"


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code = run_command(["closure", "/nonexistent.spl", "--max-len", "4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_system(self, spl, capsys):
        code = run_command(["closure", spl("alphabet a\nsplice a#a$a\n"), "--max-len", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 2" in err

    @pytest.mark.parametrize("kind", ["grammar", "dfa"])
    def test_malformed_grammar_and_dfa(self, spl, kind, capsys):
        if kind == "grammar":
            args = ["enumerate", spl("start S\nS a\n", "bad.cfg"), "--max-len", "4"]
        else:
            bad = spl("alphabet a b\nstates 0\n", "bad.dfa")
            args = ["decide-equal", spl(SIR_EX), "--dfa", bad]
        code = run_command(args)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_python_dash_m(self, spl):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "splicelab", "member", spl(SIR_EX), "aabb"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "MEMBER\n")

    def test_unknown_subcommand(self, capsys):
        code = run_command(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("command", ["generable", "decide-equal"])
    def test_deeply_nested_regex(self, spl, command, capsys):
        regex = "(" * 600 + "a" + ")" * 600
        if command == "generable":
            args = ["generable", "--alphabet", "a", "--regex", regex]
        else:
            args = ["decide-equal", spl("alphabet a\ninitial finite a\n"), "--regex", regex]
        code = run_command(args)
        assert code == 0
        out = capsys.readouterr().out
        if command == "generable":
            assert "initial finite a\n" in out
        else:
            assert out == "EQUAL\n"

    def test_missing_required_flag(self, spl, capsys):
        code = run_command(["closure", spl(SIR_EX)])
        assert code == 2

    @pytest.mark.parametrize(
        "args", [["member", "{}", "ab"], ["to-flat", "{}"]], ids=["member", "to-flat"]
    )
    def test_circular_concat_rule(self, spl, args, capsys):
        path = spl("alphabet a b\nmode circular\ninitial finite ab\nconcat a#-$-#b\n")
        code = run_command([arg.format(path) for arg in args])
        assert code == 2
        assert capsys.readouterr().err == "error: circular systems take splice rules only\n"

    def test_empty_regular_initial_set_not_printed(self, monkeypatch, capsys):
        # no file reaches this system: the file format has no regex for
        # the empty language, so the system is put in place of the loaded one
        empty = replace(
            parse_system(SIR_EX), initial=InitialSet.regular(dfa_none(("a", "b")))
        )
        monkeypatch.setattr(cli, "_load_system", lambda path: empty)
        code = run_command(["complete", "empty.spl"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: an empty regular initial set has no text form\n"
        )

    @pytest.mark.parametrize(
        "error, code",
        [(MemoryError, 3), (RuntimeError("boom"), 2)],
        ids=["memory", "crash"],
    )
    def test_unexpected_error_is_not_a_verdict(self, spl, monkeypatch, capsys, error, code):
        # exit 1 is member's negative verdict, so no crash may end with it
        def crash(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_member", crash)
        assert run_command(["member", spl(SIR_EX), "ab"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
