"""Text formats: systems, grammars, automata."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from splicelab.automata import Dfa, dfa_equivalent, dfa_none, parse_regex, regex_to_dfa
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    SPLICE,
    Alphabet,
    InitialSet,
    ParseError,
    SplicingRule,
    SplicingSystem,
    UnsupportedError,
)
from splicelab.examples import ALL_EXAMPLES
from splicelab.fileformat import (
    parse_dfa,
    parse_grammar,
    parse_system,
    serialize_dfa,
    serialize_grammar,
    serialize_system,
)
from splicelab.grammar import Cfg, enumerate_cfg


class TestSystemFormat:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_round_trip(self, name):
        system = ALL_EXAMPLES[name]()
        assert parse_system(serialize_system(system)) == system

    @pytest.mark.parametrize(
        "words, line", [(("b", "ab", "a"), "initial regex (a|b|ab)?"), ((), "initial regex _")]
    )
    def test_finite_set_with_epsilon(self, words, line):
        """A finite set that holds the empty word is written as a regex and
        reads back as a regular set with the same language."""
        initial = InitialSet(kind="finite", words=frozenset(words), had_epsilon=True)
        system = SplicingSystem(Alphabet("ab"), initial, frozenset())
        text = serialize_system(system)
        assert line in text.splitlines()
        back = parse_system(text).initial
        assert back.kind == "regular" and back.had_epsilon
        assert back.enumerate(3) == initial.enumerate(3)

    def test_serialization_is_stable(self):
        system = ALL_EXAMPLES["mixed_system"]()
        once = serialize_system(system)
        assert serialize_system(parse_system(once)) == once

    def test_comments_and_blanks(self):
        text = """
        # a one-rule system
        alphabet a b

        initial finite ab
        splice a#b$a#b
        """
        system = parse_system(text)
        assert system.initial.words == frozenset({"ab"})

    def test_rule_whitespace_ignored(self):
        a = parse_system("alphabet a b\ninitial finite ab\nsplice a # b $ a # b\n")
        b = parse_system("alphabet a b\ninitial finite ab\nsplice a#b$a#b\n")
        assert a == b

    def test_dash_is_empty_handle(self):
        system = parse_system("alphabet a b\ninitial finite ab\nsplice b#-$-#a\n")
        assert system.rules == frozenset({SplicingRule("b", "", "", "a")})

    def test_concat_rules(self):
        system = parse_system("alphabet a b c\ninitial finite c ab\nconcat -#c$-#b\n")
        (rule,) = system.rules
        assert rule.usage == CONCAT

    def test_circular_mode(self):
        system = parse_system(
            "alphabet a b\nmode circular\ninitial finite ab\nsplice a#b$a#b\n"
        )
        assert system.mode == CIRCULAR

    def test_regex_initial(self):
        system = parse_system("alphabet a b c\ninitial regex c*ab|c\n")
        assert system.initial.kind == "regular"
        assert system.initial.contains("ccab")
        assert not system.initial.had_epsilon

    def test_regex_initial_epsilon_flag(self):
        system = parse_system("alphabet a b\ninitial regex (ab)*\n")
        assert system.initial.had_epsilon
        assert not system.initial.contains("")

    def test_empty_regular_initial_has_no_text_form(self):
        system = parse_system("alphabet a b\ninitial regex _\n")
        assert serialize_system(system).splitlines()[2] == "initial regex _"
        empty = replace(system, initial=InitialSet.regular(dfa_none(("a", "b"))))
        with pytest.raises(UnsupportedError):
            serialize_system(empty)

    def test_contextfree_initial_has_no_text_form(self):
        system = parse_system("alphabet a b\ninitial finite ab\n")
        grammar = Cfg(("a", "b"), ("S",), [("S", ("a", "b"))], "S")
        with pytest.raises(UnsupportedError, match="only finite and regular"):
            serialize_system(replace(system, initial=InitialSet.contextfree(grammar)))

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("alphabet\ninitial finite a\n", 1, "at least one letter"),
            ("alphabet a A\ninitial finite a\n", 1, "reserved character 'A'"),
            ("alphabet a b\ninitial finite abc\n", 2, "unknown letter 'c' in word"),
            ("alphabet a\ninitial regex\n", 2, "needs a pattern"),
            ("splice a#b$a#b\nalphabet a b\n", 1, "before any rule"),
            ("mode flat\n", 0, "missing alphabet"),
            # a second alphabet line leaves the initial automaton over the first
            ("alphabet a b\ninitial regex ab\nalphabet a b c\n", 0, "initial automaton not over"),
        ],
    )
    def test_error_rows(self, text, line, fragment):
        with pytest.raises(ParseError, match=fragment) as err:
            parse_system(text)
        assert err.value.line == line

    def test_error_lines(self):
        bad = "alphabet a b\ninitial finite ab\nsplice a#b$a\n"
        with pytest.raises(ParseError) as err:
            parse_system(bad)
        assert err.value.line == 3

    def test_epsilon_axiom_rejected(self):
        with pytest.raises(ParseError):
            parse_system("alphabet a b\ninitial finite ab _\n")

    def test_regex_letters_outside_alphabet(self):
        with pytest.raises(ParseError):
            parse_system("alphabet a b\ninitial regex c*\n")

    def test_rule_letters_outside_alphabet(self):
        with pytest.raises(ParseError):
            parse_system("alphabet a b\ninitial finite ab\nsplice a#b$c#d\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_system("alphabet a b\ninitial finite ab\naxiom ab\n")

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_system("initial finite ab\n")
        with pytest.raises(ParseError):
            parse_system("alphabet a b\n")

    def test_alphabet_must_come_first(self):
        with pytest.raises(ParseError):
            parse_system("initial finite ab\nalphabet a b\n")


class TestGrammarFormat:
    def test_parse_basic(self):
        g = parse_grammar("start S\nterminals a b\nS -> a S b | ab\n")
        assert enumerate_cfg(g, 6) == ["ab", "aabb", "aaabbb"]

    def test_empty_body_token(self):
        g = parse_grammar("start S\nS -> _ | a S\n")
        assert enumerate_cfg(g, 2) == ["", "a", "aa"]

    def test_terminal_strings_split(self):
        g = parse_grammar("start S\nS -> ab\n")
        assert g.bodies("S") == [("a", "b")]

    def test_round_trip(self):
        g = Cfg(("a", "b"), ("S", "T"), [("S", ("a", "T", "b")), ("T", ())], "S")
        assert parse_grammar(serialize_grammar(g)) == g

    def test_variables_inside_strings_rejected(self):
        with pytest.raises(ParseError):
            parse_grammar("start S\nS -> aSb\n")

    def test_missing_start(self):
        with pytest.raises(ParseError):
            parse_grammar("S -> a\n")

    def test_lowercase_head_rejected(self):
        with pytest.raises(ParseError):
            parse_grammar("start S\ns -> a\n")

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("start S T\nS -> a\n", 1, "exactly one variable name"),
            ("start s\n", 1, "begin with an uppercase letter"),
            ("terminals ab\nstart S\n", 1, "single lowercase symbols, got 'ab'"),
            ("start S\nS a\n", 2, "expected a production line"),
            ("start S\nS -> a |\n", 2, "empty alternative"),
            ("start S\nterminals a\nS -> b\n", 0, "undeclared symbol 'b'"),
            ("start S\nterminals a _\nS -> a\n", 2, "single lowercase symbols, got '_'"),
        ],
    )
    def test_error_rows(self, text, line, fragment):
        with pytest.raises(ParseError, match=fragment) as err:
            parse_grammar(text)
        assert err.value.line == line

    def test_interleaved_heads_round_trip(self):
        # the text form writes each head's bodies on one line, start first
        g = parse_grammar("start S\nA -> C\nS -> A B\nA -> a\nS -> D\n")
        assert g.variables == ("S", "A", "B", "D", "C")
        assert g.productions == (
            ("S", ("A", "B")), ("S", ("D",)), ("A", ("C",)), ("A", ("a",)),
        )
        assert parse_grammar(serialize_grammar(g)) == g

    def test_inferred_terminals_sorted(self):
        g = parse_grammar("start S\nS -> b a\n")
        assert g.terminals == ("a", "b")

    def test_serialize_needs_single_letter_terminals(self):
        g = Cfg(("a", "M_a_b"), ("S",), [("S", ("a", "M_a_b"))], "S")
        with pytest.raises(UnsupportedError):
            serialize_grammar(g)


class TestDfaFormat:
    def test_round_trip(self):
        d = regex_to_dfa(parse_regex("a*b"), ("a", "b"))
        again = parse_dfa(serialize_dfa(d))
        assert dfa_equivalent(d, again)

    def test_missing_transition(self):
        text = "alphabet a\nstates 2\nstart 0\nfinal 1\n0 a 1\n"
        with pytest.raises(ParseError):
            parse_dfa(text)

    def test_duplicate_transition(self):
        text = "alphabet a\nstates 1\nstart 0\nfinal 0\n0 a 0\n0 a 0\n"
        with pytest.raises(ParseError):
            parse_dfa(text)

    def test_state_out_of_range(self):
        text = "alphabet a\nstates 1\nstart 0\nfinal 0\n0 a 4\n"
        with pytest.raises(ParseError):
            parse_dfa(text)

    def test_unknown_letter(self):
        text = "alphabet a\nstates 1\nstart 0\nfinal 0\n0 b 0\n"
        with pytest.raises(ParseError):
            parse_dfa(text)

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("alphabet a\nstates 1\nstart x\n", 3, "states are numbers, got 'x'"),
            ("alphabet a\nstates 0\n", 2, "positive count, got '0'"),
            ("alphabet a\nstates 1\nstart 0\n0 a\n", 4, "expected 'state letter state'"),
            ("alphabet a\nstates 1\n0 a 0\n", 0, "needs alphabet, states, and start"),
            ("alphabet a\nstart 3\nstates 1\n0 a 0\n", 0, "start or final state out of range"),
            ("alphabet\nstates 1\nstart 0\n", 1, "alphabet must be nonempty"),
            ("# a comment\nalphabet a #\nstates 1\n", 2, "reserved character '#'"),
            ("alphabet a -\nstates 1\n", 1, "reserved character '-'"),
            ("alphabet a A\nstates 1\n", 1, "reserved character 'A'"),
        ],
    )
    def test_error_rows(self, text, line, fragment):
        with pytest.raises(ParseError, match=fragment) as err:
            parse_dfa(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "alphabet",
        [("A",), ("#",), ("_",), ("ab",), ("b", "a"), ("a", "a"), ()],
        ids=["capital", "reserved", "epsilon", "multi", "unsorted", "repeated", "empty"],
    )
    def test_unwritable_alphabet_rows(self, alphabet):
        # text that would not parse, or would parse back to another automaton
        d = Dfa(alphabet, (tuple(0 for _ in alphabet),), 0, frozenset([0]))
        with pytest.raises(UnsupportedError, match="sorted, distinct alphabet letters"):
            serialize_dfa(d)

    def test_alphabet_line_reads_letters(self):
        # letters are single characters, as in a system file: a repeated
        # letter counts once and a run of letters is split
        moves = "0 a 0\n0 b 1\n1 a 1\n1 b 1\n"
        for line in ("alphabet a b b", "alphabet ab", "alphabet b a"):
            d = parse_dfa(f"{line}\nstates 2\nstart 0\nfinal 1\n{moves}")
            assert d.alphabet == ("a", "b")
            assert d == regex_to_dfa("a*b(a|b)*", ("a", "b"))
            assert parse_dfa(serialize_dfa(d)) == d

    def test_unreachable_final_state(self):
        # state 2 is final but no path from the start reaches it
        text = (
            "alphabet a b\nstates 3\nstart 0\nfinal 2\n"
            "0 a 0\n0 b 0\n1 a 2\n1 b 2\n2 a 2\n2 b 2\n"
        )
        assert parse_dfa(text) == dfa_none(("a", "b"))


def readme_block(heading: str) -> str:
    """The first ```text block after the bold ``heading`` in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"\*\*{heading}\*\*.*?```text\n(.*?)```", readme, re.DOTALL)
    assert match, heading
    return match.group(1)


class TestReadmeExamples:
    def test_system(self):
        system = parse_system(readme_block("System"))
        assert system.alphabet.letters == ("a", "b", "c")
        assert sorted(r.usage for r in system.rules) == [CONCAT, SPLICE]

    def test_grammar(self):
        g = parse_grammar(readme_block("Grammar"))
        assert enumerate_cfg(g, 6) == ["ab", "aabb", "aaabbb"]

    def test_dfa(self):
        d = parse_dfa(readme_block("DFA"))
        assert dfa_equivalent(d, regex_to_dfa(parse_regex("(a|b)*a"), ("a", "b")))
