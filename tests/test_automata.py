"""Deterministic automata, regexes, and the language algebra."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicelab.automata import (
    EMPTY,
    EPS,
    Dfa,
    conjugacy_closure,
    dfa_concat,
    dfa_difference,
    dfa_empty,
    dfa_equivalent,
    dfa_from_words,
    dfa_intersect,
    dfa_is_finite,
    dfa_none,
    dfa_subset,
    dfa_to_regex,
    dfa_union,
    dfa_without_epsilon,
    difference_witness,
    enumerate_dfa,
    lit,
    parse_regex,
    pattern_dfa,
    regex_letters,
    regex_to_dfa,
    render_regex,
    _conjugacy_walk,
    _normalize,
    _product_walk,
    _reach,
    _rotation_closed,
    _walk,
    cat,
    union,
)
from splicelab.core import Alphabet, ParseError, matches_pattern
from splicelab.fileformat import parse_system

from helpers import dfa_product_walk, random_regex, regex_matches

AB = ("a", "b")


def all_words(letters, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in letters]
        out.extend(frontier)
    return out


class TestRegexParsing:
    def test_basic_operators(self):
        node = parse_regex("(ab)+|c?")
        assert regex_letters(node) == {"a", "b", "c"}

    def test_epsilon_token(self):
        d = regex_to_dfa(parse_regex("_"), AB)
        assert d.accepts("")
        assert not d.accepts("a")

    def test_whitespace_ignored(self):
        d1 = regex_to_dfa(parse_regex(" a  b* "), AB)
        d2 = regex_to_dfa(parse_regex("ab*"), AB)
        assert dfa_equivalent(d1, d2)

    @pytest.mark.parametrize("bad", ["", "a|", "(ab", "a)b", "*a", "a||b"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_regex(bad)

    def test_nested_parentheses(self):
        node = parse_regex("(" * 50 + "a" + ")" * 50)
        assert dfa_equivalent(regex_to_dfa(node, AB), regex_to_dfa(parse_regex("a"), AB))

    def test_render_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            text = random_regex(rng, "ab")
            node = parse_regex(text)
            again = parse_regex(render_regex(node))
            assert dfa_equivalent(regex_to_dfa(node, AB), regex_to_dfa(again, AB))


class TestDeepRegexes:
    """Nesting depth is bounded by memory, not by the recursion limit: the
    parser and the AST walkers keep explicit stacks.  These run at the
    interpreter's default limit of 1000 frames."""

    N = 100_000

    @staticmethod
    def alternation(depth):
        """``a|b(a|b(…a|ba…))`` with ``depth`` groups: the words b^i a
        for i <= depth + 1, in the text ``render_regex`` gives back."""
        return "a|b(" * depth + "a|ba" + ")" * depth

    def test_many_nested_groups(self):
        assert parse_regex("(" * self.N + "a" + ")" * self.N) == lit("a")
        with pytest.raises(ParseError, match="unbalanced"):
            parse_regex("(" * self.N + "a")

    def test_deep_raw_ast(self):
        node = lit("a")
        for _ in range(self.N):
            node = ("star", node)
        assert regex_letters(node) == {"a"}
        assert render_regex(node) == "a" + "*" * self.N
        assert regex_to_dfa(node, AB) == regex_to_dfa("a*", AB)

    def test_deep_alternation(self):
        depth = 1000
        text = self.alternation(depth)
        node = parse_regex(text)
        assert render_regex(node) == text
        system = parse_system(f"alphabet a b\ninitial regex {text}\n")
        d = system.initial.dfa
        # one state per count of leading b's, the accepting one and the sink
        assert d.n_states == depth + 4
        assert d.accepts("a") and d.accepts("b" * (depth + 1) + "a")
        assert not d.accepts("b" * (depth + 2) + "a") and not d.accepts("ab")

    def test_deep_equal_branches(self):
        """A union drops a branch equal to an earlier one, however deep
        the two are; branches that differ only at the bottom both stay."""
        deep = self.alternation(1000)
        assert render_regex(parse_regex(f"({deep})b|({deep})b")) == f"({deep})b"
        other = deep.replace("a|ba", "a|bb")
        both = render_regex(parse_regex(f"({deep})b|({other})b"))
        assert both == f"({deep})b|({other})b"


class TestWideUnions:
    def test_many_distinct_branches(self):
        """A union compares a branch only with the kept branches that share
        its head, so n distinct branches take about n comparisons."""
        rng = random.Random(43)
        words: dict[str, None] = {}
        while len(words) < 8000:
            words["".join(rng.choice("abcd") for _ in range(rng.randint(12, 16)))] = None
        text = "|".join([*words, *list(words)[::7]])
        start = time.perf_counter()
        node = parse_regex(text)
        elapsed = time.perf_counter() - start
        assert node == ("union", tuple(("cat", tuple(map(lit, w))) for w in words))
        assert elapsed < 0.5, elapsed

    def test_branches_with_one_head(self):
        # the first 16 pre-order entries agree; the letter after them decides
        head = "a" * 20
        node = parse_regex(f"{head}b|{head}c|{head}b|({head}c)")
        assert render_regex(node) == f"{head}b|{head}c"


class TestRegexToDfa:
    def test_against_independent_matcher(self):
        rng = random.Random(11)
        words = all_words(AB, 5)
        for _ in range(60):
            text = random_regex(rng, "ab")
            node = parse_regex(text)
            d = regex_to_dfa(node, AB)
            for w in words:
                assert d.accepts(w) == regex_matches(node, w), (text, w)

    @staticmethod
    def random_ast(rng, letters, depth):
        """A raw AST, built without the simplifying constructors, so EMPTY
        and EPS may sit anywhere, star bodies included."""
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([EMPTY, EPS, *map(lit, letters)])
        kind = rng.choice(["union", "cat", "star"])
        if kind == "star":
            return ("star", TestRegexToDfa.random_ast(rng, letters, depth - 1))
        parts = rng.randint(1, 3)
        return (kind, tuple(TestRegexToDfa.random_ast(rng, letters, depth - 1) for _ in range(parts)))

    def test_against_independent_matcher_depth_4(self):
        """Deeper regexes over three letters, and raw ASTs holding EMPTY and
        EPS, against the matcher on every word up to length 5."""
        rng = random.Random(13)
        words = all_words("abc", 5)
        seen = {"holds EMPTY": 0, "holds EPS": 0, "empty": 0, "nullable": 0, "infinite": 0}
        for i in range(120):
            if i % 2:
                node = self.random_ast(rng, "abc", 4)
            else:
                node = parse_regex(random_regex(rng, "abc", depth=4))
            d = regex_to_dfa(node, ("a", "b", "c"))
            for w in words:
                assert d.accepts(w) == regex_matches(node, w), (node, w)
            seen["holds EMPTY"] += "'empty'" in repr(node)
            seen["holds EPS"] += "'eps'" in repr(node)
            seen["empty"] += dfa_empty(d)
            seen["nullable"] += d.accepts("")
            seen["infinite"] += not dfa_is_finite(d)
        assert seen["empty"] >= 3, seen
        assert min(n for key, n in seen.items() if key != "empty") >= 20, seen

    @pytest.mark.parametrize(
        "regex",
        [
            "(_|a)*",
            "(a*)*",
            "(a?b?)*",
            "(a|_)+",
            "(a?b?)*b",
            "((ab)?(ba)?)*a",
            ("star", ("star", ("lit", "a"))),
            ("star", ("union", (EPS, ("cat", (("lit", "a"), ("star", EPS)))))),
            ("star", ("cat", (("lit", "b"), EMPTY))),
            ("cat", (("star", ("union", (EMPTY, EPS))), ("lit", "b"))),
        ],
    )
    def test_nullable_star_bodies(self, regex):
        node = parse_regex(regex) if isinstance(regex, str) else regex
        d = regex_to_dfa(node, AB)
        for w in all_words(AB, 6):
            assert d.accepts(w) == regex_matches(node, w), w

    def test_bad_node(self):
        with pytest.raises(ValueError):
            regex_to_dfa(("cat", (("lit", "a"), ("plus", ("lit", "b")))), AB)

    def test_total_transition_function(self):
        d = regex_to_dfa(parse_regex("a"), AB)
        assert len(d.transitions) == d.n_states
        for row in d.transitions:
            assert len(row) == len(AB)
            assert all(0 <= t < d.n_states for t in row)

    def test_normalized_equality(self):
        # normalized DFAs for the same language are structurally equal
        d1 = regex_to_dfa(parse_regex("(a|b)(a|b)*"), AB)
        d2 = regex_to_dfa(parse_regex("(a|b)*(a|b)"), AB)
        assert d1 == d2


class TestBooleans:
    @given(st.lists(st.text(alphabet="ab", max_size=4), max_size=4),
           st.lists(st.text(alphabet="ab", max_size=4), max_size=4))
    @settings(max_examples=40)
    def test_set_algebra_on_finite_languages(self, xs, ys):
        a, b = dfa_from_words(AB, xs), dfa_from_words(AB, ys)
        sx, sy = set(xs), set(ys)
        probe = all_words(AB, 4)
        u, i, d = dfa_union(a, b), dfa_intersect(a, b), dfa_difference(a, b)
        for w in probe:
            assert u.accepts(w) == (w in (sx | sy))
            assert i.accepts(w) == (w in (sx & sy))
            assert d.accepts(w) == (w in (sx - sy))

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ValueError):
            dfa_union(dfa_none(AB), dfa_none(("a", "c")))

    def test_without_epsilon_against_difference(self):
        rng = random.Random(5)
        with_epsilon = 0
        for _ in range(300):
            d = regex_to_dfa(parse_regex(random_regex(rng, "ab", depth=4)), AB)
            with_epsilon += d.accepts("")
            stripped = dfa_without_epsilon(d)
            assert stripped == dfa_difference(d, dfa_from_words(AB, [""])), d
            assert not stripped.accepts("")
        assert with_epsilon >= 100


class TestQueries:
    def test_emptiness(self):
        assert dfa_empty(dfa_none(AB))

    def test_difference_witness(self):
        a = dfa_from_words(AB, ["a", "ab"])
        b = dfa_from_words(AB, ["a"])
        assert difference_witness(a, b) == "ab"
        assert difference_witness(b, a) is None

    def test_subset_equivalent(self):
        a = regex_to_dfa(parse_regex("(ab)+"), AB)
        b = regex_to_dfa(parse_regex("(ab)*"), AB)
        assert dfa_subset(a, b)
        assert not dfa_subset(b, a)
        assert dfa_equivalent(dfa_union(a, dfa_from_words(AB, [""])), b)

    def test_finiteness(self):
        assert dfa_is_finite(dfa_from_words(AB, ["a", "babb"]))
        assert not dfa_is_finite(regex_to_dfa(parse_regex("ab*"), AB))
        # unreachable loops do not count
        assert dfa_is_finite(dfa_intersect(regex_to_dfa(parse_regex("a*"), AB),
                                           dfa_from_words(AB, ["aa"])))

    def test_hand_built_unreachable_states(self):
        """States the start never reaches are not live, even when they
        reach a final state: state 3 is an unreachable final with a loop."""
        d = Dfa(("a",), ((1,), (2,), (2,), (3,)), 0, frozenset({1, 3}))
        assert dfa_is_finite(d)
        assert enumerate_dfa(d, 5) == ["a"]

    def test_enumerate_dfa(self):
        d = regex_to_dfa(parse_regex("a*b"), AB)
        assert enumerate_dfa(d, 3) == ["b", "ab", "aab"]

    def test_long_word_automaton(self):
        """A 1502-state automaton is walked without recursion."""
        d = regex_to_dfa(parse_regex("a" * 1500), AB)
        assert d.n_states == 1502
        assert dfa_is_finite(d)
        assert enumerate_dfa(d, 1500) == ["a" * 1500]
        assert enumerate_dfa(d, 1499) == []
        (final,) = d.finals
        rows = list(d.transitions)
        rows[final] = (rows[final][0], final)  # a b-loop on the last state
        assert not dfa_is_finite(Dfa(AB, tuple(rows), d.start, d.finals))

    def test_enumerate_matches_regex_oracle(self):
        rng = random.Random(29)
        for _ in range(60):
            text = random_regex(rng, "ab")
            node = parse_regex(text)
            want = [w for w in all_words(AB, 6) if regex_matches(node, w)]
            assert enumerate_dfa(regex_to_dfa(node, AB), 6) == want, text

    def test_difference_witness_matches_product(self):
        rng = random.Random(31)
        seen = {"none": 0, "empty": 0, "word": 0}
        for i in range(300):
            a = regex_to_dfa(parse_regex(random_regex(rng, "ab")), AB)
            b = regex_to_dfa(parse_regex(random_regex(rng, "ab")), AB)
            if i % 3 == 0:
                b = dfa_union(a, b)
            # no shorter path reaches a final state of the minimal DFA of
            # the difference than one visiting each state at most once
            bound = dfa_difference(a, b).n_states - 1
            want = next(
                (w for w in all_words(AB, bound) if a.accepts(w) and not b.accepts(w)), None
            )
            assert difference_witness(a, b) == want
            assert dfa_subset(a, b) == (want is None)
            seen["none" if want is None else "empty" if want == "" else "word"] += 1
        assert min(seen.values()) >= 10, seen


class TestFromWords:
    def test_against_membership(self):
        """Random lists with duplicates and shared prefixes, sometimes empty
        or holding the empty word, against membership in their set."""
        rng = random.Random(17)
        pool = ["", "a", "b", "ab", "aba", "abab", "abb", "ba", "bab", "bbbb", "aaaaaa"]
        seen = {"empty list": 0, "empty word": 0, "duplicate": 0}
        for _ in range(200):
            words = rng.choices(pool, k=rng.randint(0, 6))
            d = dfa_from_words(AB, words)
            for w in all_words(AB, 6):
                assert d.accepts(w) == (w in words), (words, w)
            assert enumerate_dfa(d, 6) == sorted(set(words), key=lambda w: (len(w), w))
            seen["empty list"] += not words
            seen["empty word"] += "" in words
            seen["duplicate"] += len(set(words)) < len(words)
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "words, want",
        [
            ([], []),
            ([""], [""]),
            (["", "", "a"], ["", "a"]),
            (["abba", "ab", "abb", "ab"], ["ab", "abb", "abba"]),
            (iter(["b", "a"]), ["a", "b"]),
        ],
    )
    def test_fixed_lists(self, words, want):
        assert enumerate_dfa(dfa_from_words(AB, words), 6) == want

    def test_words_outside_alphabet_are_dropped(self):
        d = dfa_from_words(("a",), ["a", "ab", "ba"])
        assert enumerate_dfa(d, 4) == ["a"]


class TestPatternDfa:
    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    def test_against_matches_pattern(self, letters):
        """Every prefix and suffix of up to two letters of ``abc``, over one
        to three letters, on every word up to length 6; handles using a
        letter outside the alphabet give the empty language."""
        handles = all_words("abc", 2)
        words = all_words(letters, 6)
        for prefix in handles:
            for suffix in handles:
                want = [w for w in words if matches_pattern(w, prefix, suffix)]
                got = enumerate_dfa(pattern_dfa(tuple(letters), prefix, suffix), 6)
                assert got == want, (prefix, suffix)

    def test_matches_formal_pattern(self):
        d = pattern_dfa(AB, "a", "a")
        assert not d.accepts("a")
        assert d.accepts("aa")
        assert d.accepts("aba")
        assert not d.accepts("ab")

    def test_one_sided(self):
        assert pattern_dfa(AB, "", "b").accepts("b")
        assert pattern_dfa(AB, "a", "").accepts("a")
        assert pattern_dfa(AB, "", "").accepts("")


class TestStructural:
    def test_concat(self):
        d = dfa_concat(dfa_from_words(AB, ["a", "ab"]), dfa_from_words(AB, ["b"]))
        assert sorted(enumerate_dfa(d, 3)) == ["ab", "abb"]

    def test_concat_with_infinite_left(self):
        d = dfa_concat(regex_to_dfa(parse_regex("a*"), AB), dfa_from_words(AB, ["b"]))
        assert dfa_equivalent(d, regex_to_dfa(parse_regex("a*b"), AB))

    @staticmethod
    def random_operand(rng, letters):
        """The language of a random regex, or now and then {ε} or the empty
        language."""
        pick = rng.random()
        if pick < 0.1:
            return dfa_none(letters)
        if pick < 0.2:
            return dfa_from_words(letters, [""])
        return regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))

    def test_concat_against_brute_force(self):
        """Up to length 6, the concatenation holds exactly the joined pairs
        of enumerated operand words."""
        rng = random.Random(41)
        seen = {"empty": 0, "epsilon": 0, "infinite": 0}
        for _ in range(250):
            letters = "abc"[: rng.randint(1, 3)]
            a, b = self.random_operand(rng, letters), self.random_operand(rng, letters)
            us, vs = enumerate_dfa(a, 6), enumerate_dfa(b, 6)
            want = {u + v for u in us for v in vs if len(u) + len(v) <= 6}
            assert set(enumerate_dfa(dfa_concat(a, b), 6)) == want, (a, b)
            for d in (a, b):
                seen["empty"] += dfa_empty(d)
                seen["epsilon"] += enumerate_dfa(d, 6) == [""]
                seen["infinite"] += not dfa_is_finite(d)
        assert min(seen.values()) >= 20, seen

    def test_conjugacy_closure_against_brute_force(self):
        """Up to length 6, the closure holds exactly the rotations of the
        enumerated words."""
        rng = random.Random(43)
        seen = {"empty": 0, "epsilon": 0, "infinite": 0}
        for _ in range(250):
            letters = "abc"[: rng.randint(1, 3)]
            d = self.random_operand(rng, letters)
            want = {w[i:] + w[:i] for w in enumerate_dfa(d, 6) for i in range(len(w) + 1)}
            assert set(enumerate_dfa(conjugacy_closure(d), 6)) == want, d
            seen["empty"] += dfa_empty(d)
            seen["epsilon"] += enumerate_dfa(d, 6) == [""]
            seen["infinite"] += not dfa_is_finite(d)
        assert min(seen.values()) >= 20, seen

    def test_conjugacy_closure_of_long_word(self):
        rng = random.Random(47)
        word = "".join(rng.choice("ab") for _ in range(60))
        rotations = {word[i:] + word[:i] for i in range(60)}
        assert len(rotations) == 60
        d = conjugacy_closure(dfa_from_words(AB, [word]))
        assert set(enumerate_dfa(d, 60)) == rotations

    def test_conjugacy_closure(self):
        d = conjugacy_closure(dfa_from_words(AB, ["aab"]))
        assert set(enumerate_dfa(d, 3)) == {"aab", "aba", "baa"}

    def test_conjugacy_closure_idempotent_on_closed(self):
        d = regex_to_dfa(parse_regex("(a|b)*"), AB)
        assert dfa_equivalent(conjugacy_closure(d), d)

    def test_dfa_to_regex_text_pinned(self):
        """The exact text state elimination renders, which ``to-flat``
        prints, over a seeded corpus: random regexes, finite word sets and
        the rotation closures of a few words."""
        rng = random.Random(59)
        texts = []
        for _ in range(200):
            letters = "abc"[: rng.randint(1, 3)]
            d = regex_to_dfa(parse_regex(random_regex(rng, letters, depth=5)), tuple(letters))
            node = dfa_to_regex(d)
            texts.append("" if node == EMPTY else render_regex(node))
        for _ in range(50):
            words = [
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 6))
            ]
            texts.append(render_regex(dfa_to_regex(dfa_from_words(AB, words))))
        for word in ("aab", "abaab", "abbabaab", "aabbabbbabaaba", "abaabbbaababbbabaaab"):
            texts.append(render_regex(dfa_to_regex(conjugacy_closure(dfa_from_words(AB, [word])))))
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "73f97a1d9afac3b073866bc3a69379d84df6453e1eb4423c71c22a1a72b965c7"

    def test_dfa_to_regex_roundtrip(self):
        rng = random.Random(23)
        for _ in range(25):
            text = random_regex(rng, "ab")
            d = regex_to_dfa(parse_regex(text), AB)
            back = regex_to_dfa(dfa_to_regex(d), AB)
            assert dfa_equivalent(d, back), text


def normalized(d: Dfa) -> Dfa:
    return _normalize(d.alphabet, d.transitions, d.start, d.finals)


class TestLetterIndex:
    def test_index_is_not_part_of_the_automaton(self):
        # the letter index is built once per automaton and takes no part
        # in equality, hashing or the text of the automaton
        d = regex_to_dfa(parse_regex("(ab)*a"), ("a", "b"))
        again = Dfa(d.alphabet, d.transitions, d.start, d.finals)
        assert d.letter_index == {"a": 0, "b": 1}
        assert d == again and hash(d) == hash(again)
        assert "letter_index" not in repr(d)
        assert d.accepts("aba") and not d.accepts("ab") and not d.accepts("abc")


class TestMinimizationContract:
    """Public functions return normalized DFAs; only the private ``_reach``
    leaves automata unminimized, for callers that just search them."""

    def test_public_results_are_normalized(self):
        rng = random.Random(67)
        for _ in range(300):
            letters = "abc"[: rng.randint(1, 3)]
            alphabet = tuple(letters)
            a = TestStructural.random_operand(rng, letters)
            b = TestStructural.random_operand(rng, letters)
            text = random_regex(rng, letters)
            words = [
                "".join(rng.choices(letters, k=rng.randint(0, 5))) for _ in range(rng.randint(0, 5))
            ]
            prefix, suffix = ("".join(rng.choices(letters, k=rng.randint(0, 2))) for _ in "ps")
            for d in (
                regex_to_dfa(parse_regex(text), alphabet),
                dfa_from_words(alphabet, words),
                pattern_dfa(alphabet, prefix, suffix),
                dfa_union(a, b),
                dfa_intersect(a, b),
                dfa_difference(a, b),
                dfa_concat(a, b),
                conjugacy_closure(a),
                dfa_without_epsilon(a),
            ):
                assert normalized(d) == d, (text, words, prefix, suffix, a, b)


class TestProductWalk:
    def test_against_dfa_product(self):
        """The product of two Dfas' walks is, node for node, the product
        read off their state tables, for every op, on unminimized Dfas."""
        rng = random.Random(79)
        for _ in range(300):
            letters = ("a", "b", "c")[: rng.randint(1, 3)]
            a, b = (random_dfa(rng, letters) for _ in range(2))
            for op in ("union", "intersect", "difference"):
                want = _reach(letters, *dfa_product_walk(op, a, b))
                assert _reach(letters, *_product_walk(op, _walk(a), _walk(b))) == want, (op, a, b)


def random_dfa(rng, letters):
    """A DFA with a random table and finals, neither trimmed nor minimized."""
    n = rng.randint(1, 6)
    rows = tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n))
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(letters, rows, rng.randrange(n), finals)


class TestRotationClosed:
    def test_against_conjugacy_closure(self):
        """``_rotation_closed`` says whether the closure adds nothing, on
        normalized DFAs, on rotation closures, and on unminimized walks of
        products and closures."""
        rng = random.Random(71)
        seen = {"closed": 0, "not closed": 0, "unminimized": 0}
        for _ in range(300):
            letters = "abc"[: rng.randint(1, 3)]
            a = TestStructural.random_operand(rng, letters)
            words = ["".join(rng.choices(letters, k=rng.randint(0, 4))) for _ in range(3)]
            b = dfa_from_words(a.alphabet, words)
            op = rng.choice(["union", "intersect", "difference"])
            rot_a, rot_b = conjugacy_closure(a), conjugacy_closure(b)
            for d in (
                a,
                b,
                rot_a,
                _reach(a.alphabet, *_product_walk(op, _walk(a), _walk(b))),
                _reach(a.alphabet, *_product_walk(op, _walk(rot_a), _walk(rot_b))),
                _reach(a.alphabet, *_conjugacy_walk(a)),
            ):
                m = normalized(d)
                closed = conjugacy_closure(m) == m
                assert _rotation_closed(d) == closed, (d, m)
                seen["closed" if closed else "not closed"] += 1
                seen["unminimized"] += m != d
        assert min(seen.values()) >= 50, seen


class TestEdgeRows:
    """Guards and edge cases the other tests never reach."""

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: render_regex(("plus", ("lit", "a"))), "cannot render"),
            (
                lambda: _product_walk("xor", _walk(dfa_none(AB)), _walk(dfa_none(AB))),
                "unknown boolean op",
            ),
        ],
        ids=["render-bad-node", "product-unknown-op"],
    )
    def test_error_rows(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

    def test_empty_parts(self):
        assert union() == union(EMPTY, EMPTY) == EMPTY
        assert cat(lit("a"), EMPTY, lit("b")) == EMPTY
        assert dfa_to_regex(dfa_none(AB)) == EMPTY
        assert dfa_none(Alphabet("ba")) == dfa_none(AB)
