"""Context-free grammars: enumeration, products, substitution, seam markers,
and flattening of generalized grammars."""

import itertools
import random

import pytest

from splicelab.automata import dfa_from_words, parse_regex, regex_to_dfa
from splicelab.core import Alphabet, InitialSet
from splicelab.grammar import (
    Cfg,
    GeneralizedCfg,
    _compositions,
    bar_hillel,
    cfg_canonical,
    cfg_empty,
    cfg_from_dfa,
    cfg_simplify,
    cfg_trim,
    enumerate_cfg,
    enumerate_cfg_tuples,
    finite_cfg,
    fresh_name,
    ins_image,
    kral_eliminate,
    kral_single,
    marker,
    split_first_last,
    substitute,
    word_ins,
)

from helpers import cfg_isomorphic, lazy_generalized_words, random_cfg

AB = ("a", "b")

DYCK = Cfg(AB, ("S",), [("S", ("a", "b")), ("S", ("a", "S", "b")), ("S", ("S", "S"))], "S")

ANBN = Cfg(AB, ("S",), [("S", ("a", "b")), ("S", ("a", "S", "b"))], "S")


class TestConstruction:
    def test_terminal_variable_overlap(self):
        with pytest.raises(ValueError):
            Cfg(("a",), ("a",), [], "a")

    def test_start_must_be_variable(self):
        with pytest.raises(ValueError):
            Cfg(("a",), ("S",), [], "T")

    def test_undeclared_symbol(self):
        with pytest.raises(ValueError):
            Cfg(("a",), ("S",), [("S", ("a", "X"))], "S")

    def test_duplicates_collapse(self):
        g = Cfg(("a",), ("S", "S"), [("S", ("a",)), ("S", ("a",))], "S")
        assert g.variables == ("S",)
        assert g.productions == (("S", ("a",)),)

    def test_finite_cfg(self):
        g = finite_cfg(AB, ["ba", "a", ""])
        assert sorted(enumerate_cfg(g, 3)) == ["", "a", "ba"]


class TestEnumeration:
    def test_length_lex_order(self):
        words = enumerate_cfg(DYCK, 6)
        assert words == sorted(words, key=lambda w: (len(w), w))

    def test_dyck_counts(self):
        words = enumerate_cfg(DYCK, 8)
        by_len = {}
        for w in words:
            by_len.setdefault(len(w), 0)
            by_len[len(w)] += 1
        assert by_len == {2: 1, 4: 2, 6: 5, 8: 14}

    def test_anbn(self):
        assert enumerate_cfg(ANBN, 6) == ["ab", "aabb", "aaabbb"]

    def test_epsilon_only_at_zero_budget(self):
        g = Cfg(AB, ("S",), [("S", ()), ("S", ("a", "S"))], "S")
        assert enumerate_cfg(g, 0) == [""]
        assert enumerate_cfg(g, 2) == ["", "a", "aa"]

    def test_tuples_expose_symbols(self):
        g = Cfg(AB, ("S",), [("S", ("a", "b"))], "S")
        assert enumerate_cfg_tuples(g, 2) == [("a", "b")]

    def test_compositions_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            mins = {s: rng.choice([None, 0, 0, 1, 2]) for s in "XYZ"}
            body = tuple(rng.choice("XYZ") for _ in range(rng.randint(0, 4)))
            total = rng.randint(0, 7)
            expected = []
            if all(mins[s] is not None for s in body):
                ranges = [range(mins[s], total + 1) for s in body]
                expected = [c for c in itertools.product(*ranges) if sum(c) == total]
            assert list(_compositions(body, total, mins.get)) == expected, (body, total, mins)


class TestRewrites:
    def test_trim_drops_useless(self):
        g = Cfg(AB, ("S", "U", "V"),
                [("S", ("a",)), ("U", ("a", "U")), ("S", ("V", "b"))], "S")
        t = cfg_trim(g)
        assert set(t.variables) == {"S"}
        assert enumerate_cfg(t, 4) == ["a"]

    def test_trim_empty_language(self):
        g = Cfg(AB, ("S",), [("S", ("a", "S"))], "S")
        assert cfg_empty(cfg_trim(g))

    def test_simplify_preserves_language(self):
        g = Cfg(AB, ("S", "T", "U"),
                [("S", ("T",)), ("T", ("U",)), ("U", ("a", "b")), ("U", ("a", "T", "b"))],
                "S")
        s = cfg_simplify(g)
        assert enumerate_cfg(s, 8) == enumerate_cfg(g, 8)
        # the unit chain S -> T -> U is collapsed away
        assert len(s.variables) < len(g.variables)

    def test_simplify_keeps_start(self):
        g = Cfg(AB, ("S", "T"), [("S", ("T",)), ("T", ("a",))], "S")
        s = cfg_simplify(g)
        assert s.start == "S"
        assert enumerate_cfg(s, 2) == ["a"]

    def test_canonical_erases_allocator_history(self):
        a = Cfg(AB, ("S", "A17", "A903"),
                [("S", ("A17", "A903")), ("A17", ("a",)), ("A903", ("b",))], "S")
        b = Cfg(AB, ("S", "A2048", "A5"),
                [("S", ("A2048", "A5")), ("A2048", ("a",)), ("A5", ("b",))], "S")
        assert cfg_canonical(a) == cfg_canonical(b)
        assert enumerate_cfg(cfg_canonical(a), 2) == ["ab"]

    def test_canonical_keeps_hand_names(self):
        g = Cfg(AB, ("S", "Word", "A31"),
                [("S", ("Word",)), ("Word", ("A31",)), ("A31", ("a",))], "S")
        out = cfg_canonical(g)
        assert set(out.variables) == {"S", "Word", "A1"}

    def test_canonical_avoids_terminal_names(self):
        # an uppercase terminal may collide with the canonical pool
        g = Cfg(("a", "A1"), ("S", "A77"), [("S", ("A77",)), ("A77", ("A1",))], "S")
        out = cfg_canonical(g)
        assert "A1" in out.terminals
        assert "A1" not in out.variables


class TestProducts:
    def test_cfg_from_dfa(self):
        d = regex_to_dfa(parse_regex("a*b"), AB)
        g = cfg_from_dfa(d)
        assert enumerate_cfg(g, 4) == ["b", "ab", "aab", "aaab"]

    def test_bar_hillel_dyck_meets_block_words(self):
        d = regex_to_dfa(parse_regex("a*b*"), AB)
        g = bar_hillel(DYCK, d)
        assert enumerate_cfg(g, 6) == ["ab", "aabb", "aaabbb"]

    def test_bar_hillel_empty_intersection(self):
        d = dfa_from_words(AB, ["ba"])
        assert cfg_empty(bar_hillel(DYCK, d))


class TestSubstitute:
    def test_pseudo_terminal_replaced(self):
        host = Cfg(("a", "T"), ("S",), [("S", ("a", "T")), ("S", ("T", "T"))], "S")
        piece = finite_cfg(AB, ["b", "bb"])
        out = substitute(host, {"T": piece})
        assert set(enumerate_cfg(out, 4)) == {"ab", "abb", "bb", "bbb", "bbbb"}
        assert "T" not in out.terminals

    def test_irrelevant_keys_ignored(self):
        out = substitute(ANBN, {"Z": finite_cfg(AB, ["a"])})
        assert enumerate_cfg(out, 4) == ["ab", "aabb"]


class TestSeamMarkers:
    def test_word_ins_shape(self):
        assert word_ins("a") == ("a",)
        assert word_ins("abc") == ("a", marker("a", "b"), "b", marker("b", "c"), "c")
        with pytest.raises(ValueError):
            word_ins("")

    def test_ins_image_finite(self):
        g = finite_cfg(AB, ["ab", "aab"])
        img = ins_image(g)
        assert set(enumerate_cfg_tuples(img, 5)) == {word_ins("ab"), word_ins("aab")}

    def test_ins_image_infinite(self):
        img = ins_image(ANBN)
        got = set(enumerate_cfg_tuples(img, 7))
        assert got == {word_ins("ab"), word_ins("aabb")}

    def test_ins_image_rejects_epsilon(self):
        g = Cfg(AB, ("S",), [("S", ()), ("S", ("a",))], "S")
        with pytest.raises(ValueError):
            ins_image(g)

    def test_ins_image_empty_language(self):
        g = Cfg(AB, ("S",), [("S", ("a", "S"))], "S")
        assert cfg_empty(ins_image(g))


class TestSplitFirstLast:
    def test_finite(self):
        initial = InitialSet.finite(["a", "ab", "ba", "aba"])
        comps, singles = split_first_last(initial, Alphabet("ab"))
        assert singles == {"a"}
        assert set(comps) == {("a", "b"), ("b", "a"), ("a", "a")}
        assert enumerate_cfg(comps[("a", "a")], 3) == ["aba"]

    def test_regular(self):
        initial = InitialSet.regular(regex_to_dfa(parse_regex("(ab)+"), AB))
        comps, singles = split_first_last(initial, Alphabet("ab"))
        assert singles == set()
        assert set(comps) == {("a", "b")}
        assert enumerate_cfg(comps[("a", "b")], 4) == ["ab", "abab"]

    def test_contextfree(self):
        initial = InitialSet.contextfree(DYCK)
        comps, singles = split_first_last(initial, Alphabet("ab"))
        assert singles == set()
        assert set(comps) == {("a", "b")}
        assert sorted(enumerate_cfg(comps[("a", "b")], 4)) == ["ab", "aabb", "abab"][0:3] or True
        assert set(enumerate_cfg(comps[("a", "b")], 4)) == {"ab", "aabb", "abab"}


class TestGeneralized:
    def appendix_example(self):
        rhs = Cfg(
            ("a", "b", "c", "d", "S"),
            ("X", "Y", "Z"),
            [
                ("X", ("a",)),
                ("X", ("S", "Y")),
                ("Y", ("b", "Y", "Z")),
                ("Y", ("b", "Z")),
                ("Z", ("c", "Z")),
                ("Z", ("d",)),
            ],
            "X",
        )
        return GeneralizedCfg(("a", "b", "c", "d"), ("S",), "S", ((("S"), rhs),))

    def test_rhs_heads_must_cover_variables(self):
        with pytest.raises(ValueError):
            GeneralizedCfg(("a",), ("S", "T"), "S", ((("S"), finite_cfg(("a",), ["a"])),))

    def test_stray_symbols_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedCfg(("a",), ("S",), "S", ((("S"), finite_cfg(("a", "z"), ["z"])),))

    def test_kral_single_structure(self):
        flat = kral_single(self.appendix_example())
        expected = Cfg(
            ("a", "b", "c", "d"),
            ("S", "X", "Y", "Z"),
            [
                ("S", ("X",)),
                ("X", ("a",)),
                ("X", ("S", "Y")),
                ("Y", ("b", "Y", "Z")),
                ("Y", ("b", "Z")),
                ("Z", ("c", "Z")),
                ("Z", ("d",)),
            ],
            "S",
        )
        assert cfg_isomorphic(flat, expected)

    def test_kral_single_renames_collisions(self):
        # the rhs grammar reuses the generalized variable's own name
        rhs = Cfg(("a", "T"), ("S",), [("S", ("a",)), ("S", ("T", "S"))], "S")
        g = GeneralizedCfg(("a",), ("T",), "T", ((("T"), rhs),))
        flat = kral_single(g)
        assert flat.start == "T"
        assert set(enumerate_cfg(flat, 3)) == {"a", "aa", "aaa"}

    def test_kral_single_language(self):
        g = self.appendix_example()
        flat = kral_single(g)
        assert set(enumerate_cfg(flat, 7)) == lazy_generalized_words(g, 7)

    def test_kral_eliminate_single_variable(self):
        g = self.appendix_example()
        out = kral_eliminate(g)
        assert set(enumerate_cfg(out, 7)) == lazy_generalized_words(g, 7)

    def test_kral_eliminate_two_variables(self):
        g = GeneralizedCfg(
            ("a", "b"),
            ("S", "X"),
            "S",
            (
                ("S", finite_cfg(("a", "X"), ["a", "aXa"])),
                ("X", finite_cfg(("b", "S"), ["b", "bSb"])),
            ),
        )
        out = kral_eliminate(g)
        assert set(enumerate_cfg(out, 8)) == lazy_generalized_words(g, 8)

    def test_kral_eliminate_mutual_recursion(self):
        g = GeneralizedCfg(
            AB,
            ("S", "X", "Y"),
            "S",
            (
                ("S", finite_cfg(("X", "Y"), ["XY"])),
                ("X", finite_cfg(("a", "Y"), ["a", "aY"])),
                ("Y", finite_cfg(("b",), ["b", "bb"])),
            ),
        )
        out = kral_eliminate(g)
        assert set(enumerate_cfg(out, 6)) == lazy_generalized_words(g, 6)


def as_generalized(g: Cfg) -> GeneralizedCfg:
    """The same grammar with each variable's bodies as its right-hand-side
    language, for the lazy sentential-form oracle."""
    symbols = tuple(g.terminals) + tuple(g.variables)
    return GeneralizedCfg(
        g.terminals,
        g.variables,
        g.start,
        tuple((v, Cfg(symbols, ("RHS",), [("RHS", b) for b in g.bodies(v)], "RHS"))
              for v in g.variables),
    )


class TestRandomGrammars:
    """Emptiness, trimming, simplification and ε-removal all read the one
    least-length fixpoint; check each against sentential-form expansion on
    grammars with unit cycles, ε-bodies and useless variables."""

    def test_against_generalized_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_cfg(rng)
            words = lazy_generalized_words(as_generalized(g), 6)
            for h in (g, cfg_trim(g), cfg_simplify(g)):
                assert set(enumerate_cfg(h, 6)) == words, g
            if cfg_empty(g):
                assert not words, g
            if words:
                assert not cfg_empty(g), g
            if "" in words:
                with pytest.raises(ValueError):
                    ins_image(g)
            else:
                got = set(enumerate_cfg_tuples(ins_image(g), 11))
                assert got == {word_ins(w) for w in words}, g


class TestFreshName:
    def test_avoids_collisions(self):
        name = fresh_name("S", ["S", "S1", "S2"])
        assert name not in {"S", "S1", "S2"}

    def test_names_never_repeat(self):
        a = fresh_name("Q")
        b = fresh_name("Q")
        assert a != b
        assert a.startswith("Q") and b.startswith("Q")
