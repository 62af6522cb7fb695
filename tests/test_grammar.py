"""Context-free grammars: enumeration, products, substitution, seam markers,
and flattening of generalized grammars."""

import itertools
import random

import pytest

from splicelab.automata import dfa_from_words, parse_regex, pattern_dfa, regex_to_dfa
from splicelab.core import Alphabet, InitialSet
from splicelab.grammar import (
    Cfg,
    GeneralizedCfg,
    _first_last,
    _length_splits,
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

from helpers import cfg_isomorphic, lazy_generalized_words, naive_cfg_simplify, random_cfg

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

    def test_length_splits_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            options = [sorted(rng.sample(range(6), rng.randint(1, 3))) for _ in range(rng.randint(0, 4))]
            total = rng.randint(0, 9)
            expected = [c for c in itertools.product(*options) if sum(c) == total]
            assert sorted(_length_splits(options, total)) == expected, (options, total)

    def test_deep_nesting(self):
        # A_i -> a A_(i+1) b: one word, built through 150 levels of bodies
        n = 150
        vs = [f"A{i}" for i in range(n + 1)]
        prods = [(vs[i], ("a", vs[i + 1], "b")) for i in range(n)] + [(vs[n], ())]
        assert enumerate_cfg(Cfg(AB, vs, prods, vs[0]), 2 * n) == ["a" * n + "b" * n]


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
        assert set(enumerate_cfg(comps[("a", "b")], 4)) == {"ab", "aabb", "abab"}

    def test_contextfree_nullable_ends(self):
        # first and last letters come from behind nullable variables at
        # both ends, and from the non-nullable M in the middle
        abc = ("a", "b", "c")
        g = Cfg(abc, ("S", "P", "M", "Q"), [
            ("S", ("P", "M", "Q")), ("S", ("Q", "P")),
            ("P", ()), ("P", ("a", "P")),
            ("M", ("c", "M")), ("M", ("b",)),
            ("Q", ()), ("Q", ("Q", "b")),
        ], "S")
        comps, singles = split_first_last(InitialSet.contextfree(g), Alphabet("abc"))
        assert singles == {"a", "b"}
        unfiltered = {}
        for a in abc:
            for b in abc:
                part = bar_hillel(g, pattern_dfa(abc, a, b))
                if not cfg_empty(part):
                    unfiltered[(a, b)] = part
        # four of the nine pairs never occur, so they get no product
        assert set(comps) == set(unfiltered) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("c", "b")}
        for pair, part in unfiltered.items():
            assert cfg_canonical(comps[pair]) == cfg_canonical(part), pair


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
                image = ins_image(g)
                assert image == cfg_trim(image), g
                got = set(enumerate_cfg_tuples(image, 11))
                assert got == {word_ins(w) for w in words}, g

    def test_enumeration_to_length_eight(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_cfg(rng)
            got = enumerate_cfg_tuples(g, 8)
            assert {"".join(t) for t in got} == lazy_generalized_words(as_generalized(g), 8), g
            assert got == sorted(set(got), key=lambda t: (len(t), t)), g

    def test_first_last_against_bar_hillel(self):
        # (a, b) is a pair of the start iff a word a…b of length 2 or more
        # survives the product, or a == b is a one-letter word
        rng = random.Random(12)
        for _ in range(200):
            g = random_cfg(rng)
            letters = set(enumerate_cfg(g, 1))
            expected = {
                (a, b) for a in AB for b in AB
                if not cfg_empty(bar_hillel(g, pattern_dfa(AB, a, b))) or (a == b and a in letters)
            }
            assert _first_last(g)[g.start] == expected, g


def unit_heavy_cfg(rng: random.Random) -> Cfg:
    """A grammar of 2–7 variables whose bodies are mostly empty or one
    symbol, and whose start is any of them: unit cycles, self-loops,
    ε-bodies and inlinings that make two productions equal all occur."""
    variables = [f"V{i}" for i in range(rng.randint(2, 7))]
    symbols = list(AB) + variables
    prods = [
        (v, tuple(rng.choice(symbols) for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))))
        for v in variables
        for _ in range(rng.randint(0, 3))
    ]
    return Cfg(AB, variables, prods, rng.choice(variables))


class TestSimplify:
    """The indexed cfg_simplify against the round-by-round oracle: equal
    grammars, so the same variables survive in the same order."""

    def test_against_round_by_round(self):
        rng = random.Random(41)
        rewritten = 0
        for _ in range(2500):
            g = unit_heavy_cfg(rng)
            got = cfg_simplify(g)
            assert got == naive_cfg_simplify(g), g
            rewritten += got != cfg_trim(g)
        assert rewritten > 400

    def test_unit_cycles(self):
        # a cycle of single-body unit variables derives nothing: whichever
        # member is inlined first leaves the other on a self-loop, and the
        # trim drops it
        g = Cfg(AB, ("S", "B", "A"),
                [("S", ("A",)), ("S", ("B", "b")), ("A", ("B",)), ("B", ("A",)), ("S", ("a",))], "S")
        assert cfg_simplify(g) == naive_cfg_simplify(g) == Cfg(AB, ("S",), [("S", ("a",))], "S")
        g = Cfg(AB, ("S", "A", "B"),
                [("S", ("A", "B")), ("A", ("B",)), ("B", ("A",)), ("B", ("a",))], "S")
        assert cfg_simplify(g) == naive_cfg_simplify(g)

    def test_duplicate_keeps_earliest(self):
        g = Cfg(AB, ("S", "X", "Y"),
                [("S", ("X", "b")), ("S", ("a", "b")), ("S", ("Y", "b")), ("X", ("a",)), ("Y", ("a",))],
                "S")
        out = cfg_simplify(g)
        assert out == naive_cfg_simplify(g)
        assert out.productions == (("S", ("a", "b")),)

    def test_long_unit_chain(self):
        # A_i -> A_(i+1), 2000 deep: one production once the chain is inlined
        vs = [f"A{i}" for i in range(2000)]
        prods = [(vs[i], (vs[i + 1],)) for i in range(1999)] + [(vs[-1], ("a",))]
        out = cfg_simplify(Cfg(AB, vs, prods, vs[0]))
        assert out.productions == (("A0", ("a",)),)


class TestFreshName:
    def test_avoids_collisions(self):
        name = fresh_name("S", ["S", "S1", "S2"])
        assert name not in {"S", "S1", "S2"}

    def test_names_never_repeat(self):
        a = fresh_name("Q")
        b = fresh_name("Q")
        assert a != b
        assert a.startswith("Q") and b.startswith("Q")
