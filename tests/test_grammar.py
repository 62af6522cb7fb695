"""Context-free grammars: enumeration, products, substitution, seam markers,
and flattening of generalized grammars."""

import itertools
import random
import sys
from collections import Counter

import pytest

from splicelab import grammar
from splicelab.automata import (
    Dfa,
    dfa_empty,
    dfa_from_words,
    dfa_intersect,
    dfa_is_finite,
    parse_regex,
    pattern_dfa,
    regex_to_dfa,
)
from splicelab.core import Alphabet, InitialSet
from splicelab.fileformat import serialize_grammar
from splicelab.grammar import (
    Cfg,
    GeneralizedCfg,
    _binarize,
    _first_last,
    _first_last_dfa,
    _generating_ends,
    _length_splits,
    _min_lengths,
    _projected_ends,
    _remove_epsilon,
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
)

from helpers import (
    bar_hillel,
    cfg_isomorphic,
    lazy_generalized_words,
    naive_cfg_simplify,
    naive_first_last,
    naive_generating_ends,
    naive_min_lengths,
    random_cfg,
    random_regex,
    word_ins,
)

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

    def test_messages_name_the_first_offender(self):
        # the checks run in one order, and the productions are checked in
        # order, head before body
        cases = [
            ((("S", "a"), ("a", "S"), [], "T"), "symbols both terminal and variable: ['S', 'a']"),
            ((("a",), ("S",), [("X", ("Y",))], "T"), "start symbol 'T' is not a variable"),
            ((("a",), ("S",), [("S", ("a",)), ("X", ("Y",)), ("Z", ())], "S"),
             "production head 'X' is not a variable"),
            ((("a",), ("S",), [("S", ("a", "Y", "Z")), ("X", ())], "S"), "undeclared symbol 'Y' in a body"),
            ((("a",), ("S", "S"), [("S", ("a",)), ("S", ("a",)), ("S", ("S", "b"))], "S"),
             "undeclared symbol 'b' in a body"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as err:
                Cfg(*args)
            assert str(err.value) == message, args

    def test_random_invalid_grammars_name_the_first_offender(self):
        def first_offence(terminals, variables, productions, start):
            overlap = set(terminals) & set(variables)
            if overlap:
                return f"symbols both terminal and variable: {sorted(overlap)}"
            if start not in variables:
                return f"start symbol {start!r} is not a variable"
            known = set(variables) | set(terminals)
            for head, body in productions:
                if head not in variables:
                    return f"production head {head!r} is not a variable"
                for sym in body:
                    if sym not in known:
                        return f"undeclared symbol {sym!r} in a body"
            return None

        rng = random.Random(7)
        symbols = ["a", "b", "x", "S", "T", "U"]
        outcomes = Counter()
        for _ in range(400):
            # mostly apart, sometimes sharing a symbol
            terminals = rng.sample(symbols[:3], rng.randint(0, 3))
            variables = rng.sample(symbols[3:], rng.randint(1, 3))
            if rng.random() < 0.1:
                terminals.append(rng.choice(variables))
            heads = variables + ["T", "U"]
            productions = [
                (rng.choice(heads), tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(0, 4))
            ]
            start = rng.choice(variables) if rng.random() < 0.9 else rng.choice(symbols)
            expected = first_offence(terminals, variables, productions, start)
            if expected is None:
                Cfg(terminals, variables, productions, start)
                outcomes["valid"] += 1
                continue
            with pytest.raises(ValueError) as err:
                Cfg(terminals, variables, productions, start)
            assert str(err.value) == expected, (terminals, variables, productions, start)
            outcomes[expected.split(" ")[0]] += 1
        assert min(outcomes[k] for k in ("valid", "symbols", "start", "production", "undeclared")) >= 10, outcomes

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
        # A_i -> a A_(i+1) b: one word, built through 1000 levels of bodies;
        # each level is visited only at the one length it can use
        n = 1000
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


def product_pairs(n: int):
    """``n`` (grammar, automaton) pairs over a and b: random grammars, with
    the Dyck and aⁿbⁿ grammars mixed in, against automata of random
    regexes, with the empty language every tenth time."""
    rng = random.Random(1961)
    fixed = [DYCK, ANBN]
    for i in range(n):
        g = fixed[i // 5 % 2] if i % 5 == 0 else random_cfg(rng)
        regex = random_regex(rng, "ab")
        d = dfa_from_words(AB, []) if i % 10 == 3 else regex_to_dfa(parse_regex(regex), AB)
        yield g, d


class TestBarHillel:
    """The product against filtering the grammar's own words, and its
    shape: it builds only triples that are reachable and generating, so it
    equals its own trim."""

    def test_pinned_bytes(self):
        # the generating triples are found as sets; the productions still
        # come out in one order, whatever the hash seed
        d = regex_to_dfa(parse_regex("a*b*|(ab)*"), AB)
        assert serialize_grammar(cfg_canonical(bar_hillel(DYCK, d))) == (
            "start B1\n"
            "terminals a b\n"
            "B1 -> B2 | B3 | B4\n"
            "B2 -> a B9\n"
            "B3 -> a b\n"
            "B4 -> B3 B7 | B4 B8\n"
            "B5 -> a b | a B10\n"
            "B6 -> a b | a B10\n"
            "B7 -> a b | B7 B8\n"
            "B8 -> a b | B8 B8\n"
            "B9 -> B5 b\n"
            "B10 -> B6 b\n"
        )

    def test_against_filtered_enumeration(self):
        seen = Counter()
        for g, d in product_pairs(300):
            got = bar_hillel(g, d)
            words = enumerate_cfg(g, 6)
            assert enumerate_cfg(got, 6) == [w for w in words if d.accepts(w)], (g, d)
            assert got == cfg_trim(got), (g, d)
            seen.update({
                "grammar ε": "" in words,
                "grammar empty": cfg_empty(g),
                "automaton ε": d.start in d.finals,
                "automaton empty": not d.finals,
                "automaton infinite": not dfa_is_finite(d),
                "product non-empty": not cfg_empty(got),
            })
        for case in ("grammar ε", "grammar empty", "automaton ε", "automaton empty",
                     "automaton infinite", "product non-empty"):
            assert seen[case] >= 20, (case, seen)


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

    def test_graft_terminal_that_is_a_host_variable_rejected(self):
        # the result is built unchecked, so substitute itself refuses a
        # graft whose terminals name a variable of the host
        graft = Cfg(("a", "S"), ("R",), [("R", ("a", "S"))], "R")
        with pytest.raises(ValueError, match="both terminal and variable"):
            substitute(ANBN, {"a": graft})


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

    def test_regular_matches_per_pair_products(self):
        # one product with the (first, last, length) tracker, minimized per
        # pair, gives the automaton of the intersection with that pair's
        # pattern, so the grammars have the same bytes
        rng = random.Random(1912)
        seen = Counter()
        for i in range(300):
            letters = ("a", "b", "c")[: 2 + i % 2]
            n = rng.randint(1, 6)
            rows = tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n))
            finals = frozenset(s for s in range(n) if rng.random() < 0.4)
            initial = InitialSet.regular(Dfa(letters, rows, 0, finals))
            comps, singles = split_first_last(initial, Alphabet(letters))
            assert singles == {a for a in letters if initial.dfa.accepts(a)}
            expected = {}
            for a in letters:
                for b in letters:
                    part = dfa_intersect(initial.dfa, pattern_dfa(letters, a, b))
                    if not dfa_empty(part):
                        expected[(a, b)] = serialize_grammar(cfg_from_dfa(part))
            assert list(comps) == list(expected), (rows, finals)
            for pair, part in comps.items():
                assert serialize_grammar(part) == expected[pair], (rows, finals, pair)
            seen.update({"empty": not comps, "several pairs": len(comps) > 1, "single letters": bool(singles)})
        for case in ("empty", "several pairs", "single letters"):
            assert seen[case] >= 20, (case, seen)

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


    def test_contextfree_matches_per_pair_products(self):
        # one generating-triple fixpoint against the (first, last, length)
        # tracker, read off per pair, builds the product bar_hillel builds
        # against that pair's pattern automaton on its own
        rng = random.Random(1964)
        seen = Counter()
        for i in range(300):
            letters = ("a", "b", "c")[: 1 + i % 3]
            g = random_cfg(rng, letters, max_body=3)
            # a one-letter body on about half the variables, so that most
            # grammars generate something
            extra = [(v, (rng.choice(letters),)) for v in g.variables if rng.random() < 0.5]
            g = Cfg(g.terminals, g.variables, g.productions + tuple(extra), g.start)
            comps, singles = split_first_last(InitialSet.contextfree(g), Alphabet(letters))
            assert singles == {w for w in enumerate_cfg(g, 1) if w}, g
            expected = {}
            for a in letters:
                for b in letters:
                    part = bar_hillel(g, pattern_dfa(letters, a, b))
                    if not cfg_empty(part):
                        expected[(a, b)] = serialize_grammar(cfg_canonical(part))
            assert list(comps) == list(expected), g
            for pair, part in comps.items():
                assert serialize_grammar(cfg_canonical(part)) == expected[pair], (g, pair)
            seen.update({
                "empty": not comps and not singles,
                "one pair": len(comps) == 1,
                "several pairs": len(comps) > 1,
                "three letters, several pairs": len(letters) == 3 and len(comps) > 1,
                "single letters": bool(singles),
            })
        for case in ("empty", "one pair", "several pairs", "three letters, several pairs", "single letters"):
            assert seen[case] >= 20, (case, seen)


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

    def test_kral_single_start_among_terminals_rejected(self):
        rhs = Cfg(("a", "T"), ("S",), [("S", ("a", "T"))], "S")
        with pytest.raises(ValueError, match="both terminal and variable"):
            kral_single(GeneralizedCfg(("a", "T"), ("T",), "T", (("T", rhs),)))

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


def random_generalized(rng: random.Random, case: str) -> GeneralizedCfg:
    """A generalized grammar over a and b with 2–4 variables, each
    right-hand side a random grammar of 1–3 variables over the letters and
    every generalized variable, forced to hold ``case``:

    - ``"non-generating"``: a non-start variable X whose only right-hand
      word is X itself, so its closure is empty;
    - ``"unused"``: a right-hand side that declares a non-start variable
      among its terminals but uses it in no production;
    - ``"mutual"``: two variables whose right-hand sides use each other."""
    gvars = ["S"] + rng.sample(["X", "Y", "Z"], rng.randint(1, 3))
    symbols = AB + tuple(gvars)

    def rhs(pool) -> Cfg:
        variables = [f"R{i}" for i in range(rng.randint(1, 3))]
        pool = list(pool) + variables
        prods = [
            (v, tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))
            for v in variables
            for _ in range(rng.randint(0, 2))
        ]
        return Cfg(symbols, variables, prods, variables[0])

    langs = {v: rhs(symbols) for v in gvars}
    x = rng.choice(gvars[1:])
    if case == "non-generating":
        langs[x] = Cfg(symbols, ("R0",), [("R0", (x,))], "R0")
    elif case == "unused":
        host = rng.choice([v for v in gvars if v != x])
        langs[host] = rhs([s for s in symbols if s != x])
    else:
        y = rng.choice([v for v in gvars if v != x])
        for v, w, letter in ((x, y, "a"), (y, x, "b")):
            h = langs[v]
            langs[v] = Cfg(symbols, h.variables, h.productions + ((h.start, (letter, w)),), h.start)
    return GeneralizedCfg(AB, gvars, "S", [(v, langs[v]) for v in gvars])


def trimmed_rhs(g: GeneralizedCfg) -> GeneralizedCfg:
    return GeneralizedCfg(g.terminals, g.variables, g.start,
                          [(v, cfg_trim(h)) for v, h in g.rhs_languages])


CASES = ("non-generating", "unused", "mutual")


def oracle_kral_single(g: GeneralizedCfg) -> Cfg:
    """The closure step of the oracle below: ``kral_single`` with its
    argument checks, building a validated grammar."""
    if len(g.variables) != 1:
        raise ValueError("kral_single requires exactly one variable")
    s = g.start
    [(_, h)] = g.rhs_languages
    if s in g.terminals:
        raise ValueError(f"symbols both terminal and variable: [{s!r}]")
    forbidden = {s} | set(g.terminals)
    avoid = forbidden | set(h.variables)
    mapping = {v: fresh_name("K", avoid) for v in h.variables if v in forbidden}
    m = mapping.get
    prods = [(s, (m(h.start, h.start),))]
    prods += [(m(head, head), tuple([m(x, x) for x in body])) for head, body in h.productions]
    variables = (s, *[m(v, v) for v in h.variables])
    return Cfg(g.terminals, variables, tuple(prods), s)


def oracle_kral_eliminate(g: GeneralizedCfg) -> Cfg:
    """Elimination that closes every non-start variable, used or not, and
    declares in each closure the grammar's terminals and every remaining
    variable: the oracle for the closures ``kral_eliminate`` builds only
    where a right-hand side uses them, over that side's own symbols."""
    rhs = {v: c for v, c in g.rhs_languages}
    remaining = list(g.variables)
    for x in [v for v in g.variables if v != g.start]:
        others = [v for v in remaining if v != x]
        closure = oracle_kral_single(
            GeneralizedCfg(
                tuple(g.terminals) + tuple(others),
                (x,),
                x,
                ((x, rhs[x]),),
            )
        )
        empty = cfg_empty(closure)
        for v in others:
            h = rhs[v]
            if x not in h.terminals:
                continue
            kept = [(head, body) for head, body in h.productions if x not in body]
            used = len(kept) < len(h.productions)
            if used and not empty:
                rhs[v] = substitute(h, {x: closure})
            else:
                terminals = tuple(t for t in h.terminals if t != x)
                rest = Cfg(terminals, h.variables, tuple(kept), h.start)
                rhs[v] = cfg_trim(rest) if used else rest
        remaining.remove(x)
        del rhs[x]
    final = oracle_kral_single(
        GeneralizedCfg(g.terminals, (g.start,), g.start, ((g.start, rhs[g.start]),))
    )
    return cfg_simplify(final)


class TestKralEliminate:
    """Variable elimination against sentential-form expansion, and the
    shape of its steps: a right-hand side takes a closure only where it
    uses the variable, and stays trimmed without a trim after the graft."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """Record every closure, graft and trim that ``kral_eliminate``
        makes, and check that each graft goes into a host using the
        variable and leaves a trimmed grammar, and that each right-hand
        side closed is trimmed.  The checks hold when the right-hand sides
        given are trimmed."""
        log = []
        real_substitute, real_closure, real_trim = substitute, grammar._closure, cfg_trim

        def graft(h, sigma):
            [x] = sigma
            assert any(x in body for _, body in h.productions), (x, h)
            out = real_substitute(h, sigma)
            assert out == real_trim(out), (x, h)
            log.append("graft")
            return out

        def closure(x, h, terminals):
            assert h == real_trim(h), h
            log.append("closure")
            return real_closure(x, h, terminals)

        def trim(g):
            log.append("trim")
            return real_trim(g)

        monkeypatch.setattr(grammar, "substitute", graft)
        monkeypatch.setattr(grammar, "_closure", closure)
        monkeypatch.setattr(grammar, "cfg_trim", trim)
        return log

    def test_against_generalized_oracle(self):
        rng = random.Random(1988)
        for i in range(240):
            g = random_generalized(rng, CASES[i % 3])
            expected = lazy_generalized_words(g, 6)
            assert set(enumerate_cfg(kral_eliminate(g), 6)) == expected, g
            assert set(enumerate_cfg(kral_eliminate(trimmed_rhs(g)), 6)) == expected, g

    def test_steps_on_trimmed_right_hand_sides(self, steps):
        rng = random.Random(1988)
        for i in range(240):
            kral_eliminate(trimmed_rhs(random_generalized(rng, CASES[i % 3])))
        assert steps.count("graft") >= 100, Counter(steps)
        assert steps.count("closure") >= 240 + 100, Counter(steps)

    def test_against_closing_every_variable(self):
        # the same grammar, up to the names of minted variables, as the
        # oracle that closes every variable over every remaining symbol
        rng = random.Random(1988)
        for i in range(240):
            g = random_generalized(rng, CASES[i % 3])
            for case in (g, trimmed_rhs(g)):
                expected = cfg_canonical(oracle_kral_eliminate(case))
                assert cfg_canonical(kral_eliminate(case)) == expected, case

    def test_one_closure_per_used_variable(self, monkeypatch):
        # the oracle's steps between two of its emptiness tests belong to
        # one eliminated variable, and graft or trim only where a remaining
        # right-hand side uses it; elimination closes exactly those
        # variables, tests each closure for emptiness once, and closes the
        # start
        def logged(real, log, name):
            def call(*args):
                log.append(name)
                return real(*args)
            return call

        oracle_log, log = [], []
        for name in ("cfg_empty", "substitute", "cfg_trim"):
            monkeypatch.setitem(globals(), name, logged(globals()[name], oracle_log, name))
        for name in ("_closure", "cfg_empty"):
            monkeypatch.setattr(grammar, name, logged(getattr(grammar, name), log, name))
        rng = random.Random(1988)
        skipped = 0
        for _ in range(240):
            g = random_generalized(rng, "unused")
            oracle_log.clear()
            oracle_kral_eliminate(g)
            turns = " ".join(oracle_log).split("cfg_empty")[1:]
            assert len(turns) == len(g.variables) - 1, oracle_log
            used = sum("substitute" in turn or "cfg_trim" in turn for turn in turns)
            log.clear()
            kral_eliminate(g)
            assert Counter(log) == Counter(_closure=used + 1, cfg_empty=used), (g, log)
            skipped += len(turns) - used
        assert skipped >= 300, skipped

    def test_local_variable_named_like_a_generalized_one(self):
        # S's right-hand side has a local variable X and uses only Y, so
        # Y's closure, grafted into it, must not declare X a terminal
        g = GeneralizedCfg(AB, ("S", "Y", "X"), "S", (
            ("S", Cfg(("a", "Y"), ("X",), [("X", ("a", "Y"))], "X")),
            ("Y", finite_cfg(("b",), ["b"])),
            ("X", finite_cfg(("a",), ["a"])),
        ))
        assert lazy_generalized_words(g, 4) == {"ab"}
        assert set(enumerate_cfg(kral_eliminate(g), 4)) == {"ab"}

    def test_local_variable_named_like_a_grafted_symbol(self):
        # S's right-hand side has a local variable Y and uses X, whose
        # closure uses the generalized Y: the local Y is renamed apart
        # before the graft
        g = GeneralizedCfg(AB, ("S", "X", "Y"), "S", (
            ("S", Cfg(AB + ("X",), ("Y",), [("Y", ("a", "X"))], "Y")),
            ("X", Cfg(AB + ("Y",), ("T",), [("T", ("b", "Y"))], "T")),
            ("Y", Cfg(AB, ("U",), [("U", ("b",))], "U")),
        ))
        assert lazy_generalized_words(g, 4) == {"abb"}
        assert set(enumerate_cfg(kral_eliminate(g), 4)) == {"abb"}

    def test_long_right_hand_word_with_nullable_variables(self):
        # S's one right-hand word has 7 symbols, but each X may vanish, so
        # the oracle must erase them before it bounds the length
        symbols = AB + ("S", "X")
        g = GeneralizedCfg(AB, ("S", "X"), "S", (
            ("S", Cfg(symbols, ("R",), [("R", ("X",) * 6 + ("a",))], "R")),
            ("X", Cfg(symbols, ("Q",), [("Q", ()), ("Q", ("b",))], "Q")),
        ))
        expected = {"b" * k + "a" for k in range(4)}
        assert lazy_generalized_words(g, 4) == expected
        assert set(enumerate_cfg(kral_eliminate(g), 4)) == expected

    def test_empty_closure(self, steps):
        # X's only right-hand word is X, so S loses R -> a T, and then T
        symbols = AB + ("S", "X")
        g = GeneralizedCfg(AB, ("S", "X"), "S", (
            ("S", Cfg(symbols, ("R", "T"), [("R", ("a", "T")), ("R", ("b",)), ("T", ("X",))], "R")),
            ("X", Cfg(symbols, ("Q",), [("Q", ("X",))], "Q")),
        ))
        out = kral_eliminate(g)
        assert out == Cfg(AB, ("S",), [("S", ("b",))], "S")
        assert lazy_generalized_words(g, 6) == {"b"}
        # no graft; X's closure is empty, so one trim drops T from S's
        # right-hand side, and the other is the one cfg_simplify makes
        # before it inlines the closed start
        assert steps == ["closure", "trim"] * 2

    def test_unused_variable(self, steps):
        # S declares X (b*) among its terminals but only derives a+
        symbols = AB + ("S", "X")
        g = GeneralizedCfg(AB, ("S", "X"), "S", (
            ("S", Cfg(symbols, ("R",), [("R", ("a", "R")), ("R", ("a",))], "R")),
            ("X", Cfg(symbols, ("Q",), [("Q", ("b", "X")), ("Q", ())], "Q")),
        ))
        out = kral_eliminate(g)
        assert set(enumerate_cfg(out, 6)) == {"a" * n for n in range(1, 7)}
        assert set(out.terminals) == set(AB)
        # no closure of X and no graft; the one trim is the one
        # cfg_simplify makes
        assert steps == ["closure", "trim"]


def grammar_cases(g: Cfg, minlen: dict) -> dict[str, bool]:
    """Which of the shapes the fixpoints must get right ``g`` has."""
    reach = cfg_trim(g).variables
    units = {(h, b[0]) for h, b in g.productions if len(b) == 1 and b[0] in g.varset}
    return {
        "nullable": 0 in minlen.values(),
        "non-generating": None in minlen.values(),
        "unreachable": any(minlen[v] is not None and v not in reach for v in g.variables),
        "unit cycle": any((b, a) in units or a == b for a, b in units),
    }


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

    def test_enumeration_against_oracle_with_composite_terminals(self):
        # terminals of several characters, as seam markers are, count as
        # one symbol each; the oracle counts characters, so it reads a
        # copy whose terminals are single letters
        rng = random.Random(2024)
        terminals = ("a", "M_a_b", "xy")
        single = {"a": "a", "M_a_b": "m", "xy": "x"}
        seen = Counter()
        for i in range(240):
            variables = [f"V{j}" for j in range(rng.randint(2, 5))]
            symbols = list(terminals) + variables
            prods = [
                (v, tuple(rng.choice(symbols) for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))))
                for v in variables
                for _ in range(rng.randint(0, 3))
            ]
            g = Cfg(terminals, variables, prods, variables[0])
            copy = Cfg(tuple(single.values()), variables,
                       [(h, tuple(single.get(s, s) for s in b)) for h, b in prods], variables[0])
            max_len = i % 10
            got = enumerate_cfg_tuples(g, max_len)
            assert got == sorted(set(got), key=lambda t: (len(t), t)), g
            expected = lazy_generalized_words(as_generalized(copy), max_len)
            assert {"".join(single[s] for s in t) for t in got} == expected, (g, max_len)
            cases = grammar_cases(g, grammar._min_lengths(g))
            cases.update(composite=any(len(s) > 1 for t in got for s in t), words=bool(got))
            seen.update(case for case, holds in cases.items() if holds)
        for case in ("nullable", "non-generating", "unreachable", "unit cycle", "composite", "words"):
            assert seen[case] >= 20, (case, seen)

    def test_first_last_against_bar_hillel(self):
        # (a, b) is a pair of a variable iff a word a…b of length 2 or more
        # survives the product, or a == b is a one-letter word; the pairs
        # are read from the ε-free binarized grammar ins_image builds, and
        # checked for each of its variables
        rng = random.Random(12)
        checked = 0
        while checked < 200:
            g = random_cfg(rng)
            if _min_lengths(g)[g.start] == 0:
                continue
            h = cfg_trim(_remove_epsilon(_binarize(g)))
            pairs = _first_last(h)
            for v in h.variables:
                hv = Cfg(h.terminals, h.variables, h.productions, v)
                letters = set(enumerate_cfg(hv, 1))
                expected = {
                    (a, b) for a in AB for b in AB
                    if not cfg_empty(bar_hillel(hv, pattern_dfa(AB, a, b))) or (a == b and a in letters)
                }
                assert pairs[v] == expected, (g, v)
            checked += 1


class TestSettleOnce:
    """The fixpoints that settle each fact once (least lengths from a heap,
    semi-naive triples and pairs, lazily projected rows) against the
    round-robin oracles in helpers, over 400 seeded random grammars."""

    def test_against_round_robin_oracles(self):
        rng = random.Random(28)
        tracker = _first_last_dfa(AB)
        patterns = [pattern_dfa(AB, a, b) for a in AB for b in AB]
        seen = Counter()
        for _ in range(400):
            g = random_cfg(rng, max_body=3)
            minlen = _min_lengths(g)
            assert minlen == naive_min_lengths(g), g
            assert list(minlen) == list(g.variables)
            assert cfg_empty(g) == (minlen[g.start] is None), g
            seen.update(case for case, holds in grammar_cases(g, minlen).items() if holds)
            b = _binarize(g)
            tracked = _generating_ends(b, tracker)
            assert tracked == naive_generating_ends(b, tracker), g
            for d in patterns:
                expected = naive_generating_ends(b, d)
                assert _generating_ends(b, d) == expected, (g, d)
                projected = _projected_ends(tracked, tracker, d)
                rows = {v: [projected[v][p] for p in range(d.n_states)] for v in projected}
                assert rows == expected, (g, d)
            if minlen[g.start] not in (None, 0):
                h = cfg_trim(_remove_epsilon(b))
                assert _first_last(h) == naive_first_last(h), g
                seen["pairs"] += 1
        for case in ("nullable", "non-generating", "unreachable", "unit cycle", "pairs"):
            assert seen[case] >= 20, (case, seen)

    def test_kernel_copies_equal_validated_grammars(self, monkeypatch):
        # every grammar the kernel builds through its private constructor
        # is the grammar Cfg(...) builds from the same parts: no duplicate
        # variable or production, every symbol declared, the same varset
        built = Counter()
        trusted = Cfg._trusted.__func__

        def checked(cls, *parts):
            out = trusted(cls, *parts)
            again = Cfg(out.terminals, out.variables, out.productions, out.start)
            assert out == again and repr(out) == repr(again) and out.varset == again.varset, parts
            built[sys._getframe(1).f_code.co_name] += 1
            return out

        monkeypatch.setattr(Cfg, "_trusted", classmethod(checked))
        rng = random.Random(28)
        graft = Cfg(("b", "c"), ("S", "T"), [("S", ("c", "T")), ("T", ()), ("T", ("b", "S"))], "S")
        for i in range(400):
            g = random_cfg(rng, max_body=3)
            cfg_canonical(cfg_simplify(g))
            bar_hillel(g, pattern_dfa(AB, *rng.choice([("a", "b"), ("b", "b"), ("", "a")])))
            substitute(g, {rng.choice(AB): graft})
            if _min_lengths(g)[g.start] not in (None, 0):
                ins_image(g)
                split_first_last(InitialSet.contextfree(g), Alphabet("ab"))
            kral_eliminate(random_generalized(rng, CASES[i % 3]))
        sites = ("cfg_trim", "cfg_simplify", "cfg_canonical", "_binarize", "_product",
                 "substitute", "_closure", "kral_eliminate", "ins_image")
        assert set(built) == set(sites), built
        assert all(built[site] >= 20 for site in sites), built


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

    def test_inlining_keeps_trimmed(self):
        # inlining a variable's one body into a trimmed grammar leaves it
        # trimmed, so cfg_simplify needs no trim after it inlines
        rng = random.Random(43)
        rewritten = 0
        for i in range(2400):
            g = cfg_trim(random_cfg(rng) if i % 2 else unit_heavy_cfg(rng))
            got = cfg_simplify(g)
            assert got == cfg_trim(got), g
            rewritten += got != g
        assert rewritten > 400, rewritten

    def test_unit_cycles(self):
        # a cycle of single-body unit variables derives nothing, so the
        # trim before inlining drops it
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


A = finite_cfg(AB, ["a"])


class TestEdgeRows:
    """Guards the other tests never reach."""

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (
                lambda: bar_hillel(ANBN, pattern_dfa(("a", "b", "c"))),
                "does not match automaton alphabet",
            ),
            (
                lambda: GeneralizedCfg(AB, ("S",), "T", (("S", A),)),
                "start symbol 'T' is not a variable",
            ),
            (
                lambda: kral_single(GeneralizedCfg(AB, ("S", "T"), "S", (("S", A), ("T", A)))),
                "exactly one variable",
            ),
            (
                lambda: split_first_last(
                    InitialSet.contextfree(finite_cfg(("a", "c"), ["ac"])), Alphabet("ab")
                ),
                "letters outside the alphabet",
            ),
        ],
        ids=["bar-hillel", "generalized-start", "kral-two-variables", "split-stray-letter"],
    )
    def test_error_rows(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()
