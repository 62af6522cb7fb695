"""Compiling splicing systems to context-free grammars."""

import hashlib
import random

import pytest

from splicelab.automata import regex_to_dfa
from splicelab.closure import closure_bounded
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialSet,
    SplicingRule,
    SplicingSystem,
)
from splicelab.examples import (
    ALL_EXAMPLES,
    anbn,
    anbn_circular,
    concat_chain,
    dyck,
    mixed_system,
    nested_insertions,
    paired_concat,
)
from splicelab.fileformat import serialize_grammar
from splicelab.grammar import _min_lengths, enumerate_cfg
from splicelab import synthesis
from splicelab.synthesis import concat_grammar, pure_grammar, synthesize
from splicelab.transform import complete_system, to_heterogeneous

from helpers import random_system


def closure_words(system, max_len):
    """Flat closure as strings, plus the empty word if the loader saw one."""
    words = set(closure_bounded(system, max_len))
    if system.initial.had_epsilon:
        words.add("")
    return words


def grammar_words(g, max_len):
    return set(enumerate_cfg(g, max_len))


class TestGuards:
    def test_flat_only(self):
        with pytest.raises(ValueError):
            pure_grammar(complete_system(anbn_circular()))

    def test_complete_only(self):
        with pytest.raises(ValueError):
            pure_grammar(complete_system(mixed_system()))  # impure rule c#-$-#b

    def test_incomplete_rejected(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["ab"]),
            rules=frozenset([SplicingRule("a", "b", "", "b")]),
            mode=FLAT,
        )
        with pytest.raises(ValueError):
            pure_grammar(system)

    def test_concat_grammar_rejects_splice_rules(self):
        with pytest.raises(ValueError):
            concat_grammar(complete_system(anbn()))

    def test_pure_grammar_rejects_concat_rules(self):
        with pytest.raises(ValueError):
            pure_grammar(complete_system(concat_chain()))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pure_grammar(complete_system(anbn()), method="magic")

    @pytest.mark.parametrize(
        "rule, initial, fragment",
        [
            (SplicingRule("ab", "", "", ""), InitialSet.finite(["ab"]), "alphabetic rules"),
            (
                SplicingRule("a", "b", "a", "b"),
                InitialSet.regular(regex_to_dfa("(ab)*", ("a", "b"))),
                "contains the empty word",
            ),
        ],
        ids=["not-alphabetic", "epsilon"],
    )
    def test_error_rows(self, rule, initial, fragment):
        system = SplicingSystem(Alphabet("ab"), initial, frozenset([rule]))
        for build in (pure_grammar, concat_grammar):
            with pytest.raises(ValueError, match=fragment):
                build(system)


class TestPureGrammar:
    def test_block_language(self):
        g = pure_grammar(complete_system(anbn()))
        assert enumerate_cfg(g, 10) == ["a" * n + "b" * n for n in range(1, 6)]

    def test_matches_closure(self):
        system = complete_system(anbn())
        g = pure_grammar(system)
        assert grammar_words(g, 8) == closure_words(system, 8)

    def test_nested_insertions_match_closure(self):
        system = complete_system(nested_insertions())
        g = pure_grammar(system)
        assert grammar_words(g, 8) == closure_words(system, 8)

    def test_graft_and_elimination_agree(self):
        for build in (anbn, nested_insertions):
            system = complete_system(build())
            a = pure_grammar(system, method="graft")
            b = pure_grammar(system, method="kral")
            assert grammar_words(a, 8) == grammar_words(b, 8)


class TestConcatGrammar:
    def test_chain_language(self):
        g = concat_grammar(complete_system(concat_chain()))
        assert grammar_words(g, 6) == {"c", "ab", "cab", "ccab", "cccab", "ccccab"}

    def test_matches_closure(self):
        system = complete_system(concat_chain())
        g = concat_grammar(system)
        assert grammar_words(g, 8) == closure_words(system, 8)

    def test_paired_concat_matches_closure(self):
        system = complete_system(paired_concat())
        g = concat_grammar(system)
        assert grammar_words(g, 10) == closure_words(system, 10)

    def test_non_regular_shape(self):
        g = concat_grammar(complete_system(paired_concat()))
        words = grammar_words(g, 10)
        assert "ab" in words and "acabdb" in words and "acacabdbdb" in words
        assert "acab" not in words


class TestSynthesize:
    @pytest.mark.parametrize(
        "build", [anbn, dyck, mixed_system, nested_insertions, concat_chain, paired_concat]
    )
    def test_fixture_languages(self, build):
        system = build()
        g = synthesize(system)
        assert grammar_words(g, 8) == closure_words(system, 8)

    def test_circular_systems_flattened(self):
        circ = anbn_circular()
        g = synthesize(circ)
        flat = set()
        for w in closure_bounded(circ, 8):
            flat |= set(w.linearize())
        assert grammar_words(g, 8) == flat

    def test_epsilon_axiom_readded(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet(kind="finite", words=frozenset({"ab"}), had_epsilon=True),
            rules=frozenset([SplicingRule("a", "b", "a", "b")]),
            mode=FLAT,
        )
        g = synthesize(system)
        assert "" in grammar_words(g, 4)
        assert grammar_words(g, 4) == {"", "ab", "aabb"}

    def test_unknown_method_rejected_first(self, monkeypatch):
        # the method is checked before the concatenation stage is built
        def unreachable(*args):
            raise AssertionError("concatenation stage built")

        monkeypatch.setattr(synthesis, "concat_grammar", unreachable)
        with pytest.raises(ValueError, match="unknown method 'grafT'"):
            synthesize(anbn_circular(), method="grafT")

    def test_elimination_method_agrees(self):
        system = mixed_system()
        a = synthesize(system, method="graft")
        b = synthesize(system, method="kral")
        assert grammar_words(a, 8) == grammar_words(b, 8)

    def test_random_systems(self):
        rng = random.Random(71)
        for _ in range(30):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            g = synthesize(system)
            assert grammar_words(g, 7) == closure_words(system, 7), system

    def test_random_circular_systems(self):
        rng = random.Random(72)
        for _ in range(15):
            system = random_system(rng, mode=CIRCULAR)
            g = synthesize(system)
            flat = set()
            for w in closure_bounded(system, 6):
                flat |= set(w.linearize())
            assert grammar_words(g, 6) == flat, system

    @pytest.mark.parametrize("method", ["graft", "kral"])
    def test_long_axiom(self, method):
        # a 1500-letter axiom binarizes to a chain of about 1500 variables,
        # which every fixpoint over the grammar has to walk
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["ab" * 750]),
            rules=frozenset([SplicingRule("a", "b", "a", "b")]),
            mode=FLAT,
        )
        g = synthesize(system, method=method)
        assert _min_lengths(g)[g.start] == 1500


# sha256 of serialize_grammar output per (construction, fixture, method,
# simplified).  Every construction returns a simplified grammar, so the
# fourth column is always True; it stays so each row keeps its test id.
# The README promises byte-deterministic grammars, so a change inside the
# grammar kernel that keeps every language but moves a single byte of a
# compiled grammar fails here; a deliberate change of output updates the
# table.
GRAMMAR_DIGESTS = [
    ("synthesize", "anbn", "graft", True,
     "7a20a3ad3b8d1d705b3a918f0964d56d9158c98bc4070ddbbbe2315c419aa112"),
    ("synthesize", "anbn", "kral", True,
     "46494667bcc07ce5c87522f626ffb54af739adde5835ac48fc586d5377bb0ddb"),
    ("synthesize", "anbn_circular", "graft", True,
     "0bfc10d9a42eb3526698bdd9345707f286400850ff816922c91d8acb9a4c7371"),
    ("synthesize", "anbn_circular", "kral", True,
     "7dbf81b484a8c418bed9d7e8a08d8eba60b6d5d9a7ddadd23cac9ce81ae58cf4"),
    ("synthesize", "dyck", "graft", True,
     "2b4cad0e949efa5fd22e35b42b0cb40c16ee876d0304e1d9101836f7505af754"),
    ("synthesize", "dyck", "kral", True,
     "1d54cfbf9cc05527b93e05ffd5debdca2a98baa622a20533ce51d3f73dcfbb3e"),
    ("synthesize", "nested_insertions", "graft", True,
     "d7cac2e3f86acea22f3e77b31a23cdb2ef65729ee38a1202a1eba8f8734caa32"),
    ("synthesize", "nested_insertions", "kral", True,
     "82d16c6984dc31d9d17bff34f51cedc5bdd3a692a6dc1758771ca151fe729b7d"),
    ("synthesize", "concat_chain", "graft", True,
     "887d671fca4b2b491d089cc404bd8176384d58113005e8c5bad788ff18613df9"),
    ("synthesize", "concat_chain", "kral", True,
     "0dc5d657704d8877b2a7b29d799625bf8562c6b964b583cb71a2a4ee0680bb6d"),
    ("synthesize", "mixed_system", "graft", True,
     "ea60c9b9fb77f0cc820e031ab2de66aadbfadb18302dbd60651122b5b98bab22"),
    ("synthesize", "mixed_system", "kral", True,
     "535790454dfad13af7c615b7ba85f5d70515383ab38314ae5ceaadf05ff62de3"),
    ("synthesize", "paired_concat", "graft", True,
     "e80fe6634ae617d2a401038ca0876ae5251a974767420357a3100a1e6605c876"),
    ("synthesize", "paired_concat", "kral", True,
     "4fd29b2c48b53098eab1ea36d4e46572741fcf7efa60acbdce494b473d853a59"),
    ("concat_grammar", "concat_chain", None, True,
     "ba5ccc3b3416da586fc602e9825c433c31bc4bc130daaa9d9b0931eb33d4b2cd"),
    ("concat_grammar", "paired_concat", None, True,
     "9460771d6792b273846f2c5a6e42e4a23f8bf695d8ab1f290217c7943001dffb"),
    ("pure_grammar", "anbn", "graft", True,
     "7a20a3ad3b8d1d705b3a918f0964d56d9158c98bc4070ddbbbe2315c419aa112"),
    ("pure_grammar", "anbn", "kral", True,
     "46494667bcc07ce5c87522f626ffb54af739adde5835ac48fc586d5377bb0ddb"),
    ("pure_grammar", "nested_insertions", "graft", True,
     "261ecb5bd30a26b7854515c2542ac626d010052da026e405778d406989f92cbe"),
    ("pure_grammar", "nested_insertions", "kral", True,
     "2eb91ef46e1abf7d02ed790277aa2dee8f4eef25b5f5788b7b4d9609afd8e571"),
]


def compiled_grammar(construction, fixture, method):
    system = ALL_EXAMPLES[fixture]()
    if construction == "synthesize":
        return synthesize(system, method)
    if construction == "concat_grammar":
        return concat_grammar(complete_system(system))
    return pure_grammar(complete_system(system), method)


class TestGrammarBytes:
    @pytest.mark.parametrize(
        "construction,fixture,method,simplified,digest",
        GRAMMAR_DIGESTS,
        ids=["-".join(map(str, row[:4])) for row in GRAMMAR_DIGESTS],
    )
    def test_serialized_digest(self, construction, fixture, method, simplified, digest):
        g = compiled_grammar(construction, fixture, method)
        text = serialize_grammar(g)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text
