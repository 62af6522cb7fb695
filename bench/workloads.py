"""Seeded inputs for the four benchmark workloads.

Inputs are made in two stages.  ``make_specs`` turns the seed into plain
text (system files, words, regexes).  It calls the library only to print
the ``splicelab.examples`` fixtures in the system text format and to parse
two of them for the brute-force closure that member words are drawn from.
``prepare`` parses that text with the library (``parse_system``,
``parse_regex``/``regex_to_dfa``) and binds each query to one top-level
API call.  Both stages belong to the benchmark's set-up time.

Every query carries a size tier: S, M or L.  The seed changes the inputs
in two ways.  It draws fresh random inputs where their cost is bounded
well below the median query: random systems at small bounds, short or
fast-failing words, small system/target pairs.  And for the decider pairs
and the grammar workload's random systems it renames letters by a
permutation of each system's own alphabet, which changes the input but
hardly the amount of work.  The other inputs are fixed.  So the end-to-end
figures of two seeds differ by little more than the machine's own noise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import splicelab as sl
from helpers import naive_flat_closure, random_regex
from splicelab import examples

MEMBER_BUDGET = 400_000
TIERS = ("S", "M", "L")


@dataclass
class Spec:
    """One query as text, made from the seed alone."""

    kind: str
    tier: str
    label: str
    system: str | None = None
    word: str | None = None
    bound: int | None = None
    regex: str | None = None
    letters: str | None = None
    method: str | None = None
    # the query whose answer this one reads: an offset within its group,
    # made absolute by make_specs
    uses: int | None = None
    seeded: bool = False  # the input itself depends on the seed
    oracle: dict = field(default_factory=dict)


@dataclass
class Query:
    """A prepared query: parsed inputs and the single API call to time."""

    qid: int
    spec: Spec
    system: Any
    target: Any
    call: Callable[[list], Any]


# --------------------------------------------------------------------------
# text-level helpers (no library calls)


def system_text(letters, axioms, rules, mode="flat") -> str:
    """A system file; ``rules`` are (usage, alpha, beta, gamma, delta)."""
    lines = [f"alphabet {' '.join(sorted(set(letters)))}", f"mode {mode}"]
    shown = axioms if isinstance(axioms, str) else "finite " + " ".join(sorted(axioms))
    lines.append("initial " + shown)
    for usage, *hs in rules:
        a, b, g, d = (h or "-" for h in hs)
        lines.append(f"{usage} {a}#{b}${g}#{d}")
    return "\n".join(lines) + "\n"


def parse_rules(text: str):
    out = []
    for line in text.splitlines():
        usage, _, body = line.partition(" ")
        if usage in ("splice", "concat"):
            ab, gd = body.split("$")
            hs = [h if h != "-" else "" for h in ab.split("#") + gd.split("#")]
            out.append((usage, *hs))
    return out


def with_mode(text: str, mode: str) -> str:
    lines = [f"mode {mode}" if ln.startswith("mode ") else ln for ln in text.splitlines()]
    if mode == "circular":
        lines = [ln for ln in lines if not ln.startswith("concat ")]
    return "\n".join(lines) + "\n"


def shuffled(letters, rng: random.Random) -> dict:
    """A random permutation of ``letters``, as a str.translate table."""
    image = list(letters)
    rng.shuffle(image)
    return str.maketrans(dict(zip(letters, image)))


def relabel(text: str, table: dict) -> str:
    """The system with its letters renamed by ``table``."""
    lines = []
    for ln in text.splitlines():
        head, _, rest = ln.partition(" ")
        if head == "initial":
            kind, _, body = rest.partition(" ")
            ln = f"initial {kind} {body.translate(table)}".rstrip()
        elif head in ("alphabet", "splice", "concat"):
            ln = f"{head} {rest.translate(table)}"
        lines.append(ln)
    return "\n".join(lines) + "\n"


def alphabet_of(text: str) -> str:
    return "".join(next(ln.split()[1:] for ln in text.splitlines() if ln.startswith("alphabet ")))


def completed(text: str) -> str:
    """The text with every alphabetic rule closed over its empty handles
    (the rule-set completion, written without the library)."""
    letters = list(alphabet_of(text))
    head = [ln for ln in text.splitlines() if not ln.startswith(("splice ", "concat "))]
    rules = set()
    for usage, *hs in parse_rules(text):
        choices = [[h] if h else [""] + letters for h in hs]
        rules.update((usage, *c) for c in itertools.product(*choices))
    body = [f"{u} {a or '-'}#{b or '-'}${g or '-'}#{d or '-'}" for u, a, b, g, d in sorted(rules)]
    return "\n".join(head + body) + "\n"


def random_word(rng: random.Random, letters: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def random_balanced(rng: random.Random, n_pairs: int) -> str:
    """A uniformly random Dyck word over a/b (cycle lemma construction)."""
    seq = ["a"] * n_pairs + ["b"] * (n_pairs + 1)
    rng.shuffle(seq)
    depth, low, cut = 0, 0, 0
    for i, ch in enumerate(seq):
        depth += 1 if ch == "a" else -1
        if depth < low:
            low, cut = depth, i + 1
    rotated = seq[cut:] + seq[:cut]
    return "".join(rotated[:-1])


def random_system(rng, letters, *, axioms, rules, word_len, usages, handle_len, mode="flat",
                  empty=0.5):
    words = {random_word(rng, letters, 1, word_len) for _ in range(axioms)}
    made = []
    for _ in range(rules):
        usage = rng.choice(usages)
        hs = [
            "" if rng.random() < empty else random_word(rng, letters, 1, handle_len)
            for _ in range(4)
        ]
        made.append((usage, *hs))
    return system_text(letters, words, made, mode)


def fixture_texts() -> dict[str, str]:
    return {name: sl.serialize_system(build()) for name, build in examples.ALL_EXAMPLES.items()}


# --------------------------------------------------------------------------
# workload specs


def _closure_specs(rng, fx):
    groups = []

    def add(kind, tier, name, text, bound, word=None, form=None, seeded=False):
        groups.append([Spec(kind, tier, name, system=text, bound=bound, word=word,
                            seeded=seeded, oracle={"form": form})])

    generic = "splice ab#ab$ab#ab\n"  # adds no words to a Dyck set, forces the generic matcher
    done_dyck = completed(fx["dyck"])
    # name, text, bounds from small to large (the last is the L tier), closed form
    systems = [
        ("anbn", fx["anbn"], (10, 20, 40), "anbn"),
        ("anbn+generic", fx["anbn"] + "splice aa#bb$aa#bb\n", (10, 20, 40), "anbn"),
        ("concat_chain", fx["concat_chain"], (10, 20, 30), "concat_chain"),
        ("complete(concat_chain)", completed(fx["concat_chain"]), (8, 12, 16), None),
        ("paired_concat", fx["paired_concat"], (10, 20, 30), None),
        ("complete(paired_concat)", completed(fx["paired_concat"]), (8, 12, 16), None),
        ("doubling", fx["doubling"], (18, 34, 66), "doubling"),
        ("anbn_circular", fx["anbn_circular"], (10, 20, 30), "anbn"),
        ("dyck", fx["dyck"], (10, 12, 13, 14, 16), "dyck"),
        ("dyck+generic", fx["dyck"] + generic, (12, 14, 15), "dyck"),
        ("complete(dyck)", done_dyck, (10, 12, 13, 14, 16), "dyck"),
        ("complete(dyck)+generic", done_dyck + generic, (10, 12, 14), "dyck"),
        ("nested_insertions", fx["nested_insertions"], (11, 12, 13, 14, 15, 16), None),
        ("complete(nested_insertions)", completed(fx["nested_insertions"]), (11, 12, 13, 14, 15, 16), None),
        ("mixed_system", fx["mixed_system"], (10, 11, 12, 13, 14), None),
        ("complete(mixed_system)", completed(fx["mixed_system"]), (10, 11, 12, 13, 14), None),
        ("circular(dyck)", with_mode(fx["dyck"], "circular"), (10, 11, 12, 13, 14), None),
        ("circular(nested_insertions)", with_mode(fx["nested_insertions"], "circular"), (11, 12, 14), None),
        ("circular(mixed_system)", with_mode(fx["mixed_system"], "circular"), (9, 10, 11), None),
    ]
    for name, text, bounds, form in systems:
        for i, n in enumerate(bounds):
            tier = "S" if i == 0 else ("L" if i == len(bounds) - 1 else "M")
            add("closure", tier, name, text, n, form=form)
    # random two-letter systems at small bounds: the worst case (every
    # word generated) stays under a millisecond at bound 4
    for i in range(10):
        text = random_system(rng, "ab", axioms=rng.randint(1, 3), rules=rng.randint(1, 3), word_len=3,
                             usages=("splice", "concat") if i < 6 else ("splice",),
                             handle_len=1 + i % 2, mode="flat" if i < 6 else "circular")
        for tier, n in (("S", 3), ("M", 4)):
            add("closure", tier, f"random#{i}", text, n, seeded=True)
    # witness traces for words of the closed forms
    for name, text in (("dyck", fx["dyck"]), ("complete(dyck)", done_dyck)):
        for _ in range(3):
            add("witness", "M", name, text, 10, word=random_balanced(rng, rng.randint(3, 5)), seeded=True)
    for k, tier in ((3, "S"), (6, "M"), (9, "L")):
        w = "a" * k + "b" * k
        add("witness", tier, "anbn", fx["anbn"], 2 * k, word=w)
        r = rng.randrange(len(w))
        add("witness", tier, "anbn_circular", fx["anbn_circular"], 2 * k, word=w[r:] + w[:r], seeded=True)
    for j, tier in zip((1, 2, 3), TIERS):
        add("witness", tier, "doubling", fx["doubling"], 2 + 4 * 2**j, word="x" + "0123" * 2**j + "y")
    return groups


def _member_specs(rng, fx):
    groups = []

    def add(tier, name, word, derive=False, seeded=False):
        group = [Spec("member", tier, name, system=fx[name], word=word, seeded=seeded)]
        if derive:
            group.append(Spec("derivation", tier, name, system=fx[name], word=word, seeded=seeded))
        groups.append(group)

    # fixed words, whose cost is set by their length; all of M and L
    for k in range(1, 10):
        add("S" if k <= 4 else ("M" if k <= 7 else "L"), "anbn", "a" * k + "b" * k, derive=k in (3, 6))
    for k in range(5, 9):
        add("M" if k < 8 else "L", "anbn", "a" * k + "b" * (k - 1) + "a")
        add("M", "anbn", "a" * (k - 2) + "b" * (k - 1))
    for k in (5, 6):
        add("M", "anbn", "a" * k + "b" * (k + 1))
    for w in ("aababbab", "abaabbab", "aabbaabb", "aaabbabb"):
        add("M", "dyck", w, derive=True)
    for w in ("aabbabba", "ababbaba", "bbabaaaa", "abbbbbab", "abaababa", "aaabbbba"):
        add("M", "dyck", w)
    for w in ("babaabbabb", "aabaabbbba"):
        add("L", "dyck", w)
    for k in range(5, 9):
        add("M" if k < 8 else "L", "anbn_circular", "a" * k + "b" * (k - 1) + "ab")
    for k in (5, 6):
        add("M", "anbn_circular", "a" * (k + 1) + "b" * (k - 1))
    u = "0123"
    for j in range(3):
        add(TIERS[j], "doubling", "x" + u * 2**j + "y", derive=True)
    for k, tier in ((3, "S"), (4, "M"), (5, "L")):
        add(tier, "doubling", "x" + u * k + "y")
    # seeded words: a block of random bracketed words against doubling,
    # whose search fails after a near-constant amount of work and holds the
    # median, and short words that all cost several times less
    for _ in range(24):
        add("M", "doubling", "x" + random_word(rng, "0123", 12, 12) + "y", seeded=True)
    for _ in range(2):
        add("S", "anbn", random_word(rng, "ab", 4, 5), seeded=True)
    for i in range(4):
        add("S", "dyck", random_balanced(rng, 1 + i % 2), derive=i % 2 == 0, seeded=True)
    for name in ("nested_insertions", "mixed_system"):
        closure = naive_flat_closure(sl.parse_system(fx[name]), 7)
        members = sorted((w for w in closure if len(w) >= 3), key=lambda w: (len(w), w))
        for i, w in enumerate(rng.sample(members, 6)):
            add("S", name, w, derive=i % 2 == 0, seeded=True)
        for _ in range(2):
            add("S", name, random_word(rng, "abc", 4, 5), seeded=True)
    for i in range(4):
        w = "a" * (2 + i % 2) + "b" * (2 + i % 2)
        r = rng.randrange(len(w))
        add("S", "anbn_circular", w[r:] + w[:r], derive=i % 2 == 0, seeded=True)
    for _ in range(2):
        add("S", "anbn_circular", random_word(rng, "ab", 4, 4), seeded=True)
    return groups


def _decide_specs(rng, fx):
    groups = []

    def add(tier, name, text, regex, letters, expect=None):
        # the fixed pairs run under a seeded renaming of their letters,
        # which keeps the verdict class and about the same amount of work
        table = shuffled(letters, rng)
        groups.append([Spec("decide", tier, name, system=relabel(text, table),
                            regex=regex.translate(table), letters=letters, seeded=True,
                            oracle={"expect": expect})])

    ab = "ab"
    anything = [("splice", "", "", "", "")]
    cat = [("concat", "", "", "", "")]
    catalog = [
        ("anbn", fx["anbn"], "(ab)+", ab, 2),
        ("anbn", fx["anbn"], "a*b*", ab, 3),
        ("anbn", fx["anbn"], "a(a|b)*b", ab, 3),
        ("concat_chain", fx["concat_chain"], "c*ab|c", "abc", "equal"),
        ("anbn_circular", fx["anbn_circular"], "(ab)+", ab, "conjugacy"),
        ("dyck", fx["dyck"], "(a|b)(a|b)*", ab, 3),
        ("dyck", fx["dyck"], "ab(ab)*", ab, 2),
        ("circular(a+)", system_text("a", ["a"], anything, "circular"), "aa*", "a", "equal"),
        ("nested_insertions", fx["nested_insertions"], "c(a|b|c)*", "abc", None),
        ("mixed_system", fx["mixed_system"], "c*(a|b)*", "abc", None),
    ]
    for name, text, regex, letters, expect in catalog:
        add("S", name, text, regex, letters, expect)
    # families over k letters with targets of m+1 states
    for tier, (k, m) in [("S", (2, 2)), ("S", (3, 2)), ("M", (2, 3)), ("M", (4, 2)), ("M", (4, 3)),
                         ("L", (3, 3)), ("L", (2, 4)), ("L", (2, 5)), ("L", (3, 4))]:
        letters = "abcd"[:k]
        block = "(" + "|".join(letters) + ")"
        every = ["".join(p) for p in itertools.product(letters, repeat=m)]
        powers = f"{block * m}({block * m})*"
        label = f"sigma{k}^{m}"
        add(tier, label, system_text(letters, every, anything), powers, letters, "equal")
        circular = system_text(letters, every, anything, "circular")
        add(tier, "circular " + label, circular, powers, letters, "equal")
        add(tier, label + "-axiom", system_text(letters, every[:-1], anything), powers, letters, 3)
        extra = system_text(letters, every + ["a" * (m + 1)], anything)
        add(tier, label + "+axiom", extra, powers, letters, 1)
        w = "".join(letters[i % k] for i in range(m))
        add(tier, f"concat({w})", system_text(letters, [w], cat), f"({w})+", letters, "equal")
        add(tier, f"splice({w})", system_text(letters, [w], anything), f"({w})+", letters, 2)
        add(tier, f"circular({w})", system_text(letters, [w], anything, "circular"), f"({w})+",
            letters, "conjugacy")
    done = completed(fx["dyck"])
    add("L", "complete(dyck)", done, "(a|b)(a|b)((a|b)(a|b))*", ab, 3)
    add("L", "complete(dyck)", done, "(a|b)(a|b)(a|b)((a|b)(a|b)(a|b))*", ab, 1)
    # random small pairs, checked by bounded enumeration and witness replay
    for _ in range(20):
        letters = "ab"[: rng.randint(1, 2)]
        text = random_system(rng, letters, axioms=rng.randint(1, 2), rules=rng.randint(0, 2),
                             word_len=3, usages=("splice", "concat"), handle_len=1)
        groups.append([Spec("decide", "S", "random", system=text, regex=random_regex(rng, letters, 2),
                            letters=letters, seeded=True)])
    for regex, letters, tier, expect in [
        ("aa*", "a", "S", True), ("aa(aa)*", "a", "S", True), ("aaa(aaa)*", "a", "S", True),
        ("a*b", "ab", "M", False), ("(ab)+", "ab", "M", True), ("a*b*", "ab", "M", True),
        ("a(b|c)*", "abc", "L", False), ("(a|b)*c", "abc", "L", False),
        ("a(b|c|d)*", "abcd", "L", False),
    ]:
        regex = regex.translate(shuffled(letters, rng))
        groups.append([Spec("generable", tier, regex, regex=regex, letters=letters, seeded=True,
                            oracle={"expect": expect})])
    return groups


def _synthesize_specs(rng, fx):
    groups = []

    def add(tier, name, text, bound, seeded=False):
        for method in ("graft", "kral"):
            groups.append([
                Spec("synthesize", tier, name, system=text, method=method, seeded=seeded),
                Spec("serialize", tier, name, system=text, method=method, uses=0, seeded=seeded),
                Spec("enumerate", tier, name, system=text, method=method, bound=bound, uses=0,
                     seeded=seeded),
            ])

    # the fixed systems keep their letters: renaming them moves single
    # compile times by up to a fifth, enough to move the 90th percentile
    for name in ("anbn", "dyck", "nested_insertions", "concat_chain", "mixed_system",
                 "paired_concat", "anbn_circular"):
        add("S", name, fx[name], 8)
    for tail in ("", "(a|b)(a|b)"):
        text = system_text("abc", f"regex (a|b)*c{tail}", [("splice", "a", "b", "c", "")])
        add("M", f"(a|b)*c{tail}", text, 8)
    for regex in ("c(a|b)", "c(a|b)(a|b)"):
        text = system_text("abc", f"regex {regex}", [("splice", "a", "b", "c", "")], "circular")
        add("L", f"circular {regex}", text, 6)
    # random two-letter systems with letter handles, drawn once from a fixed
    # generator and renamed by the seed: freshly drawn systems have compile
    # times spread over two orders of magnitude, enough to move the median
    # query by a third from one seed to the next
    pool = random.Random("synthesize-pool")
    for i in range(6):
        text = random_system(pool, "ab", axioms=2, rules=1, word_len=2,
                             usages=("splice", "concat") if i < 4 else ("splice",), handle_len=1,
                             mode="flat" if i < 4 else "circular", empty=0.0)
        add("S", f"random#{i}", relabel(text, shuffled("ab", rng)), 7, seeded=True)
    return groups


BUILDERS = {
    "closure": _closure_specs,
    "member": _member_specs,
    "decide": _decide_specs,
    "synthesize": _synthesize_specs,
}


def make_specs(workload: str, seed: int, tiny: bool = False) -> list[Spec]:
    """The workload's queries for ``seed``, grouped queries kept adjacent.
    ``tiny`` keeps only the S tier."""
    rng = random.Random(f"{workload}:{seed}")
    groups = BUILDERS[workload](rng, fixture_texts())
    if tiny:
        groups = [g for g in groups if g[0].tier == "S"][::4]
    rng.shuffle(groups)
    specs = []
    for group in groups:
        base = len(specs)
        for spec in group:
            if spec.uses is not None:
                spec.uses += base
            specs.append(spec)
    return specs


# --------------------------------------------------------------------------
# parsing and binding


def prepare(specs: list[Spec]) -> list[Query]:
    """Parse every input once and bind each query to its API call.  The
    calls look the API up on the ``splicelab`` package at call time, so a
    traced run sees them."""
    systems: dict[str, Any] = {}
    targets: dict[tuple[str, str], Any] = {}
    queries = []
    for qid, spec in enumerate(specs):
        system = target = None
        if spec.system is not None:
            if spec.system not in systems:
                systems[spec.system] = sl.parse_system(spec.system)
            system = systems[spec.system]
        if spec.regex is not None:
            key = (spec.regex, spec.letters)
            if key not in targets:
                targets[key] = sl.regex_to_dfa(sl.parse_regex(spec.regex), tuple(spec.letters))
            target = targets[key]
        queries.append(Query(qid, spec, system, target, _bind(spec, system, target)))
    return queries


def _bind(spec: Spec, system, target) -> Callable[[list], Any]:
    kind = spec.kind
    if kind == "closure":
        return lambda got: sl.closure_bounded(system, spec.bound)
    if kind == "witness":
        return lambda got: sl.witness(system, spec.word, spec.bound)
    if kind == "member":
        return lambda got: sl.member(system, spec.word, MEMBER_BUDGET)
    if kind == "derivation":
        return lambda got: sl.derivation(system, spec.word, MEMBER_BUDGET)
    if kind == "decide":
        return lambda got: sl.decide_equal(system, target)
    if kind == "generable":
        return lambda got: sl.alphabetic_generability(target)
    if kind == "synthesize":
        return lambda got: sl.synthesize(system, spec.method)
    if kind == "serialize":
        return lambda got: sl.serialize_grammar(got[spec.uses])
    if kind == "enumerate":
        return lambda got: sl.enumerate_cfg(got[spec.uses], spec.bound)
    raise ValueError(f"unknown query kind {kind!r}")


def properties(query: Query) -> dict[str, Any]:
    """The input properties later changes key on, for the recorded shares
    and size distributions."""
    spec, system = query.spec, query.system
    props: dict[str, Any] = {"kind": spec.kind, "tier": spec.tier}
    if system is not None:
        props["alphabetic"] = system.is_alphabetic
        props["completed"] = system.is_alphabetic and sl.is_complete(system.rules, system.alphabet)
        props["circular"] = system.mode == sl.CIRCULAR
        props["rules"] = len(system.rules)
    if spec.word is not None:
        props["word_len"] = len(spec.word)
    if query.target is not None:
        props["dfa_states"] = query.target.n_states
    if spec.bound is not None:
        props["bound"] = spec.bound
    return props
