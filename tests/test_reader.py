"""The explicit-stack reader against the recursive reference parser on
seeded printed and mutated texts of every category; read-back of printed
skeletons, terms and types 1,000 levels deep; and the memory one print of
a skeleton holds."""

import random
import tracemalloc

import reference_parser as ref
from fskel import surface
from fskel.initial import initial_skeleton
from fskel.surface import (
    ParseError, parse_skeleton, parse_term, parse_type, print_expansion,
    print_skeleton, print_term, print_type, print_type_env,
)
from fskel.syntax import (
    Abs, App, Arrow, Forall, FreshSupply, QAbs, QApp, QEVar, QForall, QSub,
    QVar, QWeak, TVar, TypeEnv, Var,
)
from generators import (
    mutate_text, random_env, random_expansion, random_skeleton_shape, random_term,
    random_type, random_valid_skeleton,
)

TVARS = ["a", "b", "c"]
NAMES = ["x", "y", "z"]
ENTRIES = ("term", "type", "expansion", "subst", "constraint", "type_env", "skeleton")
READERS = {name: getattr(surface, f"parse_{name}") for name in ENTRIES}
REFERENCE = {name: getattr(ref, f"parse_{name}") for name in ENTRIES}


def _outcome(parse, text):
    """The value read, or the error's line, column and message."""
    try:
        return "value", parse(text)
    except (ParseError, ref.ParseError) as e:
        return "error", (e.line, e.col, e.message)


def _printed(rng: random.Random, i: int) -> str:
    match i % 4:
        case 0:
            return print_type(random_type(rng, TVARS, rng.randrange(6)))
        case 1:
            return print_term(random_term(rng, rng.randrange(1, 12), []))
        case 2:
            return print_type_env(random_env(rng, TVARS, NAMES))
        case _:
            if rng.random() < 0.5:
                return print_skeleton(random_valid_skeleton(rng))
            return print_skeleton(random_skeleton_shape(rng, TVARS, NAMES, rng.randrange(6)))


def test_reader_agrees_with_the_reference_parser():
    """10,000 printed types, terms, environments and skeletons, four in five
    of them mutated, through every entry point: the same value, or the same
    message at the same line and column."""
    rng = random.Random(20121101)
    counts = {"value": 0, "error": 0}
    for i in range(10_000):
        text = _printed(rng, i)
        if rng.random() < 0.8:
            text = mutate_text(rng, text)
        for name in ENTRIES:
            got = _outcome(READERS[name], text)
            assert got == _outcome(REFERENCE[name], text), (name, text)
            counts[got[0]] += 1
    assert counts["value"] > 3_000 and counts["error"] > 60_000, counts


def test_constraints_expansions_and_substs_read_their_types_as_before():
    # these categories keep their recursive descent, which reads each type
    # in them with the new type reader
    rng = random.Random(1101)
    for _ in range(1_000):
        texts = [print_expansion(random_expansion(rng, TVARS, 3)),
                 "[a := " + print_type(random_type(rng, TVARS, 4)) + ", s := "
                 + print_expansion(random_expansion(rng, TVARS, 2)) + "]"]
        guard = random_type(rng, TVARS, 3)
        texts.append(f"s^{{a; {print_type(guard)}}} ({print_type(random_type(rng, TVARS, 3))}"
                     f" <= {print_type(random_type(rng, TVARS, 3))}) & ex b. b <= a")
        for text in texts:
            text = mutate_text(rng, text) if rng.random() < 0.5 else text
            for name in ("expansion", "subst", "constraint"):
                assert _outcome(READERS[name], text) == _outcome(REFERENCE[name], text), text


# ---------------------------------------------------------------------------
# Depth: no reader or printer here recurses on the nesting

DEPTH = 1_000
A = TVar("a")
LEAF = QVar("x", TypeEnv((("x", A),)))


def _deep_skeletons():
    deep_type = A
    for _ in range(DEPTH):
        deep_type = Arrow(deep_type, A)  # ((a -> a) -> a) -> ...: parenthesised
    shapes = {"abstractions": lambda q, i: QAbs("x", q),
              "quantifiers": lambda q, i: QForall(f"a{i}", q),
              "arguments": lambda q, i: QApp(LEAF, q),
              "functions": lambda q, i: QApp(QSub(QAbs("x", q), A), LEAF),
              "steps": lambda q, i: QWeak(QForall("b", QSub(q, A)), TypeEnv()),
              "prefixes": lambda q, i: QEVar(f"s{i}", frozenset({"a"}), q),
              "prefixed applications": lambda q, i: QEVar("s", frozenset(), QApp(q, LEAF))}
    for name, grow in shapes.items():
        q = LEAF
        for i in range(DEPTH):
            q = grow(q, i)
        yield name, q
    yield "type parentheses", QSub(QVar("x", TypeEnv((("x", deep_type),))), deep_type)


def test_printed_skeletons_read_back_at_depth():
    for name, q in _deep_skeletons():
        text = print_skeleton(q)
        assert parse_skeleton(text) == q, name
        assert hash(parse_skeleton(text)) == hash(q), name


def test_terms_and_types_read_at_depth():
    m, text = Var("y"), "y"
    for _ in range(DEPTH):
        m, text = App(Var("g"), m), f"g @ ({text})"
    assert parse_term("\\g. \\y. " + text) == Abs("g", Abs("y", m))
    assert parse_term("\\x. " * DEPTH + "x") == parse_term("\\x. " * DEPTH + "(x)")
    t, text = A, "a"
    for _ in range(DEPTH):
        t, text = Forall("a", Arrow(t, A)), f"all a. ({text}) -> a"
    assert parse_type(text) is t
    assert parse_type(print_type(t)) is t


def _chain_skeleton(n: int):
    """The initial skeleton of \\g. \\y. g @ (... @ y) with n applications."""
    text = "y"
    for _ in range(n):
        text = f"g @ ({text})"
    q, _, _ = initial_skeleton(parse_term("\\g. \\y. " + text), FreshSupply())
    return q


def test_print_skeleton_holds_memory_linear_in_its_output():
    # no node keeps its text, so a print holds its output and its pieces;
    # a table of every node's text held n times more at n = 160 (2.1 MB)
    peaks = {}
    for n in (80, 160):
        q = _chain_skeleton(n)
        print_skeleton(q)  # the types keep their texts; measure the print alone
        tracemalloc.start()
        try:
            text = print_skeleton(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * len(text), (n, peak, len(text))
        peaks[n] = peak
    assert peaks[160] < 2.5 * peaks[80], peaks
