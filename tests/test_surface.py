"""Surface syntax: parsing, printing, precedence, and error reporting."""

import functools
import random
from pathlib import Path

import pytest

import reference_parser
from fskel.surface import (
    ParseError, Parser, parse_constraint, parse_expansion, parse_skeleton,
    parse_subst, parse_term, parse_type, parse_type_env, print_constraint,
    print_expansion, print_skeleton, print_subst, print_term, print_type,
    print_type_env,
)
from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, EGuard, EVarApp, Exists, Forall, Id, QApp,
    QSub, SubStep, TVar, Var, canonical_constraint, constraint_eq,
)
from generators import mutate_text, random_expansion, random_type, random_valid_skeleton

CLI_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "cli" / "inputs"


def test_term_application_left_assoc():
    assert parse_term("f @ g @ h") == App(App(Var("f"), Var("g")), Var("h"))
    assert parse_term("\\x. x @ y") == Abs("x", App(Var("x"), Var("y")))


def test_arrow_right_assoc():
    assert parse_type("a -> b -> c") == Arrow(TVar("a"), Arrow(TVar("b"), TVar("c")))
    assert parse_type("(a -> b) -> c") == Arrow(Arrow(TVar("a"), TVar("b")), TVar("c"))


def test_forall_extends_right():
    assert parse_type("all a. a -> a") == Forall("a", Arrow(TVar("a"), TVar("a")))


def test_evar_application_binds_tightly():
    t = parse_type("s^{a,b} c -> d")
    assert t == Arrow(EVarApp("s", frozenset({"a", "b"}), TVar("c")), TVar("d"))
    assert parse_type("s^{} (a -> b)") == EVarApp(
        "s", frozenset(), Arrow(TVar("a"), TVar("b")))


def test_expansion_sub_step():
    i = parse_expansion("id |> a -> b")
    assert i == SubStep(Id(), Arrow(TVar("a"), TVar("b")))
    i2 = parse_expansion("id |> a |> b")
    assert i2 == SubStep(SubStep(Id(), TVar("a")), TVar("b"))


def test_subst_backtracks_between_types_and_expansions():
    phi = parse_subst("[a := b -> b, s := all b. id, t := id |> c]")
    kinds = [type(v).__name__ for _, v in phi.bindings]
    assert kinds == ["Arrow", "ForallIntro", "SubStep"]


def test_constraint_parsing():
    c = parse_constraint("ex a. (a <= b & s^{a; b} omega)")
    printed = print_constraint(c)
    assert printed == "ex a. a <= b & s^{a; b} omega"
    assert parse_constraint(printed) == c


def test_type_env_parsing():
    env = parse_type_env("{x: a -> b, y: all a. a}")
    assert env.lookup("x") == Arrow(TVar("a"), TVar("b"))
    assert print_type_env(env) == "{x: a -> b, y: all a. a}"
    assert print_type_env(parse_type_env("{}")) == "{}"


def test_skeleton_postfix_operators():
    q = parse_skeleton("x<x: a> |> b + {y: c}")
    from fskel.syntax import QWeak
    assert isinstance(q, QWeak)
    assert isinstance(q.body, QSub)


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_type("a -> ->")
    assert "1:" in str(e.value)
    with pytest.raises(ParseError):
        parse_term("\\x x")
    with pytest.raises(ParseError):
        parse_type("a -> b extra")


def test_round_trip_random_types_and_expansions():
    rng = random.Random(11)
    for _ in range(500):
        t = random_type(rng, ["a", "b"], 4)
        assert parse_type(print_type(t)) == t
        i = random_expansion(rng, ["a", "b"], 3)
        assert parse_expansion(print_expansion(i)) == i


def test_round_trip_random_skeletons():
    rng = random.Random(12)
    for _ in range(300):
        q = random_valid_skeleton(rng)
        assert parse_skeleton(print_skeleton(q)) == q


def test_round_trip_repeated_groups():
    """Texts that repeat environments and parenthesised types read back to
    the value printed, and equal environment texts give one environment."""
    rng = random.Random(20121101)
    for _ in range(200):
        q, r = random_valid_skeleton(rng), random_valid_skeleton(rng)
        t = random_type(rng, ["a", "b"], 4)
        for whole in (QApp(QApp(q, r), q), QSub(QSub(QApp(r, q), t), Arrow(t, t))):
            assert parse_skeleton(print_skeleton(whole)) == whole
        twice = Arrow(Arrow(t, t), Arrow(t, t))
        assert parse_type(print_type(twice)) == twice
    q = parse_skeleton("x<x: (a -> b) -> a> @ (x<x: (a -> b) -> a> |> (a -> b) -> a)")
    assert q.fun.env is q.arg.body.env
    assert q.fun.env.entries[0][1] is q.arg.target


def test_repeated_groups_are_read_once(monkeypatch):
    """chainN.skel repeats one environment at each of its N + 1 leaves and
    one parenthesised `|>` target at each of its N steps. Each copy after
    the first is read as one token run, so reading it enters type_ once per
    step (for the target) and not once per type in the copy; the only other
    calls read the two entries of the first environment."""
    calls = [0]
    real = Parser.type_

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(Parser, "type_", counted)
    counts = {}
    for n in (10, 20, 40, 80):
        calls[0] = 0
        parse_skeleton((CLI_INPUTS / f"chain{n}.skel").read_text())
        counts[n] = calls[0]
    assert counts == {n: n + 2 for n in counts}


def test_round_trip_terms_and_substs():
    for s in ["\\x. x", "\\x. \\y. x @ y", "(\\x. x) @ (\\y. y)", "x @ y @ z"]:
        assert print_term(parse_term(s)) == s
    for s in ["[a := b -> b, s := all b. id]", "[]", "[s := id |> a -> a]"]:
        assert print_subst(parse_subst(s)) == s


PARSE = {"term": parse_term, "type": parse_type, "expansion": parse_expansion,
         "subst": parse_subst, "constraint": parse_constraint,
         "type_env": parse_type_env, "skeleton": parse_skeleton}
PRINT = {"term": print_term, "type": print_type, "expansion": print_expansion,
         "subst": print_subst, "constraint": print_constraint,
         "type_env": print_type_env, "skeleton": print_skeleton}

# (entry point, text, the exact ParseError message, or None if it parses)
ERRORS = [
    ('type', 'a -> ->', "1:6: expected 'ident', found '->'"),
    ('type', 'a -> b extra', "1:8: trailing input starting at 'extra'"),
    ('type', '', "1:1: expected 'ident', found 'end of input'"),
    ('type', '   \n\t ', "2:3: expected 'ident', found 'end of input'"),
    ('type', 'all . a', "1:5: expected 'ident', found '.'"),
    ('type', 'all all. a', "1:5: expected 'ident', found 'all'"),
    ('type', 'a ->', "1:5: expected 'ident', found 'end of input'"),
    ('type', '(a -> b', "1:8: expected ')', found 'end of input'"),
    ('type', 's^{a b', "1:6: expected '}', found 'b'"),
    ('type', 's^{a,} b', "1:6: expected 'ident', found '}'"),
    ('type', 's^{a} ', "1:7: expected 'ident', found 'end of input'"),
    ('type', 'a\n  -> b\n\t-> )', "3:5: expected 'ident', found ')'"),
    ('type', 'a\r\n-> b\r\n-> 1', "3:4: unexpected character '1'"),
    ('type', 'a ->\tb²', None),
    ('type', '²', "1:1: unexpected character '²'"),
    ('type', 'Ⅻ -> a', "1:1: unexpected character 'Ⅻ'"),
    ('type', 'é -> b²\n-> Ⅻ', "2:4: unexpected character 'Ⅻ'"),
    ('type', 'a - b', "1:3: unexpected character '-'"),
    ('type', 'a | b', "1:3: unexpected character '|'"),
    ('type', 'a\x0bb', "1:2: unexpected character '\\x0b'"),
    ('type', 'a\xa0-> b', "1:2: unexpected character '\\xa0'"),
    ('type', "'a", '1:1: unexpected character "\'"'),
    ('term', '\\x x', "1:4: expected '.', found 'x'"),
    ('term', '\\omega. x', "1:2: expected 'ident', found 'omega'"),
    ('term', '\\x. x @', "1:8: expected 'ident', found 'end of input'"),
    ('term', '(x @ y', "1:7: expected ')', found 'end of input'"),
    ('term', 'x y', "1:3: trailing input starting at 'y'"),
    ('term', '\\x.\r\n\tx @ @ y', "2:6: expected 'ident', found '@'"),
    ('term', 'x @ id', "1:5: expected 'ident', found 'id'"),
    ('term', '\\é. é @ 1', "1:9: unexpected character '1'"),
    ('expansion', 'id |>', "1:6: expected 'ident', found 'end of input'"),
    ('expansion', 's^{a} id id', "1:10: trailing input starting at 'id'"),
    ('expansion', 's id', "1:3: expected '^', found 'id'"),
    ('expansion', 'all ex. id', "1:5: expected 'ident', found 'ex'"),
    ('subst', '[a := b', "1:8: expected ']', found 'end of input'"),
    ('subst', '[a = b]', "1:4: unexpected character '='"),
    ('subst', '[a := , b := c]', "1:7: expected 'ident', found ','"),
    ('subst', 'a := b', "1:1: expected '[', found 'a'"),
    ('subst', '[ex := b]', "1:2: expected 'ident', found 'ex'"),
    ('constraint', 'a <=', "1:3: expected '^', found '<='"),
    ('constraint', 'a <= b &', "1:9: expected 'ident', found 'end of input'"),
    ('constraint', 'a & b', "1:3: expected '^', found '&'"),
    ('constraint', 'ex all. a <= b', "1:4: expected 'ident', found 'all'"),
    ('constraint', 's^{a; } omega', "1:7: expected 'ident', found '}'"),
    ('constraint', 's^{a; b omega', "1:9: expected '}', found 'omega'"),
    ('constraint', 'omega omega', "1:7: trailing input starting at 'omega'"),
    ('constraint', '(a <= b', "1:8: expected ')', found 'end of input'"),
    ('constraint', 'a <= b\n& \tc <= d\n& e', "3:4: expected '^', found 'end of input'"),
    ('type_env', '{x: a', "1:6: expected '}', found 'end of input'"),
    ('type_env', '{x a}', "1:4: expected ':', found 'a'"),
    ('type_env', '{id: a}', "1:2: expected 'ident', found 'id'"),
    ('type_env', 'x: a', "1:1: expected '{', found 'x'"),
    ('skeleton', 'x<x: a', "1:7: expected '>', found 'end of input'"),
    ('skeleton', 'x<x: a> @', "1:10: expected 'ident', found 'end of input'"),
    ('skeleton', 'x', "1:2: expected '<', found 'end of input'"),
    ('skeleton', '\\x. x<x: a> |>', "1:15: expected 'ident', found 'end of input'"),
    ('skeleton', 'x<x: a> + {y: }', "1:15: expected 'ident', found '}'"),
    ('skeleton', 'x<x: a> extra<>', "1:9: trailing input starting at 'extra'"),
    ('skeleton', 'all omega. x<x: a>', "1:5: expected 'ident', found 'omega'"),
    ('skeleton', '\\x.\r\n  x<x: a ->\r\n\t> @ y<>', "3:2: expected 'ident', found '>'"),
    ('skeleton', '\\x. x<x: a -> > @\n', "1:15: expected 'ident', found '>'"),
    ('skeleton', 's^{a} (x<x: a>', "1:15: expected ')', found 'end of input'"),
    ('skeleton', 'x<x: ²>', "1:6: unexpected character '²'"),
    ('skeleton', 'x<é: a> @ y<y: Ⅻ>', "1:16: unexpected character 'Ⅻ'"),
    ("skeleton", "\\é. é<é: a>", None),
    # a copy of a group that read fine earlier in the same text, then a failure
    ('skeleton', 'x<x: (a -> b)> @ y<y: (a -> b>', "1:30: expected ')', found '>'"),
    ('skeleton', 'x<x: a -> b, y: c> @ x<x: a -> b, y: c> @ )', "1:43: expected 'ident', found ')'"),
    ('skeleton', 'x<x: (a -> b) -> c> @ y<y: (a -> b) c>', "1:37: expected '>', found 'c'"),
    ('skeleton', 'x<x: (a -> b)> |> (a -> b) |> (a -> b) -> )', "1:43: expected 'ident', found ')'"),
    ('type', '(a -> b) -> (a -> b) c', "1:22: trailing input starting at 'c'"),
    ('constraint', '((a -> b)) <= c & ((a -> b)) c', "1:23: expected '^', found '->'"),
    ('subst', '[s := (a -> b), t := (a -> b) |>]', "1:31: expected ']', found '|>'"),
]


@pytest.mark.parametrize("entry, text, message", ERRORS)
def test_parse_error_messages(entry, text, message):
    if message is None:
        value = PARSE[entry](text)
        assert PARSE[entry](PRINT[entry](value)) == value
        return
    with pytest.raises(ParseError) as e:
        PARSE[entry](text)
    assert str(e.value) == message
    assert str(e.value) == f"{e.value.line}:{e.value.col}: {e.value.message}"


def test_reference_parser_gives_the_same_messages():
    # the oracle of tests/test_reader.py reports every case above alike
    for entry, text, message in ERRORS:
        parse = getattr(reference_parser, f"parse_{entry}")
        if message is None:
            assert parse(text) == PARSE[entry](text)
            continue
        with pytest.raises(reference_parser.ParseError) as e:
            parse(text)
        assert str(e.value) == message


def test_mutated_inputs_parse_or_raise_parse_error():
    """Every entry point, on seeded mutations of valid texts of every
    category, returns a value that survives a print and a re-parse, or
    raises ParseError."""
    rng = random.Random(20121101)
    texts = ["\\x. \\y. x @ y", "(\\x. x) @ (\\y. y) @ z",
             "[a := b -> b, s := all b. id, t := id |> c]",
             "ex a. (a <= b & s^{a; b} omega) & s^{a,b; all c. c} t^{} c <= d",
             "{x: a -> b, y: all a. s^{a} a}"]
    for _ in range(60):
        texts.append(print_type(random_type(rng, ["a", "b"], 4)))
        texts.append(print_expansion(random_expansion(rng, ["a", "b"], 3)))
        texts.append(print_skeleton(random_valid_skeleton(rng)))
    parsed = 0
    for _ in range(3000):
        text = mutate_text(rng, rng.choice(texts))
        for entry, parse in PARSE.items():
            try:
                value = parse(text)
            except ParseError:
                continue
            assert parse(PRINT[entry](value)) == value, (entry, text)
            parsed += 1
    assert parsed > 600


def test_print_constraint_deep_conjunctions():
    atoms = [Atomic(TVar(f"a{i}"), TVar("c")) for i in range(2000)]
    text = " & ".join(f"a{i} <= c" for i in range(2000))
    left = functools.reduce(And, atoms)
    right = functools.reduce(lambda c, a: And(a, c), reversed(atoms))
    assert print_constraint(left) == text
    assert print_constraint(right) == text
    canonical = print_constraint(canonical_constraint(left))
    assert constraint_eq(parse_constraint(canonical), right)
    guarded = atoms[0]
    for i in range(500):
        guarded = EGuard(f"s{i}", frozenset({"a"}), TVar("c"), Exists(f"x{i}", guarded))
    printed = print_constraint(guarded)
    assert printed.startswith("s499^{a; c} (ex x499. s498^{a; c} (ex x498. ")
    assert printed.endswith("a0 <= c" + ")" * 500)


def test_parenthesised_constraint_atoms_are_read_once(monkeypatch):
    """A '(' in a constraint opens a type or a constraint; the parser reads
    what follows once, so its type_ calls do not grow with the nesting."""
    calls = [0]
    real = Parser.type_

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(Parser, "type_", counted)
    forms = [("a <= b", "", "a <= b"),
             ("a", " <= b", "a <= b"),
             ("(a) -> b", " <= b & c <= c", "(a -> b) <= b & c <= c"),
             ("s^{a; b} ((a) <= b) & ex c. c <= c", "", "s^{a; b} a <= b & ex c. c <= c")]
    for inner, rest, plain in forms:
        counts = []
        for k in (50, 100, 200):
            calls[0] = 0
            text = "(" * k + inner + ")" * k + rest
            assert parse_constraint(text) == parse_constraint(plain)
            counts.append(calls[0])
        assert counts[2] <= 2 * counts[1] + 2 and counts[1] <= 2 * counts[0] + 2
    # a failure is reported as the reading as a parenthesised constraint
    # reports it, as before the choice was left-factored
    for text, message in [("((a)) <=", "1:4: expected '^', found ')'"),
                          ("((s^{a} a) -> ) <= b", "1:7: expected ';', found '}'"),
                          ("((all a. a)) & b", "1:3: expected 'ident', found 'all'"),
                          ("((a -> b) <= c", "1:15: expected ')', found 'end of input'"),
                          ("(((a <= b) & (c)) <= d)", "1:16: expected '^', found ')'")]:
        with pytest.raises(ParseError) as e:
            parse_constraint(text)
        assert str(e.value) == message
