"""Core syntax: canonical forms, equalities, environments, free variables."""

import random

from fskel.syntax import (
    And, Arrow, Atomic, EGuard, EVarApp, Exists, Forall, FreshSupply, Omega,
    Subst, TVar, TypeEnv, canonical_constraint, canonical_type, constraint_eq,
    fresh_name, ftv, type_eq,
)
from fskel.surface import parse_constraint, parse_type, print_constraint
from generators import evars_of, random_type


def T(s):
    return parse_type(s)


def test_type_eq_alpha():
    assert type_eq(T("all a. a -> b"), T("all c. c -> b"))
    assert not type_eq(T("all a. a -> b"), T("all c. b -> c"))


def test_type_eq_quantifier_permutation():
    assert type_eq(T("all a. all b. a -> b"), T("all b. all a. a -> b"))
    assert type_eq(T("all a. all b. all c. a -> b -> c"),
                   T("all c. all a. all b. a -> b -> c"))


def test_type_eq_dummy_quantifiers():
    assert type_eq(T("all a. b -> b"), T("b -> b"))
    assert type_eq(T("all a. all c. a -> a"), T("all a. a -> a"))
    assert not type_eq(T("all a. a -> a"), T("b -> b"))


def test_quantifier_blocks_do_not_cross_arrows():
    assert not type_eq(T("all a. a -> all b. b"), T("all b. all a. a -> b"))


def test_shadowed_binder_is_dummy():
    assert type_eq(T("all a. all a. a -> a"), T("all a. a -> a"))


def test_forbidden_sets_in_equality():
    assert type_eq(T("s^{a,b} c"), T("s^{b,a} c"))
    assert not type_eq(T("s^{a} c"), T("s^{b} c"))
    assert not type_eq(T("s^{a} c"), T("t^{a} c"))


def test_canonical_type_idempotent_random():
    rng = random.Random(3)
    for _ in range(500):
        t = random_type(rng, ["a", "b"], 4)
        c = canonical_type(t)
        assert c == canonical_type(c)
        assert type_eq(t, c)


def test_ftv():
    assert ftv(T("all a. a -> b")) == {"b"}
    assert ftv(T("s^{a,b} c")) == {"a", "b", "c"}
    assert evars_of(T("s^{a} t^{} b")) == {"s", "t"}


def test_constraint_eq_reordering_and_omega():
    c1 = parse_constraint("a <= b & omega & b <= a")
    c2 = parse_constraint("b <= a & a <= b")
    assert constraint_eq(c1, c2)
    assert constraint_eq(parse_constraint("omega"), canonical_constraint(Omega()))


def test_constraint_eq_existential_alpha():
    c1 = parse_constraint("ex a. a <= b")
    c2 = parse_constraint("ex c. c <= b")
    assert constraint_eq(c1, c2)
    assert not constraint_eq(c1, parse_constraint("ex c. b <= c"))


def test_constraint_dummy_existential_dropped():
    assert constraint_eq(parse_constraint("ex a. b <= b"),
                         parse_constraint("b <= b"))


def test_guard_constraints():
    c1 = parse_constraint("s^{a; b} (b <= a)")
    c2 = parse_constraint("s^{a; b} (b <= a)")
    assert constraint_eq(c1, c2)
    assert not constraint_eq(c1, parse_constraint("s^{; b} (b <= a)"))


def test_type_env_first_binding_wins():
    env = TypeEnv((("x", TVar("a")), ("x", TVar("b"))))
    assert env.lookup("x") == TVar("a")
    assert not env.well_formed()
    assert TypeEnv((("x", TVar("a")), ("y", TVar("b")))).well_formed()


def test_subst_lookup_defaults():
    phi = Subst((("a", TVar("b")),))
    assert phi.lookup_tvar("a") == TVar("b")
    assert phi.lookup_tvar("c") == TVar("c")
    from fskel.syntax import EVarIntro, Id
    assert phi.lookup_evar("s") == EVarIntro("s", frozenset(), Id())


def test_fresh_supply_avoids():
    sup = FreshSupply(avoid=frozenset({"a0", "a1"}))
    name, sup = sup.fresh_tvar()
    assert name == "a2"
    assert fresh_name("x", {"x", "x_0"}) == "x_1"
    assert fresh_name("x", set()) == "x"


def test_constraint_eq_existential_renamed_before_canonical():
    # the existential binder is named like the quantifier canonical_type picks
    assert constraint_eq(parse_constraint("ex b0. (all p. p -> b0) <= c"),
                         parse_constraint("ex q. (all p. p -> q) <= c"))
    # renaming it to e0 must not capture a quantifier of that name
    assert constraint_eq(parse_constraint("ex a. (all e0. e0 -> a) <= c"),
                         parse_constraint("ex q. (all p. p -> q) <= c"))


def test_constraint_eq_forbidden_set_order():
    assert constraint_eq(parse_constraint("s^{a,m; c} c <= c & s^{a; c} c <= c"),
                         parse_constraint("s^{a; c} c <= c & s^{m,a; c} c <= c"))


def test_shadowed_existentials_get_their_own_names():
    c = parse_constraint("ex b. s^{; b} (ex b. b <= a)")
    assert canonical_constraint(c) == parse_constraint("ex e0. s^{; e0} (ex e1. e1 <= a)")


def _conjuncts(c):
    out = []
    while isinstance(c, And):
        out.append(c.c1)
        c = c.c2
    return out + [c]


def test_canonical_constraint_deep_inputs():
    # built without the parser, whose recursion is bounded separately
    conj = Atomic(TVar("a0"), TVar("c"))
    for i in range(1, 2000):
        conj = And(Atomic(TVar(f"a{i}"), TVar("c")), conj)
    assert len(_conjuncts(canonical_constraint(conj))) == 2000
    nested = Atomic(TVar("c"), TVar("c"))
    for i in range(500):
        nested = EGuard(f"s{i}", frozenset({"a"}), TVar("c"), Exists(f"x{i}", nested))
    out, depth = canonical_constraint(nested), 0
    while isinstance(out, EGuard):  # the dummy binders are dropped
        out, depth = out.body, depth + 1
    assert depth == 500 and out == Atomic(TVar("c"), TVar("c"))


def _rename_ex(c, rng, counter):
    """c with every existential binder renamed to a fresh z<n> (no quantifier
    binds a z<n>, so nothing is captured) and its conjuncts shuffled."""
    def ren(t, a, z):
        match t:
            case TVar(b):
                return TVar(z) if b == a else t
            case Arrow(d, r):
                return Arrow(ren(d, a, z), ren(r, a, z))
            case Forall(b, body):
                return t if b == a else Forall(b, ren(body, a, z))
            case EVarApp(s, forbidden, body):
                return EVarApp(s, frozenset(z if v == a else v for v in forbidden),
                               ren(body, a, z))

    def sub(c, a, z):
        match c:
            case Atomic(l, r):
                return Atomic(ren(l, a, z), ren(r, a, z))
            case And(c1, c2):
                return And(sub(c1, a, z), sub(c2, a, z))
            case Exists(b, body):
                return c if b == a else Exists(b, sub(body, a, z))
            case EGuard(s, forbidden, w, body):
                return EGuard(s, frozenset(z if v == a else v for v in forbidden),
                              ren(w, a, z), sub(body, a, z))
        return c

    match c:
        case And(c1, c2):
            parts = [_rename_ex(c1, rng, counter), _rename_ex(c2, rng, counter)]
            rng.shuffle(parts)
            return And(*parts)
        case Exists(a, body):
            counter[0] += 1
            z = f"z{counter[0]}"
            return Exists(z, sub(_rename_ex(body, rng, counter), a, z))
        case EGuard(s, forbidden, w, body):
            return EGuard(s, forbidden, w, _rename_ex(body, rng, counter))
    return c


def _random_constraint(rng, depth):
    names = ["a", "b", "e0", "e1", "b0", "b1"]
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return Atomic(random_type(rng, names, 3), random_type(rng, names, 3))
    if r < 0.55:
        return And(_random_constraint(rng, depth - 1), _random_constraint(rng, depth - 1))
    if r < 0.8:
        return Exists(rng.choice(names), _random_constraint(rng, depth - 1))
    return EGuard(f"s{rng.randrange(2)}", frozenset(rng.sample(names, rng.randrange(3))),
                  random_type(rng, names, 2), _random_constraint(rng, depth - 1))


def test_canonical_constraint_invariant_under_renaming_and_reordering():
    rng = random.Random(11)
    for _ in range(400):
        c = _random_constraint(rng, 5)
        cc = canonical_constraint(c)
        assert canonical_constraint(cc) == cc
        assert canonical_constraint(_rename_ex(c, rng, [0])) == cc


def test_constraint_eq_agrees_with_printed_canonical_forms():
    rng = random.Random(12)
    verdicts = []
    for _ in range(2400):
        c1 = _random_constraint(rng, 3)
        match rng.randrange(3):
            case 0:  # equal: ex binders renamed, conjuncts shuffled
                c2 = _rename_ex(c1, rng, [0])
            case 1:  # one more conjunct, equal only if it repeats an item
                c2 = And(_random_constraint(rng, 1), c1)
            case _:
                c2 = _random_constraint(rng, 3)
        printed = [print_constraint(canonical_constraint(c)) for c in (c1, c2)]
        verdicts.append(constraint_eq(c1, c2))
        assert verdicts[-1] == (printed[0] == printed[1])
    assert verdicts.count(True) >= 600 and verdicts.count(False) >= 600


def test_constraint_eq_deep_conjunctions():
    atoms = [Atomic(TVar(f"a{i}"), TVar("c")) for i in range(2000)]
    right = left = atoms[0]
    for a in atoms[1:]:
        right, left = And(a, right), And(left, a)
    assert constraint_eq(right, left)
    changed = And(left.c1, Atomic(TVar("a1999"), TVar("d")))  # was a1999 <= c
    assert not constraint_eq(right, changed)
