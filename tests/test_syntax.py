"""Core syntax: canonical forms, equalities, environments, free variables."""

import copy
import random
import tracemalloc
from collections import Counter

from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, Exists,
    Expansion, Forall, FreshSupply, Omega, Subst, TVar, Type, TypeEnv,
    Var, canonical_constraint, canonical_type, constraint_eq, fresh_name, ftv,
    term_alpha_eq, type_eq,
)
from fskel.expansion import apply_exp_type, apply_subst
from fskel.initial import initial_skeleton
from fskel.solve import REL_EQ, REL_F, solved
from fskel.surface import (
    parse_constraint, parse_skeleton, parse_term, parse_type, print_constraint,
    print_flattened,
)
from fskel.typecheck import check_skeleton
import reference_canonical
import reference_printer
from generators import evars_of, random_expansion, random_term, random_type
from helpers import constraint_nodes, count_calls, de_bruijn, lookup_linear


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
    # an unbound type variable maps to itself, an unbound E-variable to s^{} id
    phi = Subst((("a", TVar("b")),))
    assert apply_subst(phi, TVar("a")) == TVar("b")
    assert apply_subst(phi, TVar("c")) == TVar("c")
    t = EVarApp("s", frozenset(), TVar("c"))
    assert apply_subst(phi, t) == t


def test_subst_index_agrees_with_linear_scan():
    rng = random.Random(1201)
    names = ["a", "b", "s", "t"]
    repeated = 0
    for _ in range(400):
        bindings = []
        for _ in range(rng.randrange(12)):
            tvars = rng.sample(["a", "b", "c"], rng.randrange(3))
            val = (random_type(rng, tvars, 2) if rng.random() < 0.5
                   else random_expansion(rng, tvars, 2))
            bindings.append((rng.choice(names), val))
        bound = [name for name, _ in bindings]
        repeated += len(bound) != len(set(bound))
        phi = Subst(tuple(bindings))
        for _ in range(2):  # the second round reads the kept index
            for name in names + ["z"]:
                t = lookup_linear(phi, name, Type)
                i = lookup_linear(phi, name, Expansion)
                # the first binding of each kind, that very object, or the default
                got = apply_subst(phi, TVar(name))
                assert got is t if t is not None else got == TVar(name)
                got = apply_subst(phi, EVarApp(name, frozenset(), TVar("z")))
                assert got == (apply_exp_type(i, frozenset(), TVar("z")) if i is not None
                               else EVarApp(name, frozenset(), TVar("z")))
    assert repeated >= 200


def _variant(rng, m):
    """A term made from m that shares some of m's subterms by identity, with
    binders sometimes renamed and leaves sometimes changed."""
    if rng.random() < 0.3:
        return m
    names = ["x0", "x1", "y"]
    match m:
        case Var(x):
            return Var(x if rng.random() < 0.7 else rng.choice(names))
        case Abs(x, body):
            return Abs(x if rng.random() < 0.5 else rng.choice(names), _variant(rng, body))
        case App(f, a):
            return App(_variant(rng, f), _variant(rng, a))
    raise TypeError(m)


def _renamed(m, names, counter):
    """m with every binder renamed to a name not used before."""
    match m:
        case Var(x):
            return Var(names.get(x, x))
        case Abs(x, body):
            counter[0] += 1
            fresh = f"r{counter[0]}"
            return Abs(fresh, _renamed(body, {**names, x: fresh}, counter))
        case App(f, a):
            return App(_renamed(f, names, counter), _renamed(a, names, counter))
    raise TypeError(m)


def test_term_alpha_eq_agrees_with_de_bruijn():
    s = App(Var("x0"), Var("y"))
    for m1, m2, expected in [
        (Abs("x0", s), Abs("x1", s), False),
        (Abs("x0", Abs("x0", s)), Abs("y", Abs("x0", s)), False),
        (Abs("x1", s), Abs("z", s), True),
        (App(Abs("x0", s), s), App(Abs("x0", s), s), True),
    ]:
        assert term_alpha_eq(m1, m2) is expected is (de_bruijn(m1) == de_bruijn(m2))
    rng = random.Random(20121101)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        m1 = random_term(rng, rng.randrange(1, 14), ["y"])
        m2 = _variant(rng, m1) if rng.random() < 0.7 else _renamed(m1, {}, [0])
        if rng.random() < 0.5:
            m1, m2 = m2, m1
        expected = de_bruijn(m1) == de_bruijn(m2)
        assert term_alpha_eq(m1, m2) is expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 400


def test_fresh_supply_avoids():
    sup = FreshSupply(avoid=frozenset({"a0", "a1"}))
    assert sup.next_name(sup.tvar_prefix, sup.tvar_next) == ("a2", 3)
    q, _, sup2 = initial_skeleton(Abs("x", Var("x")), sup)
    assert not ftv(q) & sup.avoid and sup2.tvar_next == 3
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


def test_canonical_constraint_memory_is_not_cubic_in_guard_nesting():
    # s0^{} ... s149^{} (\x. x<x: a>) nests 150 guards whose witnesses nest
    # the rest of the prefix; keeping the key of every guard prefix on the
    # path took 57 MB here, keeping each guard's own key takes about 1 MB
    prefix = "".join(f"s{i}^{{}} " for i in range(150))
    c = check_skeleton(parse_skeleton(prefix + "(\\x. x<x: a>)")).constraint
    tracemalloc.start()
    try:
        out = canonical_constraint(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == Omega() and peak < 2 << 20
    # an atom below the prefix gets one item under every guard
    c = check_skeleton(parse_skeleton(prefix + "((\\x. x<x: a>) |> a -> a)")).constraint
    out, depth = canonical_constraint(c), 0
    while isinstance(out, EGuard):
        out, depth = out.body, depth + 1
    assert depth == 150 and out == Atomic(T("a -> a"), T("a -> a"))


def test_deep_constraints_compare_and_hash():
    # the canonical form of 2,000 conjuncts is a right-nested And 2,000 deep
    conj = Atomic(TVar("a0"), TVar("c"))
    for i in range(1, 2000):
        conj = And(Atomic(TVar(f"a{i}"), TVar("c")), conj)
    c1, c2 = canonical_constraint(conj), canonical_constraint(conj)
    assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
    assert {c1: "kept"}[c2] == "kept"
    changed = canonical_constraint(And(Atomic(TVar("a0"), TVar("d")), conj))
    assert c1 != changed
    nested = [Atomic(TVar("c"), TVar("c"))] * 2
    for i in range(2000):
        nested = [EGuard(f"s{i}", frozenset({"a"}), TVar("c"), Exists(f"x{i}", c))
                  for c in nested]
    assert nested[0] == nested[1] and hash(nested[0]) == hash(nested[1])


def _tree(c):
    """A constraint as nested tuples, each variable set sorted (an oracle
    for the structural == and hash of constraints)."""
    fields = (getattr(c, name) for name in c.__match_args__)
    return (type(c).__name__, *(_tree(v) if isinstance(v, Constraint)
                                else tuple(sorted(v)) if isinstance(v, frozenset)
                                else v for v in fields))


def test_constraint_eq_and_hash_agree_with_structure():
    rng = random.Random(13)
    pairs = []
    for _ in range(1500):
        c1 = _random_constraint(rng, 3)
        c2 = c1 if rng.random() < 0.1 else _rebuilt(c1) if rng.random() < 0.5 \
            else _random_constraint(rng, 3)
        pairs.append((c1, c2))
    pairs += [(Omega(), Omega()), (Omega(), Atomic(TVar("a"), TVar("a")))]
    equal = 0
    for c1, c2 in pairs:
        assert (c1 == c2) == (_tree(c1) == _tree(c2)) == (not c1 != c2)
        if c1 == c2:
            equal += 1
            assert hash(c1) == hash(c2)
    assert 400 <= equal <= len(pairs) - 400
    assert Omega() != "omega" and Atomic(TVar("a"), TVar("b")) != TVar("a")


def _rebuilt(c):
    """A fresh copy of c, node by node (no constraint node shared)."""
    match c:
        case And(c1, c2):
            return And(_rebuilt(c1), _rebuilt(c2))
        case Exists(a, body):
            return Exists(a, _rebuilt(body))
        case EGuard(s, forbidden, witness, body):
            return EGuard(s, frozenset(sorted(forbidden, reverse=True)), witness, _rebuilt(body))
        case Atomic(lhs, rhs):
            return Atomic(lhs, rhs)
    return Omega()


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


def _random_constraint(rng, depth, omega=False):
    """A random constraint; with omega, a tenth of its leaves are Omega."""
    names = ["a", "b", "e0", "e1", "b0", "b1"]
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if omega and r < 0.1:
            return Omega()
        return Atomic(random_type(rng, names, 3), random_type(rng, names, 3))
    if r < 0.55:
        return And(_random_constraint(rng, depth - 1, omega), _random_constraint(rng, depth - 1, omega))
    if r < 0.8:
        return Exists(rng.choice(names), _random_constraint(rng, depth - 1, omega))
    return EGuard(f"s{rng.randrange(2)}", frozenset(rng.sample(names, rng.randrange(3))),
                  random_type(rng, names, 2), _random_constraint(rng, depth - 1, omega))


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


_NAMES = ["a", "b", "e0", "e1", "b0", "b1"]


def _reference_case(rng, depth, shared, seen):
    """A random constraint in which siblings often differ in one part only,
    ex binders nest and shadow, and subconstraints, items and omega repeat;
    seen counts each of these features as it is built."""
    r = rng.random()
    if shared and r < 0.08:
        seen["shared"] += 1
        return rng.choice(shared)  # the very node again
    if depth <= 0 or r < 0.3:
        if r < 0.1:
            seen["omega"] += 1
            return Omega()
        return Atomic(random_type(rng, _NAMES, 2), random_type(rng, _NAMES, 2))
    body = _reference_case(rng, depth - 1, shared, seen)
    if r < 0.48:
        if rng.random() < 0.2:
            seen["duplicate"] += 1
            c = And(body, copy.deepcopy(body))
        else:
            c = And(body, _reference_case(rng, depth - 1, shared, seen))
    elif r < 0.64:
        a = rng.choice(["a", "b", "e0"])
        if rng.random() < 0.3:
            seen["shadowing"] += 1
            body = Exists(a, body)
        seen["nested" if any(isinstance(n, Exists) for n in constraint_nodes(body)) else "ex"] += 1
        c = Exists(a, body)
    elif r < 0.86:
        # two sibling guards that differ only in the forbidden set or only in the witness
        s, w = f"s{rng.randrange(2)}", random_type(rng, _NAMES, 2)
        forbidden = frozenset(rng.sample(_NAMES, rng.randrange(3)))
        other = body if rng.random() < 0.5 else _reference_case(rng, depth - 1, shared, seen)
        if rng.random() < 0.25:
            seen["{a} and {a, b}"] += 1
            c = And(EGuard(s, frozenset({"a"}), w, body), EGuard(s, frozenset({"a", "b"}), w, other))
        elif rng.random() < 0.5:
            seen["forbidden"] += 1
            c = And(EGuard(s, forbidden, w, body),
                    EGuard(s, forbidden | {rng.choice(_NAMES)}, w, other))
        else:
            seen["witness"] += 1
            c = And(EGuard(s, forbidden, w, body),
                    EGuard(s, forbidden, random_type(rng, _NAMES, 2), other))
    else:
        c = EGuard(f"s{rng.randrange(2)}", frozenset(rng.sample(_NAMES, rng.randrange(3))),
                   random_type(rng, _NAMES, 2), body)
    shared.append(c)
    return c


def _items(c):
    """c's atoms in order, each under its whole prefix of binders and guards."""
    match c:
        case Atomic():
            return [c]
        case And(c1, c2):
            return _items(c1) + _items(c2)
        case Exists(a, body):
            return [Exists(a, item) for item in _items(body)]
        case EGuard(s, forbidden, witness, body):
            return [EGuard(s, forbidden, witness, item) for item in _items(body)]
    return []


def _flattened(c):
    """c's items joined by right-nested And, Omega if there are none: the
    flattened form, written here apart from surface.print_flattened."""
    items = _items(c)
    if not items:
        return Omega()
    out = items[-1]
    for item in reversed(items[:-1]):
        out = And(item, out)
    return out


def test_canonical_constraint_agrees_with_the_string_key_reference():
    rng = random.Random(2106)
    seen = Counter()
    cases = [_reference_case(rng, 4, [], seen) for _ in range(2400)]
    verdicts = Counter()
    keys = set()
    for i, c in enumerate(cases):
        assert _flattened(canonical_constraint(c)) == reference_canonical.canonical(c)
        for k, item in reference_canonical.items(c).items():
            parts = reference_canonical.part_keys(item)
            assert "".join(parts) + ")" * (len(parts) - 1) == k
            keys.update(parts)
        match i % 4:
            case 0:  # equal: ex binders renamed, conjuncts shuffled
                other = _rename_ex(c, rng, [0])
            case 1:  # equal: every item twice
                other = And(c, copy.deepcopy(c))
            case 2:  # equal only if the new atom repeats an item
                other = And(Atomic(random_type(rng, _NAMES, 1), TVar("a")), c)
            case _:
                other = cases[i - 1]
        verdicts[constraint_eq(c, other)] += 1
        assert constraint_eq(c, other) == reference_canonical.equal(c, other)
    # comparing joined keys is comparing the first parts where two items
    # differ only because no part's key is a proper prefix of another's
    ordered = sorted(keys)
    assert not [(a, b) for a, b in zip(ordered, ordered[1:]) if b.startswith(a)]
    assert verdicts[True] >= 1000 and verdicts[False] >= 500
    for feature in ("shared", "omega", "duplicate", "shadowing", "nested", "{a} and {a, b}",
                    "forbidden", "witness"):
        assert seen[feature] >= 200, (feature, seen)


def _chain_constraint(n):
    term = "\\f. \\x. " + "f @ (" * n + "x" + ")" * n
    return check_skeleton(initial_skeleton(parse_term(term), FreshSupply())[0]).constraint


def test_keys_are_built_only_to_order_siblings_of_one_kind(monkeypatch):
    chain = _chain_constraint(160)
    k = 7
    siblings = Atomic(TVar("c"), TVar("c"))
    for i in range(k):
        guard = EGuard("s", frozenset({f"a{i}"}), T("c -> c"), Atomic(TVar(f"a{i}"), TVar("c")))
        siblings = And(guard, siblings)
    calls = count_calls(monkeypatch, ["syntax._type_key", "syntax._guard_key"])
    out = canonical_constraint(chain)
    assert constraint_eq(chain, chain) and constraint_eq(siblings, siblings)
    assert calls == {"syntax._type_key": 0, "syntax._guard_key": 0}
    # factored: linear in n, each guard of a prefix once (repeating every
    # atom under its whole guard prefix made about n²/2)
    assert sum(type(n) is EGuard for n in constraint_nodes(out)) <= 160 + 2
    # k guards and one atom at the root: a key for each guard, none for the atom
    assert canonical_constraint(siblings) == reference_canonical.canonical(siblings)
    assert calls["syntax._guard_key"] == k


def _corpus():
    """The seeded constraints of the two tests above: random ones (seed 11)
    and ones whose siblings often share all but one part (seed 2106)."""
    rng = random.Random(11)
    cases = [_random_constraint(rng, 5) for _ in range(400)]
    rng = random.Random(2106)
    return cases + [_reference_case(rng, 4, [], Counter()) for _ in range(2400)]


def test_factored_representative_is_canonical_equal_and_solved_alike():
    shared_prefix = 0
    for c in _corpus():
        cc = canonical_constraint(c)
        assert canonical_constraint(cc) == cc
        assert constraint_eq(cc, c)
        for rel in (REL_F, REL_EQ):
            assert solved(cc, rel) == solved(c, rel)
        # two or more items under one guard or binder: where renaming the
        # binders of each item apart could undo the factoring
        shared_prefix += any(type(n) in (EGuard, Exists) and type(n.body) is And
                             for n in constraint_nodes(cc))
    assert shared_prefix >= 200


def test_flattened_representative_prints_the_reference_bytes():
    for c in _corpus():
        assert print_flattened(canonical_constraint(c)) == \
            print_constraint(reference_canonical.canonical(c))


def test_print_flattened_prints_the_flattened_form():
    rng = random.Random(27)
    raw = _corpus() + [_random_constraint(rng, 6, omega=True) for _ in range(3000)]
    for c in raw + [canonical_constraint(c) for c in raw]:
        assert print_flattened(c) == reference_printer.ref_constraint(_flattened(c))
    assert print_flattened(Omega()) == print_flattened(EGuard("s", frozenset(), TVar("a"), Omega())) \
        == "omega"
    # a guard directly above an ex binder opens a parenthesis its item closes;
    # the item left of the & is parenthesised, the last one is bare
    c = parse_constraint("s0^{; a} ((ex b. b <= a) & c <= d)")
    assert print_flattened(c) == "(s0^{; a} (ex b. b <= a)) & s0^{; a} c <= d"


def test_printed_constraints_read_back():
    """print_constraint's text, raw or canonical, parses to a constraint
    equal to the one printed and prints the same text again. An ex body
    extends to the right, so a conjunction left of an & whose last conjunct
    is an ex binder is parenthesised, and so is one whose last conjunct is
    a guard, as & reads back nested to the right."""
    rng = random.Random(28)
    raw = _corpus() + [_random_constraint(rng, 6, omega=True) for _ in range(3000)]
    for c in raw + [canonical_constraint(c) for c in raw]:
        text = print_constraint(c)
        back = parse_constraint(text)
        assert constraint_eq(back, c) and print_constraint(back) == text, text
    a_a, b_b, b_c = (parse_constraint(t) for t in ("a <= a", "b <= b", "b <= c"))
    for c, text in [
            (And(And(a_a, Exists("b", b_b)), b_c), "(a <= a & ex b. b <= b) & b <= c"),
            (And(And(a_a, EGuard("s", frozenset(), TVar("a"), b_b)), b_c),
             "(a <= a & s^{; a} b <= b) & b <= c"),
            (And(a_a, And(Exists("b", b_b), b_c)), "a <= a & (ex b. b <= b) & b <= c"),
            (Exists("b", And(a_a, And(b_b, b_c))), "ex b. a <= a & b <= b & b <= c")]:
        assert print_constraint(c) == reference_printer.ref_constraint(c) == text
        assert parse_constraint(text) == c


def test_print_flattened_holds_each_prefix_text_once():
    # 2,000 guards, each above an ex binder, over one atom: the text is
    # 46 KB; keeping the joined prefix at every depth took 88 MB here
    n = 2000
    c = Atomic(TVar("c"), TVar("c"))
    for i in reversed(range(n)):
        c = EGuard(f"s{i}", frozenset(), TVar("c"), Exists(f"x{i}", c))
    tracemalloc.start()
    try:
        text = print_flattened(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "".join(f"s{i}^{{; c}} (ex x{i}. " for i in range(n)) + "c <= c" + ")" * n
    assert peak < 2 << 20


def test_canonical_constraint_is_linear_on_a_deep_guard_chain():
    # built without the parser: 2,000 nested guards, an atom at every level;
    # the flattened form would repeat each atom under its whole prefix
    n = 2000
    c = Atomic(TVar(f"a{n - 1}"), TVar("c"))
    for i in reversed(range(n - 1)):
        c = EGuard(f"s{i}", frozenset({"b"}), TVar("c"), And(Atomic(TVar(f"a{i}"), TVar("c")), c))
    out = canonical_constraint(c)
    assert len(constraint_nodes(out)) <= 3 * n
    assert constraint_eq(out, c) and canonical_constraint(out) == out
