"""Expansion and substitution application."""

import random

import pytest

import reference_subst
from fskel.expansion import (
    _Image, apply_exp_cons, apply_exp_skel, apply_exp_type, apply_subst,
    judgements_agree, property_expansion_sound, property_subst_sound,
)
from fskel.initial import derive_substitution, initial_skeleton
from generators import (
    decorate_dummies_inside, evars_of, random_expansion, random_subst_for,
    random_type, random_valid_skeleton,
)
from fskel.surface import (
    parse_constraint, parse_expansion, parse_skeleton, parse_subst,
    parse_term, parse_type, parse_type_env, print_skeleton,
)
from fskel.syntax import (
    And, Arrow, Atomic, EGuard, Exists, Forall, FreshSupply, IOTA, Omega,
    QForall, QVar, QWeak, Skeleton, Subst, TVar, Type, TypeEnv, constraint_eq,
    env_eq, ftv, type_eq,
)
from fskel.typecheck import check_skeleton
from helpers import count_instances


def T(s):
    return parse_type(s)


def test_quantifier_expansion_on_type():
    i = parse_expansion("all b. id")
    got = apply_exp_type(i, frozenset({"a1", "a2"}), T("((a1 -> a2) -> b) -> b"))
    assert type_eq(got, T("all b. ((a1 -> a2) -> b) -> b"))


def test_sub_step_expansion_on_type():
    i = parse_expansion("id |> b -> b")
    got = apply_exp_type(i, frozenset(), T("all a. a -> a"))
    assert type_eq(got, T("b -> b"))


def test_evar_expansion_keeps_wrapper():
    i = parse_expansion("s^{} (all b. id)")
    got = apply_exp_type(i, frozenset({"a"}), T("a"))
    assert type_eq(got, T("s^{a} (all b. a)"))


def test_sub_step_expansion_on_constraint():
    tau = "all a. a -> a"
    c0 = parse_constraint(f"({tau}) <= ({tau}) -> {tau}")
    got = apply_exp_cons(parse_expansion("id |> b -> b"), frozenset(), T(tau), c0)
    want = parse_constraint(f"({tau}) <= b -> b & ({tau}) <= ({tau}) -> {tau}")
    assert constraint_eq(got, want)


def test_identity_substitution_is_identity():
    rng = random.Random(21)
    for _ in range(100):
        q = random_valid_skeleton(rng)
        assert apply_subst(IOTA, q) == q


def test_substitute_tvar_under_evar_grows_forbidden_set():
    phi = parse_subst("[a := a1 -> a2]")
    got = apply_subst(phi, T("s^{a} ((a -> b) -> b)"))
    assert type_eq(got, T("s^{a1,a2} (((a1 -> a2) -> b) -> b)"))


def test_null_expansion_deletes_evar():
    phi = parse_subst("[s := id]")
    got = apply_subst(phi, T("s^{a} (s^{a} b -> b)"))
    assert type_eq(got, T("b -> b"))


def test_self_expansion_keeps_evar():
    phi = parse_subst("[s := s^{} (all b. id)]")
    got = apply_subst(phi, T("s^{a} a"))
    assert type_eq(got, T("s^{a} (all b. a)"))


def test_substitution_avoids_capture_in_quantifier():
    phi = parse_subst("[a := b]")
    got = apply_subst(phi, T("all b. b -> a"))
    assert type_eq(got, T("all c. c -> b"))


def test_substitution_into_expansions():
    phi = parse_subst("[a := b, s := all c. id]")
    got = apply_subst(phi, parse_expansion("all c. s0^{a} (id |> a -> c)"))
    assert got == parse_expansion("all c. s0^{b} (id |> b -> c)")
    assert apply_subst(phi, parse_expansion("id")) == parse_expansion("id")


def test_substitution_renames_an_existential_binder_it_would_capture():
    got = apply_subst(parse_subst("[a := b]"), parse_constraint("ex b. a <= b"))
    assert got.binder != "b"
    assert constraint_eq(got, parse_constraint("ex c. b <= c"))


def test_first_binding_wins():
    phi = parse_subst("[a := b, a := c]")
    assert type_eq(apply_subst(phi, T("a")), T("b"))


def test_expansion_precondition_enforced():
    q = parse_skeleton("x<x: a>")
    with pytest.raises(ValueError):
        property_expansion_sound(q, parse_expansion("id"), frozenset())


def test_expansion_soundness_on_skeleton():
    q = parse_skeleton("s^{a} (\\x. x<x: a -> b, y: a> @ y<x: a -> b, y: a>)")
    j = check_skeleton(q)
    i = parse_expansion("all b. id")
    q2 = apply_exp_skel(i, ftv(j.env), q)
    j2 = check_skeleton(q2)
    assert env_eq(j2.env, j.env)
    assert type_eq(j2.rtype, apply_exp_type(i, ftv(j.env), j.rtype))


def test_judgements_agree_is_alpha_insensitive():
    j1 = check_skeleton(parse_skeleton("\\x. x<x: a>"))
    j2 = check_skeleton(parse_skeleton("\\y. y<y: a>"))
    assert judgements_agree(j1, j2)


# ---------------------------------------------------------------------------
# apply_subst: one table per call, checked against a plain reference


def _chain(n: int):
    """The initial skeleton of \\f. \\x. f @ (... @ (f @ x)) (n applications)
    and the substitution derived onto the chain typed with
    f: all b. b -> b instantiated at c -> c at every use."""
    env = "f: all b. b -> b, x: c -> c"
    body, term = f"x<{env}>", "x"
    for _ in range(n):
        body = f"(f<{env}> |> (c -> c) -> c -> c) @ ({body})"
        term = f"f @ ({term})"
    q, _, _ = initial_skeleton(parse_term(f"\\f. \\x. {term}"), FreshSupply())
    sigma, _ = derive_substitution(q, parse_skeleton(f"\\f. \\x. {body}"))
    return q, sigma


def _environments(q) -> dict[int, TypeEnv]:
    """The environment objects of q's variable and weakening nodes, by id."""
    found, todo = {}, [q]
    while todo:
        node = todo.pop()
        if isinstance(node, (QVar, QWeak)):
            env = node.env if isinstance(node, QVar) else node.extra
            found[id(env)] = env
        todo += [v for name in node.__match_args__
                 if isinstance(v := getattr(node, name), Skeleton)]
    return found


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_apply_subst_builds_one_environment_per_distinct_input(monkeypatch, n):
    q, sigma = _chain(n)
    for subject in (q, parse_skeleton(print_skeleton(q))):
        distinct = _environments(subject)
        built = count_instances(monkeypatch, TypeEnv)
        got = apply_subst(sigma, subject)
        monkeypatch.undo()
        assert built[0] == len(distinct) < n
        assert got == reference_subst.substitute(sigma, subject)
        assert len(_environments(got)) == len(distinct)


# binder names the generators use (random_type's t0-t2, the dummies of
# decorate_dummies_inside, random_valid_skeleton's g), so that substitutions
# built over them capture and force renaming
_BINDERS = ["t0", "t1", "t2", "d", "g"]
_EVARS = ["u0", "u1", "u2"]


def _clashing_subst(rng: random.Random, subject) -> Subst:
    names = sorted(ftv(subject) | set(_BINDERS))
    bindings = [(a, random_type(rng, names, rng.randrange(3)))
                for a in names if rng.random() < 0.4]
    bindings += [(s, random_expansion(rng, names, rng.randrange(3)))
                 for s in sorted(evars_of(subject) | set(_EVARS)) if rng.random() < 0.5]
    if bindings and rng.random() < 0.3:
        bindings.append(rng.choice(bindings)[:1] + (TVar("t0"),))  # shadowed later binding
    rng.shuffle(bindings)
    return Subst(tuple(bindings))


def _random_constraint(rng: random.Random, names: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return Omega() if rng.random() < 0.1 else Atomic(
            random_type(rng, names, 2), random_type(rng, names, 2))
    match rng.randrange(4):
        case 0:
            return And(_random_constraint(rng, names, depth - 1),
                       _random_constraint(rng, names, depth - 1))
        case 1 | 2:
            a = rng.choice(_BINDERS)
            return Exists(a, _random_constraint(rng, names + [a], depth - 1))
        case _:
            return EGuard(rng.choice(_EVARS), frozenset(rng.sample(names, 2)),
                          random_type(rng, names, 2),
                          _random_constraint(rng, names, depth - 1))


def _subjects(rng: random.Random):
    """Seeded subjects of every category, tagged with their kind."""
    for _ in range(150):
        q = random_valid_skeleton(rng, 5)
        yield "skeleton", q
        yield "skeleton", decorate_dummies_inside(rng, q, 0.3)
        yield "constraint", check_skeleton(q).constraint
        yield "environment", check_skeleton(q).env
    names = ["a", "b", "c"]
    for _ in range(300):
        yield "type", random_type(rng, names, 5)
        yield "constraint", _random_constraint(rng, names, 4)
        yield "expansion", random_expansion(rng, names, 4)


def test_apply_subst_agrees_with_the_reference():
    rng = random.Random(1801)
    clashes = {(kind, binder): 0 for kind, binder in (
        ("type", Forall), ("expansion", Forall), ("skeleton", Forall),
        ("skeleton", QForall), ("constraint", Exists))}
    shadows = dict.fromkeys((("type", Forall), ("skeleton", QForall),
                             ("constraint", Exists)), 0)
    for kind, subject in _subjects(rng):
        phi = _clashing_subst(rng, subject)
        got = apply_subst(phi, subject)
        assert got == reference_subst.substitute(phi, subject), (kind, subject, phi)
        bound = {name for name, val in phi.bindings if isinstance(val, Type)}
        for key in clashes:
            if key[0] == kind:
                names = reference_subst.binders(subject, key[1])
                clashes[key] += bool(names & reference_subst.free_vars(phi))
                if key in shadows:
                    shadows[key] += bool(names & bound)
    # each kind of binder met a name free in the substitution, so was
    # renamed, and a name the substitution binds, which it shadows
    assert min(clashes.values()) >= 30, clashes
    assert min(shadows.values()) >= 50, shadows


def _nested_clashing_binders(k: int):
    """all a. a -> (all a. a -> ... (all a. a -> c)), k binders."""
    t = TVar("c")
    for _ in range(k):
        t = Forall("a", Arrow(TVar("a"), t))
    return t


@pytest.mark.parametrize("k", [50, 100, 200])
def test_apply_subst_maps_each_scope_once_under_nested_renamed_binders(monkeypatch, k):
    # every binder clashes with [c := a] and is renamed: its scope is
    # mapped once, with the renaming carried in the substitution, not
    # rewritten first and then mapped again
    t = _nested_clashing_binders(k)
    real, entries = _Image.of_type, [0]

    def counted(self, u):
        entries[0] += 1
        return real(self, u)

    monkeypatch.setattr(_Image, "of_type", counted)
    got = apply_subst(Subst((("c", TVar("a")),)), t)
    monkeypatch.undo()
    assert entries[0] <= 3 * k + 1
    expected = TVar("a")
    for _ in range(k):
        expected = Forall("a_0", Arrow(TVar("a_0"), expected))
    assert got is expected
    assert got == reference_subst.substitute(Subst((("c", TVar("a")),)), t)
