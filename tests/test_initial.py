"""Initial skeleton generation, rename equivalence, derived substitutions."""

import copy
import hashlib
import random
import sys

import pytest

from fskel import initial
from fskel.expansion import apply_subst, judgements_agree
from generators import (
    decorate_dummies_inside, random_subst_for, random_term, random_type,
    random_valid_skeleton,
)
from fskel.solve import RELATIONS, solved
from fskel.initial import (
    TermMismatch, allvar, derive_substitution, initial_skeleton, reflexive,
    rename_equiv,
)
from fskel.surface import (
    parse_constraint, parse_skeleton, parse_term, print_skeleton,
    print_type_env,
)
from fskel.syntax import (
    And, App, Arrow, Atomic, EVarApp, Expansion, Forall, FreshSupply, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, TVar, TypeEnv, Var, env_eq, ftv, term_alpha_eq, type_eq,
)
from fskel.typecheck import check_skeleton, relevant
from helpers import (
    chain_target, closed_corpus, count_calls, decorate, skeleton_for, skeleton_nodes,
)


def test_free_variables_get_distinct_type_variables():
    q, theta, _ = initial_skeleton(parse_term("x @ y"), FreshSupply())
    assert print_type_env(theta) == "{x: a0, y: a1}"
    j = check_skeleton(q)
    assert relevant(q)
    assert j.env == theta


def test_single_variable():
    q, theta, _ = initial_skeleton(parse_term("x"), FreshSupply())
    assert print_skeleton(q) == "s0^{a0} x<x: a0>"


def test_abstraction_numbering():
    q, _, _ = initial_skeleton(parse_term("\\x. y"), FreshSupply())
    assert print_skeleton(q) == "s1^{a1} (\\x. s0^{a0,a1} y<x: a0, y: a1>)"


def test_all_variables_fresh_and_disjoint():
    m = parse_term("(\\x. x @ x) @ (\\y. y)")
    q, _, _ = initial_skeleton(m, FreshSupply())
    j = check_skeleton(q)
    assert j.term == m
    assert relevant(q)


def test_duplicate_binders_are_uniquified():
    m = parse_term("(\\x. x) @ (\\x. x)")
    q, _, _ = initial_skeleton(m, FreshSupply())
    j = check_skeleton(q)
    assert judgements_agree(j, check_skeleton(q))
    assert term_alpha_eq(j.term, m)
    names = set()

    def walk(t):
        from fskel.syntax import Abs, App
        match t:
            case Abs(x, b):
                names.add(x)
                walk(b)
            case App(f, a):
                walk(f)
                walk(a)
    walk(j.term)
    assert len(names) == 2
    # a binder is renamed away from a free variable of the same name
    q, theta, _ = initial_skeleton(parse_term("(\\x. x) @ x"), FreshSupply())
    assert print_type_env(theta) == "{x: a1}"
    assert check_skeleton(q).term.fun.binder != "x"


def test_rename_equiv_between_supplies():
    m = parse_term("\\x. x @ y")
    q1, _, _ = initial_skeleton(m, FreshSupply())
    q2, _, _ = initial_skeleton(m, FreshSupply(tvar_prefix="t", evar_prefix="u"))
    phi = rename_equiv(q1, q2)
    assert phi is not None
    assert apply_subst(phi, q2) == q1


def test_rename_equiv_rejects_different_terms():
    q1, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    q2, _, _ = initial_skeleton(parse_term("\\x. \\y. x"), FreshSupply())
    assert rename_equiv(q1, q2) is None


@pytest.mark.parametrize("text1, text2", [
    ("s0^{} x<x: c -> c>", "s0^{} x<x: a -> b>"),  # two type variables onto one
    ("u^{}(u^{} x<x: a>)", "s0^{}(t0^{} x<x: a>)"),  # two E-variables onto one
])
def test_rename_equiv_requires_an_injective_renaming(text1, text2):
    q1, q2 = parse_skeleton(text1), parse_skeleton(text2)
    assert rename_equiv(q1, q2) is None
    assert rename_equiv(q2, q1) is None


@pytest.mark.parametrize("text1, text2", [
    ("x<x: a -> b>", "x<x: c>"),              # a type of another shape
    ("x<x: a>", "x<x: a, y: b>"),              # environments of other lengths
    ("s^{a} x<x: a>", "t^{a,b} x<x: a>"),      # forbidden sets the walk skips
])
def test_rename_equiv_rejects_skeletons_that_are_no_renaming(text1, text2):
    assert rename_equiv(parse_skeleton(text1), parse_skeleton(text2)) is None


def test_reflexive_predicate():
    assert reflexive(parse_constraint("omega"))
    assert reflexive(parse_constraint("a <= a & omega"))
    assert reflexive(parse_constraint("ex a. (all b. b -> a) <= all c. c -> a"))
    assert not reflexive(parse_constraint("a <= b"))
    assert not reflexive(parse_constraint("(all a. a) <= b"))
    deep = Atomic(TVar("a"), TVar("a"))
    for i in range(3000):
        deep = And(deep, Atomic(TVar(f"a{i}"), TVar(f"a{i}")))
    assert reflexive(deep)
    assert not reflexive(And(deep, Atomic(TVar("a"), TVar("b"))))


def test_derive_substitution_identity_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    sigma, gamma = derive_substitution(q, q)
    assert not gamma.entries
    assert judgements_agree(check_skeleton(apply_subst(sigma, q)),
                            check_skeleton(q))


def test_derive_substitution_decorated_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    sig = "[a0 := all a. a -> a, a1 := all a. a -> a, s0 := id, s1 := id," \
          " s2 := id |> b -> b, s3 := all b. id]"
    from fskel.surface import parse_subst
    qt = apply_subst(parse_subst(sig), q)
    sigma, gamma = derive_substitution(q, qt)
    assert not gamma.entries
    assert judgements_agree(check_skeleton(apply_subst(sigma, q)),
                            check_skeleton(qt))


def test_derive_substitution_weakened_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    qt = QWeak(q, TypeEnv((("z", TVar("c")),)))
    sigma, gamma = derive_substitution(q, qt)
    q1 = apply_subst(sigma, q)
    if gamma.entries:
        q1 = QWeak(q1, gamma)
    assert judgements_agree(check_skeleton(q1), check_skeleton(qt))


def test_derive_substitution_target_function_part_equal_to_an_arrow():
    qt = parse_skeleton("(all d. \\z. z<z: c, y: c>) @ y<y: c>")
    q, _, _ = initial_skeleton(check_skeleton(qt).term, FreshSupply())
    sigma, gamma = derive_substitution(q, qt)
    assert not gamma.entries
    # the initial skeleton's step to an arrow stays, as the atom
    # all d. c -> c <= c -> c
    j, jt = check_skeleton(apply_subst(sigma, q)), check_skeleton(qt)
    assert term_alpha_eq(j.term, jt.term) and env_eq(j.env, jt.env)
    assert type_eq(j.rtype, jt.rtype) and solved(j.constraint, RELATIONS["EQ"])


def test_derive_substitution_rejects_other_terms():
    q1, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    q2, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    with pytest.raises(TermMismatch):
        derive_substitution(q1, q2)


@pytest.mark.parametrize("term, target, message", [
    ("\\x. y", "\\x. (y<y: b> + {x: a})", "weakening below the root is not supported"),
    ("\\x. x", "\\z. z<z: a, x: b>", "binder renaming collides with an environment entry"),
])
def test_derive_substitution_rejects_targets_it_cannot_reach(term, target, message):
    q, _, _ = initial_skeleton(parse_term(term), FreshSupply())
    with pytest.raises(TermMismatch, match=message):
        derive_substitution(q, parse_skeleton(target))


def test_derive_substitution_rejects_skeletons_that_are_not_initial():
    app = "f<f: c -> c, x: c> @ x<f: c -> c, x: c>"
    # an application with no step to an arrow above its function part
    with pytest.raises(TermMismatch, match="skeletons type different terms"):
        derive_substitution(parse_skeleton(f"s^{{c}} ({app})"), parse_skeleton(app))
    with pytest.raises(AssertionError, match="rooted at an E-variable"):
        derive_substitution(parse_skeleton("s^{} \\x. x<x: c>"), parse_skeleton("\\x. x<x: c>"))


def test_allvar():
    q = parse_skeleton("s^{a} x<x: a>")
    assert allvar(q) == {"s", "a"}


def _names(n, bound: frozenset) -> set:
    """allvar by its definition, entering every type node: the type
    variables free under bound, and every E-variable."""
    if isinstance(n, TypeEnv):
        return set().union(*(_names(t, bound) for _, t in n.entries))
    if type(n) is TVar:
        return set() if n.name in bound else {n.name}
    if type(n) in (QForall, Forall):
        return _names(n.body, bound | {n.binder})
    if type(n) in (QEVar, EVarApp):
        return {n.evar} | (n.forbidden - bound) | _names(n.body, bound)
    return set().union(*(_names(p, bound) for p in n._parts() if not isinstance(p, str)))


def _shape(rng: random.Random, depth: int):
    """A skeleton, not necessarily valid, whose types hold binders and
    E-variables named as its binders and E-variables are (a, t0, u0, ...)."""
    tvars = ["a", "b", "t0", "u0"]
    if depth <= 0 or rng.random() < 0.25:
        return QVar("x", TypeEnv((("x", random_type(rng, tvars, 4)),
                                  ("y", random_type(rng, tvars, 3)))))
    match rng.randrange(6):
        case 0:
            return QApp(_shape(rng, depth - 1), _shape(rng, depth - 1))
        case 1:
            return QForall(rng.choice(["a", "t0", "u1"]), _shape(rng, depth - 1))
        case 2:
            return QEVar(rng.choice(["u0", "a"]), frozenset(rng.sample(tvars, 2)),
                         _shape(rng, depth - 1))
        case 3:
            return QSub(_shape(rng, depth - 1), random_type(rng, tvars, 4))
        case 4:
            return QWeak(_shape(rng, depth - 1), TypeEnv((("z", random_type(rng, tvars, 3)),)))
        case _:
            return QAbs("x", _shape(rng, depth - 1))


def test_allvar_reads_each_type_from_its_memo_slots():
    # allvar stops at a type, reading its free variables and E-variables
    # from the type's memo slots, under every set of binders above it
    rng = random.Random(29)
    for _ in range(400):
        q = _shape(rng, 6)
        assert allvar(q) == _names(q, frozenset()), print_skeleton(q)
    # types of any depth: their memo slots are filled on an explicit stack
    deep = TVar("a")
    for i in range(3000):
        deep = Arrow(TVar(f"d{i % 7}"), EVarApp("u9", frozenset(), Forall("a", deep)))
    assert allvar(QVar("x", TypeEnv((("x", deep),)))) == {f"d{i}" for i in range(7)} | {"u9"}
    assert ftv(deep) == {f"d{i}" for i in range(7)}


# ---------------------------------------------------------------------------
# derive_substitution: output pinned over a seeded corpus, and its cost


# sha256 of the lines test_derived_output_matches_recorded_digest hashes;
# a different value means derive_substitution's output changed. Recorded
# under apply_subst's shadowing binder rule: 5 of the 4,000 lines differ
# from the rule that renamed every binder the substitution mentions, each
# alpha-equivalent to the line before it (all t1_1. a0 -> all t1. a0)
DERIVED_DIGEST = "ef83f6e50af40bc598355dd415e326ab86673b32d441be5e125994917387ae5b"


def _derived(seeds):
    """Test 8's generator, one seed per target: the initial skeleton of each
    target's term, the substitution derived onto the target, and the extra
    environment."""
    for seed in seeds:
        rng = random.Random(seed)
        q = random_valid_skeleton(rng)
        qt = apply_subst(random_subst_for(rng, q), q)
        if seed % 3 == 0:
            qt = QWeak(qt, TypeEnv(((f"zz{seed}", TVar(f"zz{seed}")),)))
        q0, _, _ = initial_skeleton(check_skeleton(qt).term, FreshSupply())
        yield q0, *derive_substitution(q0, qt)


def test_derived_output_matches_recorded_digest():
    """The printed skeleton each derived substitution reaches, and the extra
    environment, are unchanged over seeds 0-3999."""
    digest = hashlib.sha256()
    with_forall = 0
    for q0, sigma, gamma in _derived(range(4000)):
        line = print_skeleton(apply_subst(sigma, q0)) + " + " + print_type_env(gamma)
        with_forall += "all " in line
        digest.update(line.encode() + b"\n")
    assert with_forall == 2427
    assert digest.hexdigest() == DERIVED_DIGEST


def test_derived_substitution_binds_each_evar_once():
    for _, sigma, _ in _derived(range(400)):
        evars = [name for name, val in sigma.bindings if isinstance(val, Expansion)]
        assert len(evars) == len(set(evars))


def _one_binding_corpus():
    """Targets of three families: chains, bare and under a quantifier;
    decorated solved skeletons of the closed corpus; and random valid
    skeletons with dummy quantifiers and steps decorated inside."""
    for n in range(1, 41):
        yield chain_target(n)
        yield chain_target(n, True)
    rng = random.Random(24)
    for m in closed_corpus():
        yield decorate(skeleton_for(m), rng)
    for _ in range(300):
        q = random_valid_skeleton(rng)
        yield decorate_dummies_inside(rng, apply_subst(random_subst_for(rng, q), q), 0.3)


# sha256 of the lines test_derived_substitution_binds_each_name_once hashes,
# recorded from a derive_substitution that bound a term variable's type
# variable again at every leaf: dropping those dead bindings changes no image.
# Re-recorded under apply_subst's shadowing binder rule: 65 of the 437 lines
# differ from the renaming rule's, each alpha-equivalent to it
ONE_BINDING_DIGEST = "347faf608919cf48749a77f40c057351892b19f4eb61a54349d4bf7a6f646fef"


def test_derived_substitution_binds_each_name_once():
    digest = hashlib.sha256()
    for qt in _one_binding_corpus():
        q0, _, _ = initial_skeleton(check_skeleton(qt).term, FreshSupply())
        sigma, gamma = derive_substitution(q0, qt)
        names = [name for name, _ in sigma.bindings]
        assert len(names) == len(set(names))
        line = print_skeleton(apply_subst(sigma, q0)) + " + " + print_type_env(gamma)
        digest.update(line.encode() + b"\n")
    # at n = 40: 83 E-variables, 40 codomain variables and the two leaf types
    q0, _, _ = initial_skeleton(check_skeleton(chain_target(40)).term, FreshSupply())
    assert len(derive_substitution(q0, chain_target(40))[0].bindings) == 125
    assert digest.hexdigest() == ONE_BINDING_DIGEST


def _left_nested(n: int):
    """x @ y @ ... @ y (n arguments, left-nested) typed without any |>."""
    t = TVar("c")
    for _ in range(n):
        t = Arrow(TVar("c"), t)
    env = TypeEnv((("x", t), ("y", TVar("c"))))
    q, m = QVar("x", env), Var("x")
    for _ in range(n):
        q, m = QApp(q, QVar("y", env)), App(m, Var("y"))
    return q, m


@pytest.mark.parametrize("n", [8, 16, 32])
def test_derive_substitution_types_each_input_once(monkeypatch, n):
    qt, m = _left_nested(n)
    q0, _, _ = initial_skeleton(m, FreshSupply())
    calls = count_calls(monkeypatch, ["typecheck._judge"])
    derive_substitution(q0, qt)
    assert calls["typecheck._judge"] == 2


def test_derive_substitution_left_nested_target():
    qt, m = _left_nested(16)
    q0, _, _ = initial_skeleton(m, FreshSupply())
    sigma, gamma = derive_substitution(q0, qt)
    assert not gamma.entries
    j, jt = check_skeleton(apply_subst(sigma, q0)), check_skeleton(qt)
    assert reflexive(j.constraint)
    assert term_alpha_eq(j.term, jt.term)
    assert env_eq(j.env, jt.env)
    assert type_eq(j.rtype, jt.rtype)


def _allvar_visits(call):
    """call()'s result and the nodes that allvar's walks took off their
    stacks while it ran."""
    visits = [0]
    code = allvar.__code__

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is code and arg.__name__ == "pop":
            visits[0] += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(before)
    return result, visits[0]


def test_allvar_is_kept_on_the_node():
    q, _ = _left_nested(8)
    found, visits = _allvar_visits(lambda: allvar(q))
    assert visits >= 17  # the applications and the leaves, at least
    again, visits = _allvar_visits(lambda: allvar(q))
    assert again is found and visits == 0


def test_initial_skeleton_records_its_allvar():
    """The names initial_skeleton allocates are allvar of what it builds,
    on chains, the closed corpus, terms with free variables and shadowing
    binders, and supplies that skip names and start past 0 (a copy starts
    with empty memo slots, so allvar walks it)."""
    rng = random.Random(28)
    terms = [parse_term("\\f. \\x. " + "f @ (" * n + "x" + ")" * n) for n in (1, 2, 10, 40)]
    terms += closed_corpus()
    terms += [parse_term(t) for t in ("y", "(\\x. x) @ x", "\\x. \\x. x @ y",
                                      "(\\x. \\y. x) @ (\\y. y @ x)")]
    terms += [random_term(rng, rng.randrange(1, 12), ["x0", "y", "z"]) for _ in range(300)]
    supplies = [FreshSupply(), FreshSupply(3, 5, frozenset({"a4", "a5", "s5", "s7", "x0"})),
                FreshSupply(0, 0, frozenset({"t0", "e1"}), "t", "e")]
    for m in terms:
        for supply in supplies:
            q = initial_skeleton(m, supply)[0]
            assert q._allvar is not None
            assert q._allvar == allvar(copy.copy(q)), print_skeleton(q)


def test_derive_substitution_walks_a_target_once():
    # allvar enters no node of an initial skeleton, which records its
    # variables as it is built, nor of a target with no QForall binder; a
    # QForall target is walked once, as allvar walks a copy of it, and a
    # second derivation onto the same target object walks nothing
    qt, m = _left_nested(8)
    q0 = initial_skeleton(m, FreshSupply())[0]
    found, visits = _allvar_visits(lambda: allvar(q0))
    assert visits == 0 and found == allvar(copy.copy(q0))
    _, visits = _allvar_visits(lambda: derive_substitution(q0, qt))
    assert visits == 0
    qf = QForall("g", QForall("h", qt))
    _, once = _allvar_visits(lambda: allvar(copy.copy(qf)))
    assert once >= 17
    weakened = QWeak(qf, TypeEnv((("zz", TVar("zz")),)))
    # the weakened target's root, below its weakening, is qf: walked already
    for target, expected in ((qf, once), (qf, 0), (weakened, 0)):
        q0 = initial_skeleton(m, FreshSupply())[0]
        _, visits = _allvar_visits(lambda: derive_substitution(q0, target))
        assert visits == expected


def test_derive_substitution_walks_only_quantified_targets(monkeypatch):
    """Over test 8's seeded targets: allvar walks no initial skeleton, walks
    a target (below its root weakenings) only if it has a QForall binder,
    then once, and walks nothing on a second derivation onto it."""
    walked = []
    real = initial.allvar

    def recording(q):
        if q._allvar is None:
            walked.append(q)
        return real(q)

    monkeypatch.setattr(initial, "allvar", recording)
    quantified = 0
    for seed in range(300):
        rng = random.Random(seed)
        q = random_valid_skeleton(rng)
        qt = apply_subst(random_subst_for(rng, q), q)
        root = qt
        if seed % 3 == 0:
            qt = QWeak(qt, TypeEnv(((f"zz{seed}", TVar(f"zz{seed}")),)))
        m = check_skeleton(qt).term
        walked.clear()
        derived = derive_substitution(initial_skeleton(m, FreshSupply())[0], qt)
        has_forall = any(type(n) is QForall for n in skeleton_nodes(root).values())
        assert [id(n) for n in walked] == ([id(root)] if has_forall else []), seed
        quantified += has_forall
        walked.clear()
        assert derive_substitution(initial_skeleton(m, FreshSupply())[0], qt) == derived
        assert walked == []
    assert quantified > 50


def test_binder_names_match_allvar_on_seeded_targets():
    """The names chosen for the target's QForall binders, one candidate at a
    time, are those fresh_name picks out of allvar of both skeletons: the
    substitution is the same when every allvar is known beforehand."""
    renamed = 0
    for seed in range(600):
        rng = random.Random(seed)
        q = random_valid_skeleton(rng)
        qt = apply_subst(random_subst_for(rng, q), q)
        # a binder named like a variable of either skeleton must be renamed
        names = sorted((allvar(q) | allvar(qt)) - ftv(check_skeleton(qt).env)) or ["a"]
        qt = QForall(rng.choice(names), QForall(rng.choice(names + ["a_0"]), qt))
        m = check_skeleton(qt).term
        lazy = derive_substitution(initial_skeleton(m, FreshSupply())[0], qt)
        q0 = initial_skeleton(m, FreshSupply())[0]
        qt2 = QForall(qt.binder, QForall(qt.body.binder, qt.body.body))
        allvar(q0), allvar(qt2)  # fills their memo slots, which the walk reads
        assert derive_substitution(q0, qt2) == lazy, seed
        renamed += lazy[0].bindings[-1][1].var != qt.binder
    assert renamed > 50
