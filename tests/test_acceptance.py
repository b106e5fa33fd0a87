"""End-to-end acceptance suite: golden worked examples, randomized soundness
properties, oracle agreement, and the subject-reduction engine."""

from __future__ import annotations

import random

import pytest

from fskel import (
    Arrow, EVarApp, Forall, FreshSupply, Omega, QApp, QSub, QWeak, TVar,
    TypeEnv, apply_subst, canonical_constraint, check_skeleton, check_system_f,
    cbv_step, constraint_eq, erase_evars, ftv, initial_skeleton, preserve,
    solved, type_eq,
)
from fskel.expansion import judgements_agree, property_expansion_sound, property_subst_sound
from generators import (
    decorate_dummies_inside, decorate_neq_inside, random_expansion,
    random_neq_decoration, random_subst_for, random_term, random_type,
    random_valid_skeleton,
)
from fskel.initial import derive_substitution, reflexive, rename_equiv
from fskel.reduction import (
    NAbs, NeqError, NestedWeakening, NotAStep, NotSolved, check_neq, from_neq,
    step_neq, subst_neq, sz, to_neq, transform_T,
)
from fskel.solve import RELATIONS, leq_f, leq_f_witness
from fskel.surface import (
    parse_constraint, parse_skeleton, parse_subst, parse_term, parse_type,
    print_constraint, print_skeleton, print_type, print_type_env,
)
from fskel.syntax import Abs, App, Subst, Var, env_eq
from fskel.typecheck import SkeletonError

from helpers import closed_corpus, decide, decorate, skeleton_for

REL_F = RELATIONS["F"]


# ---------------------------------------------------------------------------
# 1. Self-application skeleton: result type and constraint


def test_self_application_skeleton_judgement():
    q = parse_skeleton(
        "\\x. (x<x: all a. a> |> (all a. a) -> b) @ x<x: all a. a>")
    j = check_skeleton(q)
    assert j.term == Abs("x", App(Var("x"), Var("x")))
    assert env_eq(j.env, TypeEnv(()))
    assert type_eq(j.rtype, parse_type("(all a. a) -> b"))
    assert constraint_eq(j.constraint,
                         parse_constraint("(all a. a) <= (all a. a) -> b"))


# ---------------------------------------------------------------------------
# 2. Substitution pipeline: two substitutions applied in sequence, then fused


def test_substitution_pipeline_three_judgements_and_fusion():
    q = parse_skeleton("s^{a} (\\x. x<x: a -> b, y: a> @ y<x: a -> b, y: a>)")
    j = check_skeleton(q)
    assert env_eq(j.env, TypeEnv((("y", TVar("a")),)))
    assert type_eq(j.rtype, parse_type("s^{a} ((a -> b) -> b)"))

    phi1 = parse_subst("[a := a1 -> a2]")
    q1 = apply_subst(phi1, q)
    j1 = check_skeleton(q1)
    assert env_eq(j1.env, TypeEnv((("y", parse_type("a1 -> a2")),)))
    assert type_eq(j1.rtype, parse_type("s^{a1,a2} (((a1 -> a2) -> b) -> b)"))

    phi2 = parse_subst("[s := all b. id]")
    q2 = apply_subst(phi2, q1)
    j2 = check_skeleton(q2)
    assert env_eq(j2.env, j1.env)
    assert type_eq(j2.rtype, parse_type("all b. ((a1 -> a2) -> b) -> b"))

    fused = parse_subst("[a := a1 -> a2, s := all b. id]")
    jf = check_skeleton(apply_subst(fused, q))
    assert judgements_agree(jf, j2)


# ---------------------------------------------------------------------------
# 3. Subtyping introduced at a nested position by one substitution


def test_nested_subtyping_from_substitution():
    tau = "all a. a -> a"
    q = parse_skeleton(
        f"\\x. s^{{}} ((x<x: {tau}> |> ({tau}) -> {tau}) @ x<x: {tau}>)")
    j = check_skeleton(q)
    assert type_eq(j.rtype,
                   Arrow(parse_type(tau), EVarApp("s", frozenset(), parse_type(tau))))

    q2 = apply_subst(parse_subst("[s := id |> b -> b]"), q)
    j2 = check_skeleton(q2)
    assert type_eq(j2.rtype, parse_type(f"({tau}) -> b -> b"))
    expected = parse_constraint(f"({tau}) <= b -> b & ({tau}) <= ({tau}) -> {tau}")
    assert constraint_eq(j2.constraint, expected)
    # both atoms hold by one quantifier-elimination step
    assert leq_f(parse_type(tau), parse_type("b -> b"))
    assert leq_f(parse_type(tau), parse_type(f"({tau}) -> {tau}"))
    assert solved(j2.constraint, REL_F)


# ---------------------------------------------------------------------------
# 4. Initial skeleton of \x. x @ x: exact output and one decorating
#    substitution


def test_initial_skeleton_golden():
    q, theta, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    assert print_skeleton(q) == (
        "s3^{} (\\x. s2^{a0} ((s0^{a0} x<x: a0> |> s1^{a0} a0 -> a1)"
        " @ s1^{a0} x<x: a0>))")
    assert print_type_env(theta) == "{}"
    j = check_skeleton(q)
    assert print_type(j.rtype) == "s3^{} (a0 -> s2^{a0} a1)"
    assert print_constraint(canonical_constraint(j.constraint)) == (
        "s3^{; a0 -> s2^{a0} a1} s2^{a0; a1} s0^{a0} a0 <= s1^{a0} a0 -> a1")

    sig = parse_subst(
        "[a0 := all a. a -> a, a1 := all a. a -> a, s0 := id, s1 := id,"
        " s2 := id |> b -> b, s3 := all b. id]")
    j2 = check_skeleton(apply_subst(sig, q))
    assert type_eq(j2.rtype, parse_type("all b. (all a. a -> a) -> b -> b"))
    assert constraint_eq(
        j2.constraint,
        parse_constraint(
            "ex b. ((all a. a -> a) <= (all a. a -> a) -> all a. a -> a"
            " & (all a. a -> a) <= b -> b)"))
    assert solved(j2.constraint, REL_F)


# ---------------------------------------------------------------------------
# 5. Substitution soundness on ten thousand random (skeleton, substitution)
#    pairs


def test_substitution_soundness_randomized():
    rng = random.Random(1005)
    for _ in range(10_000):
        q = random_valid_skeleton(rng)
        phi = random_subst_for(rng, q)
        property_subst_sound(q, phi)


# ---------------------------------------------------------------------------
# 6. Expansion soundness on ten thousand random (skeleton, expansion,
#    forbidden-set) triples with ftv(env) inside the forbidden set


def test_expansion_soundness_randomized():
    rng = random.Random(1006)
    for _ in range(10_000):
        q = random_valid_skeleton(rng)
        j = check_skeleton(q)
        forbidden = ftv(j.env) | frozenset(
            v for v in sorted(ftv(q)) if rng.random() < 0.3)
        i = random_expansion(rng, sorted(forbidden), 2)
        property_expansion_sound(q, i, forbidden)


# ---------------------------------------------------------------------------
# 7. Initial skeletons from independent fresh supplies are equal up to a
#    variable renaming


def test_initial_skeletons_rename_equivalent():
    rng = random.Random(1007)
    for i in range(100):
        free = [] if i % 2 == 0 else ["y0", "y1"]
        m = random_term(rng, rng.randrange(1, 6), free)
        q1, _, _ = initial_skeleton(m, FreshSupply())
        q2, _, _ = initial_skeleton(
            m, FreshSupply(tvar_next=5, evar_next=7,
                           tvar_prefix="t", evar_prefix="u"))
        phi = rename_equiv(q1, q2)
        assert phi is not None
        assert apply_subst(phi, q2) == q1
        psi = rename_equiv(q2, q1)
        assert psi is not None
        assert apply_subst(psi, q1) == q2


# ---------------------------------------------------------------------------
# 8. Any judgement reachable by substitution and weakening is reached from
#    the initial skeleton by a derived substitution


def test_derived_substitution_reaches_target():
    rng = random.Random(1008)
    for i in range(100):
        q = random_valid_skeleton(rng)
        phi = random_subst_for(rng, q)
        qt = apply_subst(phi, q)
        if i % 3 == 0:
            extra = TypeEnv(((f"zz{i}", TVar(f"zz{i}")),))
            qt = QWeak(qt, extra)
        jt = check_skeleton(qt)
        q0, _, _ = initial_skeleton(jt.term, FreshSupply())
        sigma, gamma = derive_substitution(q0, qt)
        q1 = apply_subst(sigma, q0)
        if gamma.entries:
            q1 = QWeak(q1, gamma)
        assert judgements_agree(check_skeleton(q1), jt)
        assert reflexive(Omega())


# ---------------------------------------------------------------------------
# 9. Exhaustive agreement of the one-step instantiation decision with a
#    brute-force matching oracle


ALPHA = ["a", "b", "c"]


def _types_of_size(n: int, table: dict) -> list:
    if n in table:
        return table[n]
    out = []
    if n == 1:
        out = [TVar(v) for v in ALPHA]
    else:
        for a in ALPHA:
            out.extend(Forall(a, b) for b in _types_of_size(n - 1, table))
        for i in range(1, n - 1):
            for d in _types_of_size(i, table):
                for c in _types_of_size(n - 1 - i, table):
                    out.append(Arrow(d, c))
    table[n] = out
    return out


def _strip_dummies(t):
    match t:
        case TVar(_):
            return t
        case Arrow(d, c):
            return Arrow(_strip_dummies(d), _strip_dummies(c))
        case Forall(a, body):
            body = _strip_dummies(body)
            return body if a not in ftv(body) else Forall(a, body)
    raise TypeError(t)


def _outer_block(t):
    binders = []
    while isinstance(t, Forall):
        binders.append(t.binder)
        t = t.body
    return binders, t


def _alpha_perm_eq(t1, t2, m1, m2):
    """Structural equality modulo permutations of quantifier blocks, with
    m1/m2 mapping bound names to shared placeholders."""
    import itertools
    b1, c1 = _outer_block(t1)
    b2, c2 = _outer_block(t2)
    if len(b1) != len(b2):
        return False
    if not b1:
        match c1, c2:
            case TVar(a), TVar(b):
                return m1.get(a, ("f", a)) == m2.get(b, ("f", b))
            case Arrow(d1, k1), Arrow(d2, k2):
                return (_alpha_perm_eq(d1, d2, m1, m2)
                        and _alpha_perm_eq(k1, k2, m1, m2))
            case _:
                return False
    base = 1 + max([v[1] for v in list(m1.values()) + list(m2.values())
                    if v[0] == "b"], default=-1)
    for perm in itertools.permutations(range(len(b1))):
        n1 = m1 | {a: ("b", base + i) for i, a in enumerate(b1)}
        n2 = m2 | {b2[perm[i]]: ("b", base + i) for i in range(len(b2))}
        # later binders shadow earlier same-named ones
        if _alpha_perm_eq(c1, c2, n1, n2):
            return True
    return False


def _oracle_eq(t1, t2):
    return _alpha_perm_eq(_strip_dummies(t1), _strip_dummies(t2), {}, {})


def _oracle_subst(a, x, t):
    """Capture-avoiding substitution of x for a, independent of the library."""
    match t:
        case TVar(b):
            return x if b == a else t
        case Arrow(d, c):
            return Arrow(_oracle_subst(a, x, d), _oracle_subst(a, x, c))
        case Forall(b, body):
            if b == a:
                return t
            if b in ftv(x) and a in ftv(body):
                b2 = b
                while b2 in ftv(x) | ftv(body):
                    b2 += "_"
                body = _oracle_subst(b, TVar(b2), body)
                b = b2
            return Forall(b, _oracle_subst(a, x, body))
    raise TypeError(t)


def _oracle_subterms(t):
    out = [t]
    match t:
        case Arrow(d, c):
            out += _oracle_subterms(d) + _oracle_subterms(c)
        case Forall(_, body):
            out += _oracle_subterms(body)
    return out


def _oracle_leq(t1, t2):
    if _oracle_eq(t1, t2):
        return True
    binders, core = _outer_block(_strip_dummies(t1))
    if not binders:
        return False
    cands = _oracle_subterms(_strip_dummies(t2))
    cands += [TVar(v) for v in sorted(ftv(t1) | ftv(t2))]
    cands.append(TVar("zfresh"))
    for i, a in enumerate(binders):
        rest = binders[:i] + binders[i + 1:]
        if a in binders[i + 1:]:
            continue  # shadowed: this binder is a dummy handled by stripping
        body = core
        for b in reversed(rest):
            body = Forall(b, body)
        for x in cands:
            # substituting under the remaining binders renames any of them
            # that would capture a free variable of x
            if _oracle_eq(_oracle_subst(a, x, body), t2):
                return True
    return False


def test_one_step_instantiation_matches_bruteforce_oracle():
    table: dict = {}
    for n in range(1, 7):
        _types_of_size(n, table)
    for i in range(1, 7):
        for j in range(1, 8 - i):
            for t1 in table[i]:
                for t2 in table[j]:
                    assert leq_f(t1, t2) == _oracle_leq(t1, t2), (
                        print_type(t1), print_type(t2))


@pytest.mark.parametrize("t1, t2", [
    # the witness b0 is free where canonical_type names a remaining binder b0
    ("all a. all c. c -> a", "all c. c -> b0"),
    ("all a. all c. c -> a", "all c. c -> d"),
    # the witness c is free where t1 names a remaining binder c
    ("all a. all c. c -> a", "all d. d -> c"),
    ("all a. all c. a -> c -> c", "all e. (c -> c) -> e -> e"),
])
def test_one_step_instantiation_renames_a_binder_that_would_capture(t1, t2):
    t1, t2 = parse_type(t1), parse_type(t2)
    assert _oracle_leq(t1, t2)
    assert leq_f(t1, t2)
    a, body, x = leq_f_witness(t1, t2)
    assert type_eq(apply_subst(Subst(((a, x),)), body), t2)


# ---------------------------------------------------------------------------
# 10. Subject reduction: every call-by-value step preserves the environment,
#     the result type, and solvedness


def _reduction_cases():
    rng = random.Random(1010)
    cases = [decorate(skeleton_for(m), rng) for m in closed_corpus()]
    # an application that discards its argument
    cases.append(parse_skeleton(
        "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)"))
    # self-application at a quantified type, applied to the identity
    tau = "all a. a -> a"
    fun = parse_skeleton(
        f"\\x. s^{{}} ((x<x: {tau}> |> ({tau}) -> {tau}) @ x<x: {tau}>)")
    jf = check_skeleton(fun)
    arg = parse_skeleton("all a. \\y. y<y: a>")
    ja = check_skeleton(arg)
    cases.append(QApp(QSub(fun, Arrow(ja.rtype, jf.rtype.cod)), arg))
    # a polymorphic identity instantiated at c -> c at each use in a chain
    f = "f<f: all b. b -> b, x: c -> c> |> (c -> c) -> c -> c"
    chain = "x<f: all b. b -> b, x: c -> c>"
    for _ in range(4):
        chain = f"({f}) @ ({chain})"
    cases.append(parse_skeleton(
        f"((\\f. \\x. {chain}) @ (all b. \\y. y<y: b>)) @ (\\w. w<w: c>)"))
    # a step that eliminates the inner binder b of all a. all b. ..., and a
    # step to a type with no quantifier
    env = "f: a -> b, x: a, k: c"
    cases.append(parse_skeleton(
        f"((((all a. all b. (\\f. \\x. (f<{env}> @ x<{env}>))) "
        "|> all a. (a -> c) -> a -> c) |> (d -> c) -> d -> c) @ (\\h. k<h: d, k: c>))"))
    # an argument at a type only equal to the domain, which becomes a
    # function part of type all d. c -> c
    cases.append(parse_skeleton(
        "(\\x. (x<x: c -> c, y: c> @ y<x: c -> c, y: c>)) @ (all d. (\\z. z<z: c, y: c>))"))
    return cases


def test_subject_reduction():
    cases = _reduction_cases()
    assert len(cases) >= 50
    total_steps = 0
    for q in cases:
        j = check_skeleton(q)
        assert decide(j.constraint, REL_F)
        for _ in range(60):
            m2 = cbv_step(j.term)
            if m2 is None:
                break
            q = preserve(q, m2)
            j2 = check_skeleton(q)
            assert env_eq(j2.env, j.env)
            assert type_eq(j2.rtype, j.rtype)
            assert decide(j2.constraint, REL_F)
            j = j2
            total_steps += 1
        else:
            pytest.fail("reduction did not terminate")
    assert total_steps >= 50


def _decorated_neq_starts(rng, count):
    """count valid proof-carrying skeletons: the forms of test 10's cases,
    each node wrapped with probability 0.3 in one random decoration."""
    cases = [to_neq(q) for q in _reduction_cases()]
    made = 0
    while made < count:
        try:
            n = decorate_neq_inside(rng, rng.choice(cases), 0.3)
            check_neq(n)
        except NeqError:
            continue
        made += 1
        yield n


def test_subject_reduction_on_decorated_proof_skeletons():
    # every kind of decoration, at every depth: each step keeps the
    # environment and the type modulo the equational theory
    steps = 0
    for n in _decorated_neq_starts(random.Random(1013), 10_000):
        _, env, t = check_neq(n)
        for _ in range(30):
            if cbv_step(check_neq(n)[0]) is None:
                break
            n = step_neq(n)
            _, env2, t2 = check_neq(n)
            assert env_eq(env2, env) and type_eq(t2, t)
            steps += 1
        else:
            pytest.fail("reduction did not terminate")
    assert steps >= 10_000


def test_flattened_proof_skeletons_agree_with_check_neq():
    for n in _decorated_neq_starts(random.Random(1013), 2_000):
        m, env, t = check_neq(n)
        j = check_skeleton(from_neq(n))
        assert j.term == m and env_eq(j.env, env) and type_eq(j.rtype, t)
        assert decide(j.constraint, REL_F)


def test_type_substitution_into_proof_skeletons():
    # subst_neq(a, x, n) judges n's environment and type under [a := x]; x
    # names the binders the decorations make, so some of them are renamed
    rng = random.Random(1015)
    for n in _decorated_neq_starts(rng, 2_000):
        _, env, t = check_neq(n)
        a = rng.choice(sorted(ftv(env) | ftv(t)) or ["c0"])
        x = random_type(rng, ["g", "d", "d_0", "c0", a], 2)
        _, env2, t2 = check_neq(subst_neq(a, x, n))
        phi = Subst(((a, x),))
        assert env_eq(env2, apply_subst(phi, env)) and type_eq(t2, apply_subst(phi, t))


def test_subject_reduction_through_dummy_quantifiers_and_equal_steps():
    # dummy quantifiers and steps between equal types at every depth, so
    # function parts have types only equal to arrows
    rng = random.Random(1014)
    cases = _reduction_cases()
    starts = 0
    while starts < 2_000:
        try:
            q = decorate_dummies_inside(rng, rng.choice(cases), 0.15)
            j0 = check_skeleton(q)
        except SkeletonError:
            continue
        if not decide(j0.constraint, REL_F):
            continue
        starts += 1
        assert check_system_f(erase_evars(q))
        j = j0
        for _ in range(60):
            m2 = cbv_step(j.term)
            if m2 is None:
                break
            q = preserve(q, m2)
            j = check_skeleton(q)
            assert env_eq(j.env, j0.env) and type_eq(j.rtype, j0.rtype)
            assert decide(j.constraint, REL_F)
            assert check_system_f(erase_evars(q))
        else:
            pytest.fail("reduction did not terminate")


# ---------------------------------------------------------------------------
# 11. The head-exposing transformation never grows the size measure


def _random_neq(rng):
    q = random_valid_skeleton(rng)
    j = check_skeleton(q)
    if not solved(j.constraint, REL_F):
        return None
    try:
        n = to_neq(q)
    except Exception:
        return None
    for _ in range(rng.randrange(4)):
        n = random_neq_decoration(rng, n)
    return n


def test_transformation_size_nonincreasing():
    rng = random.Random(1011)
    checked = 0
    cases = _reduction_cases()
    for q in cases:
        n = to_neq(q)
        t = transform_T(n)
        check_neq(t)
        assert sz(t) <= sz(n)
        checked += 1
    while checked < 10_000 + len(cases):
        n = _random_neq(rng)
        if n is None:
            continue
        t = transform_T(n)
        check_neq(t)
        assert sz(t) <= sz(n)
        assert sz(n) >= 1 and sz(t) >= 1
        assert (sz(n) == 1) == isinstance(n, NAbs)
        assert (sz(t) == 1) == isinstance(t, NAbs)
        checked += 1


# ---------------------------------------------------------------------------
# 12. Solved skeletons remain typable in plain System F after E-variable
#     erasure


def test_erased_solved_skeletons_are_system_f():
    for q in _reduction_cases():
        j = check_skeleton(q)
        assert solved(j.constraint, REL_F)
        assert check_system_f(erase_evars(q))


# ---------------------------------------------------------------------------
# The reduction engine decides solvedness while it elaborates: to_neq and
# preserve raise NotSolved exactly when the constraint fails under F


def _solvedness_corpus():
    """Test 11's corpus and random valid skeletons, about two in three of
    them under a random subtyping target (most of those are unsolved)."""
    rng = random.Random(1012)
    cases = _reduction_cases()
    out = cases + [QSub(q, random_type(rng, sorted(ftv(q)) or ["c"], 2)) for q in cases]
    while len(out) < 3000:
        q = random_valid_skeleton(rng)
        if rng.random() < 0.7:
            q = QSub(q, random_type(rng, sorted(ftv(q)) or ["t0"], 2))
        out.append(q)
    return out


def _raised(fn, *args):
    try:
        fn(*args)
    except (NotSolved, NotAStep, NestedWeakening) as e:
        return type(e)
    return None


def test_elaboration_decides_solvedness():
    unsolved = 0
    for q in _solvedness_corpus():
        j = check_skeleton(q)
        ok = decide(j.constraint, REL_F)
        unsolved += not ok
        m_next = cbv_step(j.term) or j.term  # an irreducible term: NotAStep
        assert (_raised(to_neq, q) is NotSolved) == (not ok)
        assert (_raised(preserve, q, m_next) is NotSolved) == (not ok)
    assert unsolved >= 1000


def test_reduction_error_precedence():
    # SkeletonError, then NotSolved, then NestedWeakening, then NotAStep
    weak_fun = "((\\u. u<u: d -> d>) + {y: b})"
    unsolved_arg = "((\\z. z<z: c, y: b>) |> d -> d)"  # c -> c <= d -> d fails
    reduct, wrong = parse_term("\\z. z"), parse_term("\\w. w @ w")
    invalid = parse_skeleton(f"{weak_fun} @ ((\\z. z<z: c, y: e>) |> d -> d)")
    for fn, args in ((to_neq, ()), (preserve, (reduct,)), (preserve, (wrong,))):
        with pytest.raises(SkeletonError):
            fn(invalid, *args)
    unsolved = [
        # the weakening is walked before the failing step, or below it
        parse_skeleton(f"{weak_fun} @ {unsolved_arg}"),
        parse_skeleton("(\\u. u<u: d -> d, y: b>) @ "
                       "(((\\z. z<z: c>) + {y: b}) |> d -> d)"),
        # a weakening at the root
        parse_skeleton("((\\u. u<u: d -> d>) @ ((\\z. z<z: c>) |> d -> d)) + {y: b}"),
    ]
    for q in unsolved:
        assert not solved(check_skeleton(q).constraint, REL_F)
        assert _raised(to_neq, q) is NotSolved
        assert _raised(preserve, q, reduct) is NotSolved
        assert _raised(preserve, q, wrong) is NotSolved
    q = parse_skeleton(f"{weak_fun} @ (\\z. z<z: d, y: b>)")
    assert solved(check_skeleton(q).constraint, REL_F)
    assert _raised(to_neq, q) is NestedWeakening
    assert _raised(preserve, q, reduct) is NestedWeakening
    assert _raised(preserve, q, wrong) is NestedWeakening
    q = parse_skeleton("((\\u. u<u: d -> d>) @ (\\z. z<z: d>)) + {y: b}")
    assert _raised(preserve, q, wrong) is NotAStep
