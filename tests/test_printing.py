"""The printers against the reference printer, on trees, on shared subterms
and through one table; and the cost of printing a derivation tree."""

import random

from fskel import cli, surface
from fskel.initial import initial_skeleton
from fskel.surface import (
    parse_term, print_constraint, print_expansion, print_skeleton, print_term,
    print_type, print_type_env,
)
from fskel.syntax import (
    Abs, And, App, Atomic, EGuard, Exists, FreshSupply, Omega, QAbs, QApp,
    QEVar, QForall, QSub, QVar, QWeak, TypeEnv, Var,
)
from fskel.typecheck import check_skeleton

from generators import (
    random_env, random_expansion, random_skeleton_shape, random_term, random_type,
    random_valid_skeleton,
)
from reference_printer import (
    ref_constraint, ref_expansion, ref_skeleton, ref_term, ref_type,
    ref_type_env,
)

TVARS = ["a", "b", "c"]
TERM_VARS = ["x", "y", "z"]
CASES = 2000


def _random_constraint(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return Omega()
        return Atomic(random_type(rng, TVARS, 3), random_type(rng, TVARS, 3))
    match rng.randrange(4):
        case 0 | 1:
            return And(_random_constraint(rng, depth - 1), _random_constraint(rng, depth - 1))
        case 2:
            return Exists(rng.choice(TVARS), _random_constraint(rng, depth - 1))
        case _:
            return EGuard(f"s{rng.randrange(2)}", frozenset(rng.sample(TVARS, rng.randrange(3))),
                          random_type(rng, TVARS, 2), _random_constraint(rng, depth - 1))


def _shared(rng: random.Random, leaves: list, build, k: int):
    """A DAG: each new node takes its children from the nodes made before
    it, so one subterm object sits at several positions of the last."""
    pool = list(leaves)
    for _ in range(k):
        pool.append(build(rng, pool))
    return pool[-1]


def _shared_term(rng: random.Random):
    def build(rng, pool):
        if rng.random() < 0.6:
            return App(rng.choice(pool), rng.choice(pool))
        return Abs(rng.choice(TERM_VARS), rng.choice(pool))
    return _shared(rng, [Var(x) for x in TERM_VARS], build, rng.randrange(1, 10))


def _shared_skeleton(rng: random.Random):
    def build(rng, pool):
        kid = rng.choice(pool)
        match rng.randrange(6):
            case 0 | 1:
                return QApp(kid, rng.choice(pool))
            case 2:
                return QAbs(rng.choice(TERM_VARS), kid)
            case 3:
                return QEVar("s", frozenset(rng.sample(TVARS, 2)), kid)
            case 4:
                return QSub(kid, random_type(rng, TVARS, 2))
            case _:
                return QWeak(kid, pool[0].env)  # one environment object, shared
    leaves = [QVar(x, random_env(rng, TVARS, TERM_VARS)) for x in TERM_VARS]
    return _shared(rng, leaves, build, rng.randrange(1, 10))


def _shared_constraint(rng: random.Random):
    def build(rng, pool):
        kid = rng.choice(pool)
        match rng.randrange(3):
            case 0:
                return And(kid, rng.choice(pool))
            case 1:
                return Exists(rng.choice(TVARS), kid)
            case _:
                return EGuard("s", frozenset(TVARS[:2]), random_type(rng, TVARS, 1), kid)
    leaves = [Omega(), Atomic(random_type(rng, TVARS, 2), random_type(rng, TVARS, 2))]
    return _shared(rng, leaves, build, rng.randrange(1, 10))


def test_printers_match_the_reference_on_random_inputs():
    rng = random.Random(1401)
    for _ in range(CASES):
        t = random_type(rng, TVARS, rng.randrange(6))
        assert print_type(t) == ref_type(t)
        m = random_term(rng, rng.randrange(1, 12), [])
        assert print_term(m) == ref_term(m)
        c = _random_constraint(rng, rng.randrange(6))
        assert print_constraint(c) == ref_constraint(c)
        q = random_skeleton_shape(rng, TVARS, TERM_VARS, rng.randrange(6))
        assert print_skeleton(q) == ref_skeleton(q)
        i = random_expansion(rng, TVARS, rng.randrange(5))
        assert print_expansion(i) == ref_expansion(i)
        env = random_env(rng, TVARS, TERM_VARS)
        assert print_type_env(env) == ref_type_env(env)


def test_printers_match_the_reference_on_shared_subterms():
    rng = random.Random(1402)
    for _ in range(CASES // 4):
        m = _shared_term(rng)
        assert print_term(m) == ref_term(m)
        q = _shared_skeleton(rng)
        assert print_skeleton(q) == ref_skeleton(q)
        c = _shared_constraint(rng)
        assert print_constraint(c) == ref_constraint(c)
        # a type built twice is one node, so types share by construction
        t = random_type(rng, TVARS, 5)
        assert print_type(t) == ref_type(t)


def _nodes(q):
    """q's nodes with their depths, root first, children left to right."""
    out, todo = [], [(q, 0)]
    while todo:
        q, depth = todo.pop()
        out.append((q, depth))
        todo.extend((kid, depth + 1) for kid in reversed(cli._children(q)))
    return out


def test_judgement_terms_of_real_skeletons_match_the_reference():
    # a node's judgement term is built from its premises' terms, so the
    # terms of one derivation share subterms; print them through one table
    rng = random.Random(1403)
    for _ in range(CASES // 4):
        q = random_valid_skeleton(rng, 6)
        memo: dict = {}
        expected = []
        for node, depth in _nodes(q):
            j = check_skeleton(node)
            assert print_term(j.term, memo) == ref_term(j.term)
            assert print_type_env(j.env, memo) == ref_type_env(j.env)
            label = type(node).__name__[1:].lower()
            expected.append(f"{'  ' * depth}{label}: {ref_term(j.term)} : "
                            f"{ref_type_env(j.env)} |- {ref_type(j.rtype)}")
        assert print_skeleton(q, memo) == ref_skeleton(q)
        assert cli._tree_lines(q) == expected


def test_one_table_over_many_short_lived_nodes():
    # the table holds every node it has rendered, so a node freed by the
    # caller cannot hand its id, and with it its text, to a new node
    rng = random.Random(1404)
    memo: dict = {}
    for _ in range(CASES):
        m = random_term(rng, rng.randrange(1, 8), [])
        assert print_term(m, memo) == ref_term(m)
        q = random_skeleton_shape(rng, TVARS, TERM_VARS, rng.randrange(4))
        assert print_skeleton(q, memo) == ref_skeleton(q)
        env = random_env(rng, TVARS, TERM_VARS)
        assert print_type_env(env, memo) == ref_type_env(env)


# ---------------------------------------------------------------------------
# Cost: each node is rendered once


def _chain_skeleton(n: int, supply: FreshSupply = FreshSupply()):
    """The initial skeleton of \\g. \\y. g @ (... @ y) with n applications."""
    text = "y"
    for _ in range(n):
        text = f"g @ ({text})"
    q, _, _ = initial_skeleton(parse_term("\\g. \\y. " + text), supply)
    return q


def _term_nodes(m) -> tuple[int, int]:
    """The number of distinct node objects in m, and of their child links:
    one fewer links than nodes where none is shared."""
    seen, links, todo = set(), 0, [m]
    while todo:
        m = todo.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        kids = (m.body,) if isinstance(m, Abs) else (m.fun, m.arg) if isinstance(m, App) else ()
        links += len(kids)
        todo += kids
    return len(seen), links


def _tree_term_renders(monkeypatch, q):
    """_tree_lines(q), the term nodes it rendered (not read from its table)
    and its calls of print_term."""
    rendered, calls = [], [0]
    real = surface.print_term

    def counted(m, memo=None):
        calls[0] += 1
        if memo is None or id(m) not in memo:
            rendered.append(m)
        return real(m, memo)

    with monkeypatch.context() as mp:
        mp.setattr(surface, "print_term", counted)
        mp.setattr(cli, "print_term", counted)
        lines = cli._tree_lines(q)
    return lines, rendered, calls[0]


def test_tree_lines_render_each_term_node_once(monkeypatch):
    renders, calls = {}, {}
    for n in (10, 20, 40):
        q = _chain_skeleton(n)
        lines, rendered, calls[n] = _tree_term_renders(monkeypatch, q)
        assert lines == cli._tree_lines(q)
        assert len({id(m) for m in rendered}) == len(rendered)
        nodes, links = _term_nodes(check_skeleton(q).term)
        assert len(rendered) == nodes
        # each line reads its term from the table but the first, and each
        # node rendered reads its children: a shared one from the table
        assert calls[n] == len(lines) + links
        assert links > nodes - 1  # the leaves g are one Var
        renders[n] = len(rendered)
    # linear in n: the same number of renders and calls per application
    assert renders[40] - renders[20] == 2 * (renders[20] - renders[10])
    assert calls[40] - calls[20] == 2 * (calls[20] - calls[10])


def test_print_type_formats_each_live_type_once(monkeypatch):
    # names no other test gives, so every type of q is formatted here first
    q = _chain_skeleton(20, FreshSupply(tvar_prefix="fmt_a", evar_prefix="fmt_s"))
    formatted = []
    real = surface.print_type

    def counted(t):
        if t._text is None:
            formatted.append(t)
        return real(t)

    monkeypatch.setattr(surface, "print_type", counted)
    monkeypatch.setattr(cli, "print_type", counted)
    first = cli._tree_lines(q)
    assert formatted and len({id(t) for t in formatted}) == len(formatted)
    formatted.clear()
    # every type of the derivation is alive in q's judgements, text and all
    assert cli._tree_lines(q) == first
    assert formatted == []
