"""Seeded input generation for the fskel benchmark.

This module imports nothing from fskel: the inputs a seed produces do not
depend on the code under measurement, and the same seed always gives
byte-identical input texts.  Every op spec is a plain dict of strings and
numbers that also carries the answer the op must produce, known by
construction rather than computed by fskel.

Types are built as nested tuples before they are printed:
("v", a) | ("->", dom, cod) | ("all", a, body) | ("s", evar, forbidden, body).
Skeletons likewise: ("var", x, env) | ("abs", x, body) | ("app", f, a) |
("all", a, body) | ("evar", s, forbidden, body) | ("sub", body, type) |
("weak", body, env), where an env is a tuple of (name, type) pairs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Size ladders and block compositions.  Every block holds the same multiset
# of op sizes, whatever the seed.  A run times each op of its blocks once per
# pass and keeps each op's best time (run.py), so the latency quantiles are
# taken over a fixed multiset of 110 ops and each falls inside one size
# class, away from the edge to a class of very different cost:
# chain_kernel p50 in the n=20 class and p90 in the n=40 class; reduce_nf
# p50 in the poly n=4 class and p90 in the poly n=8 class.  The largest
# sizes are rare because they cost up to seconds each, and a cheap list
# gives every op more tries in a run.
CHAIN_BLOCK = ((10, 40), (20, 30), (28, 17), (40, 21), (80, 1), (160, 1))
REDUCE_BLOCK = (("small", 1, 20), ("idchain", 4, 10), ("idchain", 8, 10),
                ("poly", 4, 30), ("idchain", 16, 19), ("poly", 8, 17),
                ("idchain", 24, 2), ("poly", 16, 1), ("poly", 32, 1))
RANDOM_BLOCK_OPS = 500
RANDOM_MIX = (("subst", 30), ("expand", 25), ("leq", 20), ("reject", 8),
              ("unsolved", 7), ("solved", 10))

FREE = ("a", "b", "c")
BOUND = ("p", "q", "r")
EVARS = ("s0", "s1", "s2")


# ---------------------------------------------------------------------------
# Printing


def ty(t) -> str:
    """Fully parenthesised surface text of a tuple type."""
    match t:
        case ("v", a):
            return a
        case ("->", d, c):
            return f"({ty(d)} -> {ty(c)})"
        case ("all", a, body):
            return f"(all {a}. {ty(body)})"
        case ("s", s, forbidden, body):
            return f"{s}^{{{','.join(sorted(forbidden))}}} ({ty(body)})"
    raise TypeError(t)


def env_text(env) -> str:
    return ", ".join(f"{x}: {ty(t)}" for x, t in env)


def skel(q) -> str:
    """Fully parenthesised surface text of a tuple skeleton."""
    match q:
        case ("var", x, env):
            return f"{x}<{env_text(env)}>"
        case ("abs", x, body):
            return f"(\\{x}. {skel(body)})"
        case ("app", f, a):
            return f"({skel(f)} @ {skel(a)})"
        case ("all", a, body):
            return f"(all {a}. {skel(body)})"
        case ("evar", s, forbidden, body):
            return f"{s}^{{{','.join(sorted(forbidden))}}} ({skel(body)})"
        case ("sub", body, t):
            return f"({skel(body)} |> {ty(t)})"
        case ("weak", body, env):
            return f"({skel(body)} + {{{env_text(env)}}})"
    raise TypeError(q)


def term_of(q) -> str:
    """Surface text of the term a tuple skeleton types."""
    match q:
        case ("var", x, _):
            return x
        case ("abs", x, body):
            return f"(\\{x}. {term_of(body)})"
        case ("app", f, a):
            return f"({term_of(f)} @ {term_of(a)})"
        case ("all", _, body) | ("evar", _, _, body) | ("sub", body, _) | ("weak", body, _):
            return term_of(body)
    raise TypeError(q)


# ---------------------------------------------------------------------------
# Tuple types


def ftv(t) -> frozenset:
    match t:
        case ("v", a):
            return frozenset({a})
        case ("->", d, c):
            return ftv(d) | ftv(c)
        case ("all", a, body):
            return ftv(body) - {a}
        case ("s", _, forbidden, body):
            return frozenset(forbidden) | ftv(body)
    raise TypeError(t)


def env_ftv(env) -> frozenset:
    out = frozenset()
    for _, t in env:
        out |= ftv(t)
    return out


def size(t) -> int:
    match t:
        case ("v", _):
            return 1
        case ("->", d, c):
            return 1 + size(d) + size(c)
        case ("all", _, body) | ("s", _, _, body):
            return 1 + size(body)
    raise TypeError(t)


def strip(t):
    """Drop dummy quantifiers (binders not free in their body)."""
    match t:
        case ("v", _):
            return t
        case ("->", d, c):
            return ("->", strip(d), strip(c))
        case ("all", a, body):
            body = strip(body)
            return ("all", a, body) if a in ftv(body) else body
        case ("s", s, forbidden, body):
            return ("s", s, forbidden, strip(body))
    raise TypeError(t)


def subst1(a: str, x, t):
    """t[a := x]; callers guarantee no binder of t is free in x."""
    match t:
        case ("v", b):
            return x if b == a else t
        case ("->", d, c):
            return ("->", subst1(a, x, d), subst1(a, x, c))
        case ("all", b, body):
            return t if b == a else ("all", b, subst1(a, x, body))
    raise TypeError(t)


def rename_bound(t, names: dict):
    """Alpha-rename every binder of t through names (fresh targets only)."""
    def go(t, env):
        match t:
            case ("v", a):
                return ("v", env.get(a, a))
            case ("->", d, c):
                return ("->", go(d, env), go(c, env))
            case ("all", a, body):
                b = names.get(a, a)
                return ("all", b, go(body, {**env, a: b}))
        raise TypeError(t)
    return go(t, {})


def rand_type(rng: random.Random, free, depth: int, evars=False):
    """Random type over the given free variables; binders come from BOUND
    so substituting free variables never captures."""
    if depth <= 0 or rng.random() < 0.35:
        return ("v", rng.choice(free))
    r = rng.randrange(5 if evars else 4)
    if r <= 1:
        return ("->", rand_type(rng, free, depth - 1, evars),
                rand_type(rng, free, depth - 1, evars))
    if r <= 3:
        a = rng.choice(BOUND)
        return ("all", a, rand_type(rng, tuple(free) + (a,), depth - 1, evars))
    forbidden = tuple(sorted(set(rng.sample(list(free), min(len(free), rng.randrange(3))))))
    return ("s", rng.choice(EVARS), forbidden, rand_type(rng, free, depth - 1, evars))


# ---------------------------------------------------------------------------
# chain_kernel


def chain_term(n: int, f: str, x: str) -> str:
    body = x
    for _ in range(n):
        body = f"{f} @ ({body})"
    return f"\\{f}. \\{x}. {body}"


def chain_target(n: int, f: str, x: str, b: str, tau) -> str:
    """The chain typed with f: all b. b -> b instantiated at tau at every use."""
    poly = ("all", b, ("->", ("v", b), ("v", b)))
    inst = ("->", tau, tau)
    env = ((f, poly), (x, tau))
    body = ("var", x, env)
    for _ in range(n):
        body = ("app", ("sub", ("var", f, env), inst), body)
    return skel(("abs", f, ("abs", x, body)))


def chain_kernel(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = []
        for n, count in CHAIN_BLOCK:
            for _ in range(count):
                f, x = rng.choice(["f", "g", "h", "k"]), rng.choice(["x", "y", "z", "w"])
                b = rng.choice(["b", "d", "e"])
                tau = ("->", ("v", rng.choice(["c", "m"])), ("v", rng.choice(["c", "m"])))
                poly = ("all", b, ("->", ("v", b), ("v", b)))
                block.append({
                    "kind": "chain", "n": n,
                    "term": chain_term(n, f, x),
                    "target": chain_target(n, f, x, b, tau),
                    "rtype": ty(("->", poly, ("->", tau, tau))),
                    "atom": [ty(poly), ty(("->", tau, tau))],
                })
        rng.shuffle(block)
        out.append(block)
    return out


# ---------------------------------------------------------------------------
# reduce_nf


def poly_chain(n: int, base) -> str:
    """((\\f.\\x. (f |> tau->tau) @ ... @ x) @ (all b. \\y. y)) @ (\\w. w)
    with tau = base -> base, so the whole term has type tau."""
    tau = ("->", base, base)
    poly = ("all", "b", ("->", ("v", "b"), ("v", "b")))
    env = (("f", poly), ("x", tau))
    body = ("var", "x", env)
    for _ in range(n):
        body = ("app", ("sub", ("var", "f", env), ("->", tau, tau)), body)
    fun = ("abs", "f", ("abs", "x", body))
    arg = ("all", "b", ("abs", "y", ("var", "y", (("y", ("v", "b")),))))
    return skel(("app", ("app", fun, arg), _identity(base, "w")))


def _identity(t, x: str):
    """A skeleton for \\x. x of type t -> t."""
    return ("abs", x, ("var", x, ((x, t),)))


def id_chain(n: int, t) -> str:
    """(\\u. u) @ ((\\u. u) @ ... @ (\\z. z)) at type t -> t."""
    arr = ("->", t, t)
    body = _identity(t, "z")
    for _ in range(n):
        body = ("app", _identity(arr, "u"), body)
    return skel(body)


def small_closed(rng: random.Random):
    """A small closed, simply typed skeleton with redexes, decorated at the
    root; returns it with its result type."""
    c = ("v", "c")
    cc = ("->", c, c)
    arg_types = (cc, ("->", cc, cc))

    def value(t, env, depth):
        same = [x for x, tx in env if tx == t]
        if same and (t[0] == "v" or rng.random() < 0.4):
            return ("var", rng.choice(same), env)
        x = f"x{len(env)}"
        return ("abs", x, term(t[2], env + ((x, t[1]),), depth - 1))

    def redex(t, env, depth):
        a = rng.choice(arg_types)
        y = f"x{len(env)}"
        return ("app", ("abs", y, term(t, env + ((y, a),), depth - 1)), value(a, env, depth - 1))

    def term(t, env, depth):
        if depth > 0 and rng.random() < 0.5:
            return redex(t, env, depth)
        return value(t, env, depth)

    t = rng.choice(arg_types)
    q = redex(t, (), 3)
    for i in range(rng.randrange(3)):
        g = f"g{i}"
        match rng.randrange(4):
            case 0:
                q, t = ("all", g, q), ("all", g, t)
            case 1:
                w = f"w{rng.randrange(2)}"
                q, t = ("evar", w, (), q), ("s", w, (), t)
            case 2:
                q = ("sub", q, t)
            case _:
                q = ("sub", ("all", g, q), t)
    return q, t


def reduce_nf(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = []
        for kind, n, count in REDUCE_BLOCK:
            for _ in range(count):
                base = ("v", rng.choice(["c", "m"]))
                if kind == "poly":
                    text, rtype = poly_chain(n, base), ("->", base, base)
                elif kind == "idchain":
                    text, rtype = id_chain(n, base), ("->", base, base)
                else:
                    q, rtype = small_closed(rng)
                    text = skel(q)
                block.append({"kind": kind, "n": n, "skeleton": text, "rtype": ty(rtype)})
        rng.shuffle(block)
        out.append(block)
    return out


# ---------------------------------------------------------------------------
# random_batch


def _valid_skel(rng: random.Random, env, t, depth: int):
    """A valid tuple skeleton with environment env and result type t, built
    type-directed so that every typing rule's side condition holds."""
    choices = ["var"] * 2 if any(tx == t for _, tx in env) else []
    if depth > 0:
        choices += ["app", "sub"]
        if t[0] == "->":
            choices += ["abs", "abs"]
        if t[0] == "all" and t[1] not in env_ftv(env):
            choices += ["all"]
        if t[0] == "s" and env_ftv(env) <= frozenset(t[2]):
            choices += ["evar"]
        if env:
            choices += ["weak"]
    if not choices:
        if env:
            return ("sub", ("var", rng.choice(env)[0], env), t)
        return ("sub", ("abs", "z", ("var", "z", (("z", ("v", "a")),))), t)
    names = {x for x, _ in env}
    match rng.choice(choices):
        case "var":
            return ("var", rng.choice([x for x, tx in env if tx == t]), env)
        case "abs":
            x = next(f"x{i}" for i in range(len(env) + 1) if f"x{i}" not in names)
            return ("abs", x, _valid_skel(rng, env + ((x, t[1]),), t[2], depth - 1))
        case "all":
            return ("all", t[1], _valid_skel(rng, env, t[2], depth - 1))
        case "evar":
            return ("evar", t[1], t[2], _valid_skel(rng, env, t[3], depth - 1))
        case "app":
            a = rand_type(rng, FREE, 1)
            return ("app", _valid_skel(rng, env, ("->", a, t), depth - 1),
                    _valid_skel(rng, env, a, depth - 1))
        case "sub":
            return ("sub", _valid_skel(rng, env, rand_type(rng, FREE, 2, evars=True), depth - 1), t)
        case _:
            return ("weak", _valid_skel(rng, env[:-1], t, depth - 1), env[-1:])


def random_valid(rng: random.Random):
    env = tuple((f"y{i}", rand_type(rng, FREE, 1, evars=True)) for i in range(rng.randrange(3)))
    t = rand_type(rng, FREE, 3, evars=True)
    return _valid_skel(rng, env, t, rng.randrange(2, 5)), env


def random_expansion(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return "id"
    match rng.randrange(4):
        case 0:
            return f"(all {rng.choice(FREE + BOUND)}. {random_expansion(rng, depth - 1)})"
        case 1:
            forbidden = sorted(set(rng.sample(FREE, rng.randrange(3))))
            return f"{rng.choice(EVARS)}^{{{','.join(forbidden)}}} ({random_expansion(rng, depth - 1)})"
        case _:
            return f"(({random_expansion(rng, depth - 1)}) |> {ty(rand_type(rng, FREE, 2, evars=True))})"


def random_subst(rng: random.Random) -> str:
    parts = [f"{a} := {ty(rand_type(rng, FREE, rng.randrange(3), evars=True))}"
             for a in FREE if rng.random() < 0.6]
    parts += [f"{s} := {random_expansion(rng, rng.randrange(3))}"
              for s in EVARS if rng.random() < 0.6]
    rng.shuffle(parts)
    return "[" + ", ".join(parts) + "]"


def _leaves(q, path=()):
    match q:
        case ("var", _, _):
            return [path]
        case ("app", f, a):
            return _leaves(f, path + (1,)) + _leaves(a, path + (2,))
        case ("abs", _, body) | ("all", _, body):
            return _leaves(body, path + (2,))
        case ("evar", _, _, body):
            return _leaves(body, path + (3,))
        case ("sub", body, _) | ("weak", body, _):
            return _leaves(body, path + (1,))
    raise TypeError(q)


def _replace(q, path, fn):
    if not path:
        return fn(q)
    i = path[0]
    return q[:i] + (_replace(q[i], path[1:], fn),) + q[i + 1:]


def mutate(rng: random.Random, q, env):
    """A skeleton that violates one typing rule, so checking it must fail."""
    kinds = ["unbound", "dup"]
    free = sorted(env_ftv(env))
    if free:
        kinds += ["escape", "forbidden"]
    if env:
        kinds += ["overlap"]
    tvar_entries = [x for x, tx in env if tx[0] == "v"]
    if tvar_entries:
        kinds += ["notarrow"]
    match rng.choice(kinds):
        case "unbound":
            return _replace(q, rng.choice(_leaves(q)),
                            lambda v: ("var", v[1], tuple(e for e in v[2] if e[0] != v[1])))
        case "dup":
            return _replace(q, rng.choice(_leaves(q)),
                            lambda v: ("var", v[1], v[2] + v[2][:1]))
        case "escape":
            return ("all", rng.choice(free), q)
        case "forbidden":
            return ("evar", "s9", (), q)
        case "overlap":
            return ("weak", q, (rng.choice(env),))
        case _:
            y = rng.choice(tvar_entries)
            return ("app", ("var", y, env), ("var", y, env))


def _with_binder(rng: random.Random, free, depth: int):
    """A random type all p. core with p free in core."""
    while True:
        core = rand_type(rng, tuple(free) + ("p",), depth)
        if "p" in ftv(core):
            return ("all", "p", core)


ALPHA = {"p": "u", "q": "v", "r": "w"}


def leq_pair(rng: random.Random, verdict: bool):
    """(t1, t2) with a known answer to t1 <=F t2, proved by construction.

    yes: t2 is an instance all rest. core[p := X] of t1, or t1 itself up to
    renaming and dummy quantifiers.  no: t2 is smaller than any instance of
    t1 can be once dummies are dropped, or t2 lacks a free variable of t1
    that every instance keeps."""
    while True:
        kind = rng.choice(("inst", "inst", "refl") if verdict else ("size", "ftv"))
        if kind == "inst":
            t1 = _with_binder(rng, FREE, 3)
            x = rand_type(rng, FREE, 1)
            t2 = rename_bound(subst1("p", x, t1[2]), ALPHA)
        elif kind == "refl":
            t1 = rand_type(rng, FREE, 3)
            t2 = rename_bound(t1, ALPHA)
            if rng.random() < 0.5:
                t2 = ("all", "z", t2)
        elif kind == "size":
            t1 = _with_binder(rng, FREE, 3)
            t2 = rand_type(rng, FREE, 2)
            if size(strip(t2)) >= size(strip(t1)) - 1:
                continue
        else:
            v = rng.choice(FREE)
            t1 = rand_type(rng, FREE, 3)
            t2 = rand_type(rng, tuple(a for a in FREE if a != v), 3)
            if v not in ftv(t1):
                continue
        if size(t1) <= 7 and size(t2) <= 7:
            return t1, t2


def random_constraint(rng: random.Random, solved: bool) -> str:
    atoms = [leq_pair(rng, True) for _ in range(rng.randrange(1, 4))]
    if not solved:
        atoms.insert(rng.randrange(len(atoms) + 1), leq_pair(rng, False))
    parts = [f"{ty(a)} <= {ty(b)}" for a, b in atoms]
    c = parts[0]
    for p in parts[1:]:
        c = f"{c} & {p}"
    match rng.randrange(3):
        case 0:
            c = f"(ex {rng.choice(FREE)}. {c})"
        case 1:
            c = f"{rng.choice(EVARS)}^{{{rng.choice(FREE)}; {ty(rand_type(rng, FREE, 1))}}} ({c})"
    return c


def random_batch(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = []
        for kind, per_100 in RANDOM_MIX:
            for _ in range(RANDOM_BLOCK_OPS * per_100 // 100):
                if kind in ("subst", "expand", "reject"):
                    q, env = random_valid(rng)
                    spec = {"kind": kind, "skeleton": skel(q), "term": term_of(q)}
                    if kind == "subst":
                        spec["subst"] = random_subst(rng)
                    elif kind == "expand":
                        spec["expansion"] = random_expansion(rng, 2)
                        extra = {a for a in FREE if rng.random() < 0.3}
                        spec["forbidden"] = ",".join(sorted(env_ftv(env) | extra))
                    else:
                        spec["skeleton"] = skel(mutate(rng, q, env))
                elif kind == "leq":
                    verdict = rng.random() < 0.75
                    t1, t2 = leq_pair(rng, verdict)
                    spec = {"kind": kind, "t1": ty(t1), "t2": ty(t2), "verdict": verdict}
                else:
                    spec = {"kind": kind, "constraint": random_constraint(rng, kind == "solved")}
                block.append(spec)
        rng.shuffle(block)
        out.append(block)
    return out




# ---------------------------------------------------------------------------
# cli_batch


def cli_batch(seed: int, blocks: int) -> list[list[dict]]:
    """The fixed CLI cases of cli/cases.json, each repeated by its weight,
    in a seeded order per block."""
    cases = json.loads((Path(__file__).resolve().parent / "cli" / "cases.json").read_text())
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = [c for c in cases for _ in range(c["weight"])]
        rng.shuffle(block)
        out.append(block)
    return out


WORKLOADS = {"chain_kernel": chain_kernel, "reduce_nf": reduce_nf,
             "random_batch": random_batch, "cli_batch": cli_batch}
