"""A fixed reference workload that gauges how fast the machine runs right now.

On a shared machine the same operation can run up to 2x slower for seconds
to minutes at a time, with the load of other tenants.  reference() does a
fixed piece of pure-Python work shaped like the kernel's (frozen dataclass
trees built, substituted, converted to de Bruijn form and hashed) but uses
no fskel code, so no change to fskel can change its cost.  run.py times it
next to every operation and scales op times by how slow it ran (see the
module docstring there).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The reference's best time, in ms, on the machine the baseline was measured
# on (a shared 2-vCPU x86-64 VM, Python 3.11.7).  Scaled op times read as
# milliseconds on that machine at its best speed.
NOMINAL_MS = 3.3


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TArrow:
    dom: object
    cod: object


@dataclass(frozen=True)
class TAll:
    var: str
    body: object


def _random_type(rng: random.Random, depth: int, bound: tuple):
    r = rng.random()
    if depth == 0 or r < 0.2:
        return TVar(rng.choice(bound + ("c", "d")))
    if r < 0.75:
        return TArrow(_random_type(rng, depth - 1, bound), _random_type(rng, depth - 1, bound))
    var = f"v{len(bound)}"
    return TAll(var, _random_type(rng, depth - 1, bound + (var,)))


def _subst(t, name: str, s):
    if isinstance(t, TVar):
        return s if t.name == name else t
    if isinstance(t, TArrow):
        return TArrow(_subst(t.dom, name, s), _subst(t.cod, name, s))
    return t if t.var == name else TAll(t.var, _subst(t.body, name, s))


def _de_bruijn(t, env: tuple = ()):
    if isinstance(t, TVar):
        return env.index(t.name) if t.name in env else t.name
    if isinstance(t, TArrow):
        return ("->", _de_bruijn(t.dom, env), _de_bruijn(t.cod, env))
    return ("all", _de_bruijn(t.body, (t.var,) + env))


def reference() -> int:
    """The same work on every call; returns a fixed checksum."""
    rng = random.Random(1)
    seen: dict = {}
    for i in range(60):
        t = _random_type(rng, 7, ())
        u = _subst(_subst(t, "c", TArrow(TVar("d"), TVar("d"))), "d", TVar("c"))
        key = _de_bruijn(u)
        seen[key] = seen.get(key, 0) + 1
        seen[u] = i
    return len(seen)


CHECKSUM = reference()
