"""A reference parser for the surface syntax: the recursive-descent reader
that fskel.surface used before its types, terms, environments and skeletons
were read on an explicit stack, kept as an oracle for it.

It is the old tokenizer and `Parser`, unchanged but for its imports and
for `&`, which nests to the right as the printers assume: every
category is read by a method that recurses once or twice per level of
nesting, and each token is read through `eat`, `expect` or `ident`.  It
shares no code with fskel.surface and raises a `ParseError` of its own,
with the same message and the same `line:col`.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat

from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro,
    Exists, Expansion, Forall, ForallIntro, Id, Omega, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Term, Type,
    TypeEnv, Var,
)


class ParseError(Exception):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = ("all", "ex", "id", "omega")
SYMBOLS = ("->", "|>", ":=", "<=", *"\\.@()^{},<>&[];:+")
# A token's kind is the token itself for keywords and symbols, else "ident".
_KIND = {s: s for s in KEYWORDS + SYMBOLS}
# Group 1 is a symbol or a word; a character that starts neither matches
# outside the group and so reads as "".  `[^\W\d]` is a word character
# that is not a decimal digit: for ASCII text exactly a letter or `_`.
_TOKEN = re.compile(r"(->|\|>|:=|<=|[\\.@()^{},<>&\[\];:+]|[^\W\d][\w']*)|[^ \t\r\n]")
# How a token of each kind moves the paren depth.
_DEPTH = {"(": 1, ")": -1}


def _offset(text: str, index: int) -> int:
    """Offset in text of its index-th token, or its length at the end."""
    m = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


def _error(message: str, text: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the values of text's tokens, ending with ("eof", "")."""
    values = _TOKEN.findall(text)
    bad = values.index("") if "" in values else len(values)
    if not text.isascii():
        # outside ASCII, `[^\W\d]` also admits numerals such as ² and Ⅻ
        bad = next((i for i, v in enumerate(islice(values, bad))
                    if v not in _KIND and not (v[0].isalpha() or v[0] == "_")), bad)
    if bad < len(values):
        offset = _offset(text, bad)
        raise _error(f"unexpected character {text[offset]!r}", text, offset)
    kinds = list(map(_KIND.get, values, repeat("ident")))
    kinds.append("eof")
    values.append("")
    return kinds, values


class _Stuck(Exception):
    """A parse failure at a token index; the parser backtracks on it, and
    the entry point turns it into a ParseError with a line and a column."""


class Parser:
    def __init__(self, text: str):
        self.kinds, self.values = tokenize(text)
        self.pos = 0
        # a group's tokens -> the value read from them (see "Cost" above)
        self.memo: dict[tuple[str, ...], Type | TypeEnv] = {}
        # the paren depth after each token, made when a type group is first read
        self.depth: list[int] | None = None

    # -- token plumbing ----------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def eat(self, kind: str) -> bool:
        """Step over the current token if it has this kind."""
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, found {self.values[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return self.values[pos]

    def fail(self, message: str):
        raise _Stuck(message, self.pos)

    def done(self):
        if not self.at("eof"):
            self.fail(f"trailing input starting at {self.values[self.pos]!r}")

    # -- shared pieces -----------------------------------------------------

    def ident(self) -> str:
        return self.expect("ident")

    def binder(self) -> str:
        """The identifier and the '.' after 'all', 'ex' or '\\'."""
        a = self.expect("ident")
        self.expect(".")
        return a

    def var_set(self, close: str) -> frozenset[str]:
        """'{', comma-separated identifiers, then close."""
        self.expect("{")
        names = self.var_list()
        self.expect(close)
        return names

    def var_list(self) -> frozenset[str]:
        """Comma-separated identifiers, possibly none."""
        names: list[str] = []
        if self.at("ident"):
            names.append(self.ident())
            while self.eat(","):
                names.append(self.ident())
        return frozenset(names)

    def env_entries(self, close: str) -> TypeEnv:
        entries: list[tuple[str, Type]] = []
        if not self.at(close):
            while True:
                x = self.ident()
                self.expect(":")
                entries.append((x, self.type_()))
                if not self.eat(","):
                    break
        self.expect(close)
        return TypeEnv(tuple(entries))

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        if self.eat("\\"):
            return Abs(self.binder(), self.term())
        m = self.term_atom()
        while self.eat("@"):
            m = App(m, self.term_atom())
        return m

    def term_atom(self) -> Term:
        if self.eat("("):
            m = self.term()
            self.expect(")")
            return m
        if self.at("\\"):
            return self.term()
        return Var(self.ident())

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        if self.eat("all"):
            return Forall(self.binder(), self.type_())
        left = self.type_atom()
        if self.eat("->"):
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Type:
        pos = self.pos
        if self.kinds[pos] == "(":
            # a group's key is its tokens up to the first later token at
            # which the paren depth falls back; a type's parentheses balance,
            # so a reading that succeeds ends there (inline: a helper would
            # cost a frame per level of nesting)
            depth = self.depth
            if depth is None:
                depth = self.depth = list(accumulate(map(_DEPTH.get, self.kinds, repeat(0))))
            try:
                end = depth.index(depth[pos] - 1, pos) + 1
            except ValueError:  # no ')' closes it, so reading it fails
                end = pos
            key = tuple(self.values[pos:end])
            t = self.memo.get(key)
            if t is None:
                self.pos = pos + 1
                t = self.type_()
                self.expect(")")
                self.memo[key] = t
            else:
                self.pos = end
            return t
        name = self.ident()
        if self.eat("^"):
            return EVarApp(name, self.var_set("}"), self.type_atom())
        return TVar(name)

    # -- expansions ----------------------------------------------------------

    def expansion(self) -> Expansion:
        if self.eat("all"):
            return ForallIntro(self.binder(), self.expansion())
        i = self.expansion_atom()
        while self.eat("|>"):
            i = SubStep(i, self.type_())
        return i

    def expansion_atom(self) -> Expansion:
        if self.eat("id"):
            return Id()
        if self.eat("("):
            i = self.expansion()
            self.expect(")")
            return i
        if self.at("all"):
            return self.expansion()
        name = self.ident()
        self.expect("^")
        return EVarIntro(name, self.var_set("}"), self.expansion_atom())

    # -- substitutions -------------------------------------------------------

    def subst(self) -> Subst:
        self.expect("[")
        bindings: list[tuple[str, Type | Expansion]] = []
        if not self.at("]"):
            while True:
                name = self.ident()
                self.expect(":=")
                mark = self.pos
                try:
                    val: Type | Expansion = self.expansion()
                    if not (self.at(",") or self.at("]")):
                        self.fail("incomplete expansion")
                except _Stuck:
                    self.pos = mark
                    val = self.type_()
                bindings.append((name, val))
                if not self.eat(","):
                    break
        self.expect("]")
        return Subst(tuple(bindings))

    # -- constraints ---------------------------------------------------------

    def constraint(self) -> Constraint:
        return self.conjunction(self.constraint_atom())

    def conjunction(self, c: Constraint) -> Constraint:
        items = [c]
        while self.eat("&"):
            items.append(self.constraint_atom())
        c = items.pop()
        while items:
            c = And(items.pop(), c)
        return c

    def constraint_atom(self, in_group: bool = False) -> Constraint | Type:
        """A constraint atom; in a group, a type followed by ')' as well.

        An atom is "T <= T" when that parses and a parenthesised constraint
        or a guard otherwise, and an error is reported as the latter would
        report it. A '(' opens a group holding a type or a constraint, read
        once: a type there goes on as the left side of "T <= T"."""
        if self.eat("omega"):
            return Omega()
        if self.eat("ex"):
            return Exists(self.binder(), self.constraint())
        mark = self.pos
        if self.eat("("):
            # a group: a type followed by ')', or a constraint
            inner = self.constraint_atom(in_group=True)
            if isinstance(inner, Constraint):
                inner = self.conjunction(inner)
                self.expect(")")
                return inner
            self.pos += 1  # the ')' after the type
            try:
                lhs = Arrow(inner, self.type_()) if self.eat("->") else inner
                return self.atomic_rest(lhs, in_group)
            except _Stuck:
                # the group read as a constraint fails where its innermost
                # type, not followed by '<=', reads as a guard
                self.pos = mark + 1
                while self.eat("("):
                    pass
                return self.guard()
        try:
            return self.atomic_rest(self.type_(), in_group)
        except _Stuck:
            self.pos = mark
        return self.guard()

    def atomic_rest(self, lhs: Type, in_group: bool) -> Atomic | Type:
        if in_group and self.at(")"):
            return lhs
        if self.eat("<="):
            return Atomic(lhs, self.type_())
        self.fail("expected '<='")

    def guard(self) -> EGuard:
        name = self.ident()
        self.expect("^")
        forbidden = self.var_set(";")
        witness = self.type_()
        self.expect("}")
        return EGuard(name, forbidden, witness, self.constraint_atom())

    # -- type environments -----------------------------------------------------

    def type_env(self) -> TypeEnv:
        self.expect("{")
        return self.env_entries("}")

    # -- skeletons ---------------------------------------------------------------

    def skeleton(self) -> Skeleton:
        q = self.skel_atom()
        while self.eat("@"):
            q = QApp(q, self.skel_atom())
        while True:
            if self.eat("|>"):
                q = QSub(q, self.type_())
            elif self.eat("+"):
                q = QWeak(q, self.type_env())
            else:
                return q

    def skel_atom(self) -> Skeleton:
        if self.eat("("):
            q = self.skeleton()
            self.expect(")")
            return q
        if self.eat("\\"):
            return QAbs(self.binder(), self.skeleton())
        if self.eat("all"):
            return QForall(self.binder(), self.skeleton())
        name = self.ident()
        if self.eat("^"):
            return QEVar(name, self.var_set("}"), self.skel_atom())
        self.expect("<")
        # no type holds a '>', so a reading that succeeds ends at the next one
        pos = self.pos
        try:
            end = self.kinds.index(">", pos) + 1
        except ValueError:  # no '>' closes it, so reading it fails
            end = pos
        key = tuple(self.values[pos - 1:end])
        env = self.memo.get(key)
        if env is None:
            env = self.memo[key] = self.env_entries(">")
        else:
            self.pos = end
        return QVar(name, env)


def _entry(parse_method):
    def run(text: str):
        p = Parser(text)
        try:
            value = parse_method(p)
            p.done()
        except _Stuck as e:
            message, pos = e.args
            raise _error(message, text, _offset(text, pos)) from None
        return value
    return run


parse_term = _entry(Parser.term)
parse_type = _entry(Parser.type_)
parse_expansion = _entry(Parser.expansion)
parse_subst = _entry(Parser.subst)
parse_constraint = _entry(Parser.constraint)
parse_type_env = _entry(Parser.type_env)
parse_skeleton = _entry(Parser.skeleton)
parse_var_list = _entry(Parser.var_list)
