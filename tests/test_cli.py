"""Command-line interface: commands, formats, and exit codes."""

import hashlib
import importlib.util
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fskel.cli import EXIT_INVALID, EXIT_OK, EXIT_UNSOLVED, main
from fskel.reduction import NotSolved
from fskel.surface import parse_skeleton, print_skeleton
from fskel.typecheck import Judgement, SkeletonError, check_skeleton

from generators import decorate_dummies_inside
from helpers import count_calls, count_instances, skeleton_nodes
from test_acceptance import _reduction_cases

GOLDEN = "\\x. (x<x: all a. a> |> (all a. a) -> b) @ x<x: all a. a>"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def write(tmp_path):
    def go(text, name="in.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return go


def test_check(write, capsys):
    code, out, _ = run(capsys, ["check", write(GOLDEN)])
    assert code == EXIT_OK
    assert "rtype: (all b0. b0) -> b" in out
    assert "constraint: all b0. b0 <= (all b0. b0) -> b" in out


def test_check_solved_exit_codes(write, capsys):
    code, out, _ = run(capsys, ["check", write(GOLDEN), "--solved"])
    assert code == EXIT_OK and "solved (F): yes" in out
    code, out, _ = run(capsys, ["check", write(GOLDEN), "--solved", "--rel", "EQ"])
    assert code == EXIT_UNSOLVED and "solved (EQ): no" in out


def test_check_invalid_skeleton(write, capsys):
    code, _, err = run(capsys, ["check", write("x<y: a>")])
    assert code == EXIT_INVALID and "error" in err


def test_check_parse_error(write, capsys):
    code, _, err = run(capsys, ["check", write("\\x. |>")])
    assert code == EXIT_INVALID and "error" in err


def test_check_raw_format(write, capsys):
    code, out, _ = run(capsys, ["check", write("s^{} x<>", "a"), "--format", "raw"])
    assert code == EXIT_INVALID or "omega" in out


def test_stdin_input(capsys, monkeypatch):
    code, out, _ = run(capsys, ["check", "-"], stdin="x<x: a>",
                       monkeypatch=monkeypatch)
    assert code == EXIT_OK and "rtype: a" in out


def test_initial(write, capsys):
    code, out, _ = run(capsys, ["initial", write("\\x. x @ x")])
    assert code == EXIT_OK
    assert ("skeleton: s3^{} (\\x. s2^{a0} ((s0^{a0} x<x: a0> |>"
            " s1^{a0} a0 -> a1) @ s1^{a0} x<x: a0>))") in out
    assert "rtype: s3^{} (a0 -> s2^{a0} a1)" in out


def test_subst(write, capsys):
    code, out, _ = run(capsys, ["subst", write("x<x: a>"), "[a := b -> b]"])
    assert code == EXIT_OK and "rtype: b -> b" in out


def test_subst_keeps_a_binder_that_shadows_the_substitution(write, capsys):
    # all b0. shadows [b0 := b1] and keeps its name: the skeleton, the
    # environment and the type read the same, not (all b0_0. b0_0) -> b1
    code, out, _ = run(capsys, ["subst", write("x<x: (all b0. b0) -> b0>"), "[b0 := b1]"])
    assert code == EXIT_OK
    assert out.splitlines()[:4] == [
        "skeleton: x<x: (all b0. b0) -> b1>", "term: x",
        "env: {x: (all b0. b0) -> b1}", "rtype: (all b0. b0) -> b1"]


def test_expand(write, capsys):
    code, out, _ = run(capsys, ["expand", write("x<x: a>"), "all b. id",
                                "--forbidden", "a", "--format", "raw"])
    assert code == EXIT_OK
    assert "skeleton: all b. x<x: a>" in out and "rtype: all b. a" in out
    # canonical format drops the dummy quantifier
    code, out, _ = run(capsys, ["expand", write("x<x: a>"), "all b. id",
                                "--forbidden", "a"])
    assert code == EXIT_OK and "rtype: a" in out


def test_expand_invalid_result(write, capsys):
    # quantifying over a variable free in the environment is rejected
    code, _, err = run(capsys, ["expand", write("x<x: a>"), "all a. id"])
    assert code == EXIT_INVALID and "error" in err


@pytest.mark.parametrize("forbidden, printed", [
    ("", "s^{}"), ("a,b,c", "s^{a,b,c}"), (" c , a ", "s^{a,c}")])
def test_expand_reads_forbidden_identifiers(write, capsys, forbidden, printed):
    code, out, _ = run(capsys, ["expand", write("\\x. x<x: a>"), "s^{} id",
                                "--forbidden", forbidden])
    assert code == EXIT_OK and f"skeleton: {printed} (\\x. x<x: a>)" in out


@pytest.mark.parametrize("forbidden", ["a, b c", "q,->", "a,", ",a", "a,,b", "all", "1a"])
def test_expand_rejects_a_malformed_forbidden_set(write, capsys, forbidden):
    code, out, err = run(capsys, ["expand", write("\\x. x<x: a>"), "s^{} id",
                                  "--forbidden", forbidden])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["subst", "[a := b c]"], "SUBST: 1:9: expected ']', found 'c'"),
    (["expand", "all b. id id"], "EXPANSION: 1:11: trailing input starting at 'id'"),
    (["expand", "all b. id", "--forbidden", "a b"],
     "--forbidden: 1:3: trailing input starting at 'b'"),
], ids=["SUBST", "EXPANSION", "--forbidden"])
def test_parse_error_in_an_argument_names_it(write, capsys, argv, message):
    code, out, err = run(capsys, [argv[0], write("x<x: a>"), *argv[1:]])
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["initial", "--rel", "F"], ["subst", "[a := b]", "--rel", "F"],
    ["expand", "id", "--rel", "F"], ["erase-f", "--rel", "F"], ["tree", "--rel", "F"],
    ["solve", "--format", "raw"], ["erase-f", "--format", "raw"],
    ["tree", "--format", "raw"]])
def test_options_a_subcommand_does_not_read_are_rejected(write, capsys, argv):
    with pytest.raises(SystemExit) as e:
        main([argv[0], write("x<x: a>"), *argv[1:]])
    assert e.value.code == EXIT_INVALID
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve(write, capsys):
    code, out, _ = run(capsys, ["solve", write("(all a. a) <= b -> b")])
    assert code == EXIT_OK and "solved (F): yes" in out
    code, out, _ = run(capsys, ["solve", write("a <= b")])
    assert code == EXIT_UNSOLVED and "solved (F): no" in out


def test_reduce(write, capsys):
    q = "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)"
    code, out, _ = run(capsys, ["reduce", write(q)])
    assert code == EXIT_OK
    assert "step 0: (\\x. y) @ (\\z. z)" in out
    assert "step 1: y" in out
    assert "normal form reached" in out


def test_reduce_unsolved(write, capsys):
    q = "((\\x. x<x: all a. a>) |> (b -> b) -> b -> b) @ (\\z. z<z: b>)"
    code, out, _ = run(capsys, ["reduce", write(q)])
    assert code == EXIT_UNSOLVED


def test_reduce_reports_not_solved_from_a_step(write, capsys, monkeypatch):
    # preserve may raise NotSolved when elaboration finds an atom that does
    # not hold; the CLI then exits 3 with one error line
    def refuse(q, m_next):
        raise NotSolved("constraint does not hold under quantifier elimination")

    monkeypatch.setattr("fskel.cli.preserve", refuse)
    q = "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)"
    code, out, err = run(capsys, ["reduce", write(q)])
    assert code == EXIT_UNSOLVED and "solved (F): yes" in out
    assert err == "error: constraint does not hold under quantifier elimination\n"


def test_reduce_under_root_weakening(write, capsys):
    q = "((\\x. x<x: a -> a>) @ (\\z. z<z: a>)) + {w: b}"
    code, out, _ = run(capsys, ["reduce", write(q)])
    assert code == EXIT_OK
    assert "step 1: \\z. z\nterm: \\z. z\nenv: {w: b}\n" in out
    assert out.endswith("normal form reached\n")


def test_reduce_under_nested_weakening(write, capsys):
    q = "((\\x. x<x: a -> a>) + {w: b}) @ (\\z. z<z: a, w: b>)"
    code, out, err = run(capsys, ["reduce", write(q)])
    assert code == EXIT_INVALID and "solved (F): yes" in out
    assert err == "error: cannot reduce under a weakening below the root\n"


@pytest.mark.parametrize("q", [
    # a step that eliminates the inner binder of a two-binder block
    "((((all a. all b. (\\f. \\x. (f<f: a -> b, x: a, k: c> @ x<f: a -> b, x: a, k: c>))) "
    "|> all a. (a -> c) -> a -> c) |> (d -> c) -> d -> c) @ (\\h. k<h: d, k: c>))",
    # the first step makes a function part of type all d. c -> c
    "(\\x. (x<x: c -> c, y: c> @ y<x: c -> c, y: c>)) @ (all d. (\\z. z<z: c, y: c>))",
], ids=["inner-binder", "dummy-function-part"])
def test_reduce_reads_types_modulo_equality(write, capsys, q):
    code, out, err = run(capsys, ["reduce", write(q)])
    assert code == EXIT_OK and err == ""
    assert out.endswith("normal form reached\n") and "step 1: " in out
    lines = out.splitlines()
    for key in ("env: ", "rtype: "):
        assert len({line for line in lines if line.startswith(key)}) == 1


def test_check_function_part_equal_to_an_arrow(write, capsys):
    code, out, _ = run(capsys, ["check", write("(all d. \\z. z<z: c, y: c>) @ y<y: c>")])
    assert code == EXIT_OK and "rtype: c\n" in out


def test_reduce_step_limit(write, capsys):
    q = "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)"
    code, out, _ = run(capsys, ["reduce", write(q), "--steps", "0"])
    assert code == EXIT_OK and "step 1" not in out


def test_erase_f(write, capsys):
    code, out, _ = run(capsys, ["erase-f", write("s^{a} x<x: a>")])
    assert code == EXIT_OK
    assert "skeleton: x<x: a>" in out and "system-f: accepted" in out


def test_tree(write, capsys):
    code, out, _ = run(capsys, ["tree", write(GOLDEN)])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("abs:")
    code, out, _ = run(capsys, ["tree", write(GOLDEN), "--dot"])
    assert code == EXIT_OK and out.startswith("digraph")


def test_missing_file(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent/file"])
    assert code == EXIT_INVALID and "error" in err


def test_non_utf8_input(tmp_path, capsys):
    p = tmp_path / "bad.skel"
    p.write_bytes(b"x<x: \xff>")
    code, _, err = run(capsys, ["check", str(p)])
    assert code == EXIT_INVALID
    assert err.startswith("error:") and err.count("\n") == 1


def test_deeply_nested_input(write, capsys):
    code, out, err = run(capsys, ["check", write("\\x. " * 1200 + "x<x: a>")])
    assert code == EXIT_INVALID
    assert out == "" and err == "error: input nested too deeply\n"


def _fskel(argv, text):
    """The fskel command in a fresh interpreter, reading text from stdin,
    so that it starts from a stack of its own, as from a shell."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "fskel.cli", *argv, "-"], input=text,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_printing_commands_accept_inputs_as_deep_as_the_parser():
    # the reader and the skeleton printer follow any depth, so the typing
    # pass binds first, at one frame per skeleton node on the path (two per
    # application of a chain): the initial skeleton of a chain of 450
    # applications reads back, and 492 levels of `\x.` are well within
    # the 987 the README states
    text = "y"
    for _ in range(450):
        text = f"g @ ({text})"
    code, out, _ = _fskel(["initial"], "\\g. \\y. " + text)
    assert code == EXIT_OK
    chain = out.splitlines()[0].removeprefix("skeleton: ")
    xs = [f"x{i}" for i in range(492)]
    lams = "".join(f"\\{x}. " for x in xs) + f"x0<{', '.join(f'{x}: a' for x in xs)}>"
    for q, reduced in ((chain, EXIT_UNSOLVED), (lams, EXIT_OK)):
        for argv, expected in ((["check"], EXIT_OK), (["tree"], EXIT_OK),
                               (["tree", "--dot"], EXIT_OK), (["reduce"], reduced)):
            code, out, err = _fskel(argv, q)
            assert (code, err) == (expected, "") and out, argv


def test_check_reads_parentheses_as_deep_as_the_readme_states():
    # the reader keeps open parentheses on its stack, not in frames, and
    # keys only a type's outermost group in its table, so parentheses of
    # any depth read back, in time linear in the text: 5,000 levels here
    for text in ("x<x: " + "(" * 5000 + "a" + ")" * 5000 + ">",
                 "(" * 5000 + "x<x: a>" + ")" * 5000):
        code, out, err = _fskel(["check"], text)
        assert (code, err) == (EXIT_OK, "") and out


def test_check_follows_long_evar_prefixes_in_bounded_memory():
    # s0^{} ... s789^{} (\x. x<x: a>): canonicalizing its constraint once
    # took memory cubic in the prefix, and the process was killed at this
    # length. With an atom below the prefix, guard i's witness is the rest
    # of the prefix, so the constraint is one item of 2.5 MB; a printer that
    # kept the joined prefix at every depth ran out of memory. The child's
    # address space is capped, so a regression fails fast (MemoryError)
    # instead of exhausting the machine.
    n = 790
    prefix = "".join(f"s{i}^{{}} " for i in range(n))

    def rest(i):
        return "".join(f"s{k}^{{}} " for k in range(i + 1, n)) + "(a -> a)" if i + 1 < n \
            else "a -> a"

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    for body, constraint in (
            ("(\\x. x<x: a>)", "omega"),
            ("((\\x. x<x: a>) |> a -> a)",
             "".join(f"s{i}^{{; {rest(i)}}} " for i in range(n)) + "a -> a <= a -> a")):
        done = subprocess.run([sys.executable, "-m", "fskel.cli", "check", "-"],
                              input=prefix + body, env={**os.environ, "PYTHONPATH": src},
                              preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.endswith(f"constraint: {constraint}\n")


def _id_chain(n):
    """(\\u. u) @ ((\\u. u) @ ... @ (\\z. z)) at type c -> c."""
    text = "\\z. z<z: c>"
    for _ in range(n):
        text = f"(\\u. u<u: c -> c>) @ ({text})"
    return text


@pytest.mark.parametrize("rel", ["F", "EQ"])
def test_reduce_judges_each_step_once(write, capsys, monkeypatch, rel):
    # at most one typing pass and one solvedness walk (the printed verdict)
    # per step; a pass judges each distinct node once, and only the nodes
    # the step rebuilt. The chain has 26 nodes, 19 distinct ones, as its
    # eight leaves u<u: c -> c> read as one node, and step k rebuilds the
    # 7 - k applications above its redex, whose contractum is the
    # argument's skeleton, judged before.
    assert len(skeleton_nodes(parse_skeleton(_id_chain(8)))) == 19
    path = write(_id_chain(8))
    calls = count_calls(monkeypatch, ["typecheck._judge", "solve.solved"])
    built = count_instances(monkeypatch, Judgement)
    code, out, _ = run(capsys, ["reduce", path, "--rel", rel])
    assert code == EXIT_OK and out.endswith("normal form reached\n")
    steps = out.count("\nstep ") + 1
    assert steps == 9
    assert calls["typecheck._judge"] <= steps and calls["solve.solved"] == steps
    assert built[0] == 19 + sum(7 - k for k in range(8))


def test_canonical_output_independent_of_hash_seed(write):
    env = "f: c -> c -> c -> c, x: c"
    g = [f"(s^{{{a}}} (x<{env}> |> c) |> c)" for a in ("a,z,c", "a,b,c", "y,b,c")]
    path = write(f"((f<{env}> @ {g[0]}) @ {g[1]}) @ {g[2]}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in "0123":
        env_vars = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "fskel.cli", "check", path],
                              env=env_vars, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        outs.add(done.stdout)
    assert len(outs) == 1
    assert "s^{a,b,c; c} c <= c" in outs.pop()


BENCH_CLI = Path(__file__).resolve().parents[1] / "bench" / "cli"
# recorded from an engine that flattened every step's whole output with
# from_neq, so a change to how a step builds its output must keep it.
# Re-recorded when print_constraint began to parenthesise a conjunction
# left of an & that ends in an ex binder: 44 --format raw constraint lines
# gained that one pair of parentheses, and nothing else changed. Each of
# them, unparenthesised, read back with the conjuncts after the binder
# moved into its body
REDUCE_DIGEST = "32f597363fa909acb3899fd702793eea8cf0d1724694534da1d7275c438c6a2e"


def _mutate(rng, text):
    """text with one to three token insertions, deletions or span copies."""
    tokens = re.findall(r"\s+|\w+|\S", text)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(tokens) + 1)
        match rng.randrange(3):
            case 0:
                tokens.insert(i, rng.choice(tokens))
            case 1 if tokens:
                del tokens[min(i, len(tokens) - 1)]
            case _:
                j = rng.randrange(len(tokens) + 1)
                tokens[i:i] = tokens[j:j + rng.randrange(1, 9)]
    return "".join(tokens)


def test_cli_total_on_mutated_inputs(tmp_path, capsys):
    """Every subcommand, on token-mutated versions of the benchmark's CLI
    inputs, exits 0, 2 or 3 with at most one line on stderr."""
    rng = random.Random(20121101)
    cases = json.loads((BENCH_CLI / "cases.json").read_text())
    path = tmp_path / "mutated"
    for case in cases * 10:
        text = (BENCH_CLI.parent.parent / case["input"]).read_text()
        path.write_text(_mutate(rng, text))
        argv = [str(path) if a == case["input"] else a for a in case["argv"]]
        if argv[0] == "reduce":
            argv += ["--steps", "4"]
        code, _, err = run(capsys, argv)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_UNSOLVED), argv
        assert err.count("\n") <= 1, err


def test_cli_outputs_match_recorded_cases(capsys, monkeypatch):
    """Each benchmark CLI invocation keeps the exit code and the SHA-256 of
    standard output recorded in bench/cli/cases.json."""
    monkeypatch.chdir(BENCH_CLI.parent.parent)
    cases = json.loads((BENCH_CLI / "cases.json").read_text())
    assert len(cases) == 39
    for case in cases:
        code, out, _ = run(capsys, case["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (case["exit"], case["sha256"]), case["argv"]


def test_initial_of_balanced_term(write, capsys):
    # 1,024 leaves: the canonical constraint is a right-nested & 1,023 deep
    text = "x"
    for _ in range(10):
        text = f"({text}) @ ({text})"
    code, out, err = run(capsys, ["initial", write(text)])
    assert code == EXIT_OK and err == ""
    last = out.splitlines()[-1]
    assert last.startswith("constraint: ") and last.count(" & ") == 1022


def _reduce_corpus():
    """The skeleton texts whose fskel reduce output is pinned: every .skel
    file of the benchmark's CLI inputs, the distinct reduce_nf inputs of
    seed 1, and 100 skeletons with dummy quantifiers and steps between equal
    types inside, on seed 20121101."""
    texts = [p.read_text() for p in sorted((BENCH_CLI / "inputs").glob("*.skel"))]
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", BENCH_CLI.parent / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for op in inputs.reduce_nf(1, 1)[0]:
        if op["skeleton"] not in texts:
            texts.append(op["skeleton"])
    rng = random.Random(20121101)
    cases = _reduction_cases()
    decorated = []
    while len(decorated) < 100:
        try:
            q = decorate_dummies_inside(rng, rng.choice(cases), 0.15)
            check_skeleton(q)
        except SkeletonError:
            continue
        decorated.append(print_skeleton(q))
    return texts + decorated


def test_reduce_output_is_pinned(capsys, monkeypatch):
    """One SHA-256 over the exit code, standard output and standard error of
    fskel reduce under --rel F and EQ and --format canonical and raw on a
    seeded corpus."""
    digest = hashlib.sha256()
    for text in _reduce_corpus():
        for rel in ("F", "EQ"):
            for fmt in ("canonical", "raw"):
                code, out, err = run(capsys, ["reduce", "-", "--rel", rel, "--format", fmt],
                                     stdin=text, monkeypatch=monkeypatch)
                digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == REDUCE_DIGEST
