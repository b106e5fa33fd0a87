"""Command-line interface: commands, formats, and exit codes."""

import pytest

from fskel.cli import EXIT_INVALID, EXIT_OK, EXIT_UNSOLVED, main

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


def _id_chain(n):
    """(\\u. u) @ ((\\u. u) @ ... @ (\\z. z)) at type c -> c."""
    text = "\\z. z<z: c>"
    for _ in range(n):
        text = f"(\\u. u<u: c -> c>) @ ({text})"
    return text


@pytest.mark.parametrize("rel", ["F", "EQ"])
def test_reduce_judges_each_step_once(write, capsys, monkeypatch, rel):
    from fskel import cli, reduction
    calls = {"check_skeleton": 0, "solved": 0}
    for module in (cli, reduction):
        for name in calls:
            def counted(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, ["reduce", write(_id_chain(8)), "--rel", rel])
    assert code == EXIT_OK and out.endswith("normal form reached\n")
    steps = out.count("\nstep ") + 1
    assert steps == 9
    assert calls == {"check_skeleton": steps, "solved": steps}
