"""Checks in the library must survive `python -O`, which strips `assert`, and
must fail as ValueError or ArithmeticError, which the command line reports
with exit code 1, rather than as AssertionError, which it does not catch."""

import ast
import pathlib

import charcubic

SOURCES = sorted(pathlib.Path(charcubic.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert len(SOURCES) >= 13
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_raises_no_assertion_error():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert found == []
