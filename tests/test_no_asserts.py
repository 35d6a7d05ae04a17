"""Checks in the library must survive `python -O`, which strips `assert`."""

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
