"""The package's public surface."""

import ast
from pathlib import Path

import adesystole


def test_all_lists_every_imported_public_name():
    tree = ast.parse(Path(adesystole.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(adesystole.__all__) == imported
    assert len(adesystole.__all__) == len(imported)
