"""src holds only what a command, other src code or the benchmark reaches.

Every top-level function and class in ``walled_tangles``, and every
non-dunder method of a top-level class, must be referenced by src code
outside its own body, as a name or an attribute.  Docstrings are strings, so
a doctest does not count.  A CLI handler is referenced by its
``set_defaults(func=...)``.  A definition that only tests call belongs in
``tests/``.

References are matched by bare name, not by owner, so a method counts as
reached when anything of the same name is used anywhere in src: an unused
``Orientation.flipped`` went unflagged while ``Hand.flipped`` was in use.
"""

from __future__ import annotations

import ast
import pathlib

import walled_tangles

SRC = pathlib.Path(walled_tangles.__file__).parent

#: Definitions that only the benchmark under ``bench/`` reaches.
BENCH_ONLY = {
    # bench/workloads.py: the ``braids`` correctness check compares the
    # normal form's matrix with the word's.
    "matrix_of_element",
    # bench/workloads.py: ``_element_from_json`` reads the CLI's JSON back.
    "LaurentPoly.from_json",
    # bench/tracing.py ``CACHES``: the memo behind the ``rep.deposit.*`` metrics.
    "_descending_deposit",
    # bench/tracing.py ``CACHES``: the memo ``_quantum_binom_cached`` behind
    # the ``laurent.quantum_binom.*`` metrics, reached only through this.
    "quantum_binom",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name and attribute the module's code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached() -> list[tuple[str, str]]:
    """(module, qualified name) of each definition that no src code outside
    its own body references."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for qualname, name, first, last in _definitions(tree):
            reached = any(
                ref == name and not (other == module and first <= line <= last)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not reached:
                found.append((module, qualname))
    return found


def test_every_src_definition_is_reached():
    flagged = [f"{module}.{qualname}" for module, qualname in unreached() if qualname not in BENCH_ONLY]
    assert flagged == [], f"reached by no src code: {flagged}"


def test_every_bench_only_entry_is_still_unreached():
    # A name that src code starts to reference leaves the allowlist.
    assert BENCH_ONLY <= {qualname for _, qualname in unreached()}
