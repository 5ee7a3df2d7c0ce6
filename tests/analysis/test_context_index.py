"""Oracle for ModuleContext's one indexed pass: plain ``ast.walk``.

The per-file rules and the fact pass read the context's tables instead
of walking the tree themselves, so each table must hold exactly what a
walk of its own would have found, in the same order: the fact pass's
record order and R004's "computed" names depend on it.  Checked over
every module of the package and the golden edge-case tree.
"""

import ast
import pathlib
import textwrap

from repro.analysis.context import ModuleContext

from .test_golden_analyzer import EDGE_CASE_FILES

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sources():
    for path in sorted(_SRC.rglob("*.py")):
        yield path.relative_to(_SRC.parent).as_posix(), path.read_text()
    for name, source in sorted(EDGE_CASE_FILES.items()):
        yield name, textwrap.dedent(source)


def _of_type(root, types):
    return [node for node in ast.walk(root) if isinstance(node, types)]


def _positioned(nodes):
    """Drop expression contexts: position-free markers the index skips
    under names."""
    return [node for node in nodes if not isinstance(node, ast.expr_context)]


def _outermost(tree, types):
    """Nodes of ``types`` with no ancestor of ``types``, in walk order,
    plus every node's innermost enclosing def."""
    found, enclosing = [], {}
    stack = [(tree, None, False)]
    while stack:
        node, fn, inside = stack.pop()
        if isinstance(node, types) and not inside:
            found.append(node)
        child_fn = node if isinstance(node, _DEFS) else fn
        for child in ast.iter_child_nodes(node):
            enclosing[child] = child_fn
            stack.append((child, child_fn, inside or isinstance(node, types)))
    order = {id(node): i for i, node in enumerate(ast.walk(tree))}
    return sorted(found, key=lambda node: order[id(node)]), enclosing


def test_index_matches_plain_walks():
    checked = 0
    for path, source in _sources():
        ctx = ModuleContext(path, source)
        tree = ctx.tree
        assert ctx.calls == _of_type(tree, ast.Call), path
        assert ctx.compares == _of_type(tree, ast.Compare), path
        assert ctx.classes == _of_type(tree, ast.ClassDef), path
        assert ctx.callables == _of_type(tree, (*_DEFS, ast.Lambda)), path

        outer_defs, enclosing = _outermost(tree, _DEFS)
        assert list(ctx.function_nodes) == outer_defs, path
        for fn in outer_defs:
            assert _positioned(ctx.function_nodes[fn]) == _positioned(ast.walk(fn)), path
        outer_classes, _ = _outermost(tree, ast.ClassDef)
        assert list(ctx.class_assigns) == outer_classes, path
        for cls in outer_classes:
            assert ctx.class_assigns[cls] == _of_type(cls, ast.Assign), path

        for node in ctx.calls + _of_type(tree, _DEFS):
            assert ctx.scope[node] is enclosing[node], path

        refs = {n.id for n in _of_type(tree, ast.Name) if isinstance(n.ctx, ast.Load)}
        refs |= {n.attr for n in _of_type(tree, ast.Attribute)}
        assert ctx.refs == refs, path

        expected = [
            (compare, None)
            for stmt in tree.body
            if isinstance(stmt, ast.Assert)
            for compare in _of_type(stmt.test, ast.Compare)
        ]
        for fn in outer_defs:
            expected.extend(
                (compare, fn)
                for stmt in _of_type(fn, ast.Assert)
                for compare in _of_type(stmt.test, ast.Compare)
            )
        key = lambda pair: (id(pair[0]), id(pair[1]))  # noqa: E731
        assert sorted(ctx.assert_compares, key=key) == sorted(expected, key=key), path
        checked += 1
    assert checked > 100
