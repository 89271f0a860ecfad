"""Call and raise sites that the package keeps in one place, read from the
source with `ast`.

Every call of a map's alpha or beta evaluator is made by
`map_core.eval_batch`.  One call site means one shape check, and one place
where the callers' `require_finite` follows; a second site would be a
second, unchecked way to evaluate a map.  Method definitions and attribute
reads (``wrapper.alpha`` passed to a `MapSpec`) are not calls.

`NoReturnError` is raised only in `poincare`.  A flow reports a lane that
misses S (``event_hit`` false); whether a missing return is an error is the
Poincare layer's decision, made once.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perimap"

EVALUATORS = ("alpha", "beta")


class _Sites(ast.NodeVisitor):
    """(module, enclosing function, name) of each ``<expr>.alpha(...)`` or
    ``<expr>.beta(...)`` call, and of each ``raise <name>`` or
    ``raise <name>(...)``, in ``calls`` and ``raises``."""

    def __init__(self, module):
        self.module, self.functions = module, []
        self.calls, self.raises = set(), set()

    def _site(self, name):
        return (self.module, ".".join(self.functions), name)

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in EVALUATORS):
            self.calls.add(self._site(node.func.attr))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, (ast.Name, ast.Attribute)):
            self.raises.add(self._site(getattr(exc, "id", None)
                                       or exc.attr))
        self.generic_visit(node)


def sites():
    calls, raises = set(), set()
    for path in sorted(SRC.glob("*.py")):
        found = _Sites(path.stem)
        found.visit(ast.parse(path.read_text()))
        calls |= found.calls
        raises |= found.raises
    return calls, raises


def test_eval_batch_is_the_only_caller():
    calls, _ = sites()
    assert calls == {("map_core", "eval_batch", "alpha"),
                     ("map_core", "eval_batch", "beta")}


def test_no_return_error_raised_only_in_poincare():
    _, raises = sites()
    assert {site[:2] for site in raises if site[2] == "NoReturnError"} == {
        ("poincare", "_return_batch"), ("poincare", "certify_returns")}
