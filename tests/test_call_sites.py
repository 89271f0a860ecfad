"""Every call of a map's alpha or beta evaluator in the package is made by
`map_core.eval_batch`, read from the source with `ast`.

One call site means one shape check, and one place where the callers'
`require_finite` follows; a second site would be a second, unchecked way
to evaluate a map.  Method definitions and attribute reads (``wrapper.alpha``
passed to a `MapSpec`) are not calls.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perimap"

EVALUATORS = ("alpha", "beta")


class _Calls(ast.NodeVisitor):
    """(module, enclosing function, evaluator) of each ``<expr>.alpha(...)``
    or ``<expr>.beta(...)`` call."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in EVALUATORS):
            self.found.add((self.module, ".".join(self.functions),
                            node.func.attr))
        self.generic_visit(node)


def evaluator_calls():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        calls = _Calls(path.stem)
        calls.visit(ast.parse(path.read_text()))
        found |= calls.found
    return found


def test_eval_batch_is_the_only_caller():
    assert evaluator_calls() == {("map_core", "eval_batch", "alpha"),
                                 ("map_core", "eval_batch", "beta")}
