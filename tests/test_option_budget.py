"""The count of settable values in the package: defaulted parameters plus
dataclass fields, read from the source with `ast`.

Each one is an option a caller may set, so the count is pinned.  A change
that moves it updates ``PINNED`` and says why in CHANGES.md.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perimap"

PINNED = {"defaulted_parameters": 60, "dataclass_fields": 95}


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def option_counts():
    defaulted = fields = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                defaulted += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return {"defaulted_parameters": defaulted, "dataclass_fields": fields}


def test_option_count_is_pinned():
    counts = option_counts()
    assert counts == PINNED, (
        f"the count of settable values in src/perimap is {counts} "
        f"(total {sum(counts.values())}), pinned at {PINNED} "
        f"(total {sum(PINNED.values())}); update PINNED in "
        "tests/test_option_budget.py and say why in CHANGES.md")
