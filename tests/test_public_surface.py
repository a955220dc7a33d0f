"""No dead library surface: every top-level function and class of the
package, and every non-dunder method of a top-level class, has a caller
outside the tests or is documented in the README.

A use is a name, an attribute or an identifier string constant (the
benchmark's tracer wraps functions by their name as a string) anywhere in
the package other than the definition itself and ``__init__.py``, or
anywhere in ``perfbench/``; a README mention is the name inside a code
span or a fenced block.  A name that only tests use is one more concept
for readers and maintainers: delete it, or document why a user needs it.

The match is by bare name, a heuristic: a method passes when any other
object's attribute of the same name is used anywhere (a dead ``X.apply``
would pass beside a live ``Y.apply``), and any identifier inside a README
code span counts as documented.  It catches a name nothing mentions, not
every name nothing calls.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quasiloop"


def _uses(node: ast.AST) -> Counter:
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found[n.value] += 1
    return found


def _definitions(tree: ast.Module):
    """``(qualified name, bare name, node)`` for each top-level function and
    class and each non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for top in tree.body:
        if not isinstance(top, defs):
            continue
        yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{top.name}.{member.name}", member.name, member


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```.*?^```$", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S))
    return {name for span in fenced + inline for name in re.findall(r"[A-Za-z_]\w*", span)}


def unused_names() -> list[str]:
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            uses += _uses(tree)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        uses += _uses(ast.parse(path.read_text(encoding="utf-8")))
    documented = _readme_names()
    unused = []
    for path, tree in modules.items():
        for qualified, name, node in _definitions(tree):
            outside_own_def = uses[name] - _uses(node)[name]
            if outside_own_def <= 0 and name not in documented:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_library_name_has_a_caller_or_a_readme_entry():
    assert unused_names() == []
