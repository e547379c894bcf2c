"""Every name the package defines is used outside the tests.

A function, class or method that only the tests call reads as part of the
package's API while the product never runs it. Each top-level function and
class of ``src/floratile/*.py``, and each method that is not a dunder, must
appear by whole-word name somewhere in the package's modules, the demos,
the bench harness's modules and README, or ``README.md``, outside the line
that defines it.

A second list pins the names that only the bench harness's replay of a run,
``perfbench/trace_run.py``, uses outside the tests. They wait on the replay's
removal, and a name that joins them fails the test at once.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "floratile"


def _definitions():
    """``(name, path, line)`` of each top-level function and class of the
    package, and of each method that is not a dunder."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        yield member.name, path, member.lineno


def _product_lines():
    """``(path, line number, text)`` of every line of the package, the demos,
    the bench harness and the README: their code and prose, not what a run
    leaves beside them."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "perfbench" / "README.md", ROOT / "README.md"]
    for path in sorted(paths):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            yield path, n, line


def test_every_package_name_is_used_outside_the_tests():
    lines = list(_product_lines())
    unused = []
    for name, path, lineno in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, n, text in lines if (p, n) != (path, lineno)):
            unused.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    assert not unused, "defined but used only by the tests (or not at all):\n" + "\n".join(unused)


REPLAY = ROOT / "perfbench" / "trace_run.py"
# used outside the tests by the replay alone; the list shrinks as the replay goes
REPLAY_ONLY = {"read_tile_predictions", "group_by_image", "aggregate_predictions"}


def _name_tokens(text):
    """``(name, line)`` of each Python NAME token of ``text``: code, not a
    string, comment or docstring."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME}


def test_the_names_only_the_replay_uses_are_the_listed_ones():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    uses = {path: _name_tokens(path.read_text(encoding="utf-8")) for path in paths}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    uses[ROOT / "README.md"] = set().union(
        *(_name_tokens(block) for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)))
    replay_only = set()
    for name, path, lineno in _definitions():
        users = {p for p, tokens in uses.items() for word, n in tokens if word == name and (p, n) != (path, lineno)}
        if users == {REPLAY}:
            replay_only.add(name)
    assert replay_only == REPLAY_ONLY
