"""Every module-level function and class under ``src/`` is reached.

A definition counts as reached when its name appears as an AST name or
attribute anywhere in ``src/``, ``bench/`` or ``examples/`` outside its own
body: a call, a registry dict entry, a CLI dispatch table, a base class, a
decorator.  Re-exports do not count (an ``import`` line, an ``__all__``
string): a package that only re-exports a helper runs nothing.  Dunder
definitions (a module ``__getattr__``) are hooks the interpreter calls, and
are not scanned.  Code only the tests use belongs in ``tests/oracles/``.
The scan matches by name, so a name shared with anything reached passes;
it catches what is reached by nothing at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples")

#: Definitions kept although nothing in ``SCANNED`` reaches them, with why.
ALLOWED = {
    "repro.options.markdown_table":
        "renders the README option table that test_options.py pins",
}


def _definitions():
    """``(dotted name, node, path)`` of every top-level def and class."""
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and \
                    not node.name.startswith("__"):
                yield f"{module}.{node.name}", node, path


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Each name used in the scanned trees -> where (path, line)."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for tree in SCANNED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and node.asname:
                    name = node.name.rsplit(".", 1)[-1]   # used by its alias
                else:
                    continue
                refs.setdefault(name, []).append(
                    (path, getattr(node, "lineno", 0)))
    return refs


def _unreached() -> list[str]:
    refs = _references()
    out = []
    for dotted, node, path in _definitions():
        uses = [(p, line) for p, line in refs.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not uses:
            out.append(dotted)
    return out


def test_every_definition_is_reached():
    unreached = [d for d in _unreached() if d not in ALLOWED]
    assert not unreached, (
        "defined under src/ but referenced from nothing in src/, bench/ or "
        "examples/ (delete it, move it to tests/oracles/, or allow it with "
        "a reason): " + ", ".join(unreached))


def test_allowlist_is_short_and_live():
    """At most five exceptions, each one still defined and still unreached
    (a stale entry would hide the next definition of that name)."""
    assert len(ALLOWED) <= 5
    assert all(reason for reason in ALLOWED.values())
    defined = {dotted for dotted, _node, _path in _definitions()}
    gone = sorted(set(ALLOWED) - defined)
    assert not gone, "ALLOWED entries naming no definition: " + \
        ", ".join(gone)
    reached = sorted(set(ALLOWED) - set(_unreached()))
    assert not reached, "ALLOWED entries whose definition is now reached: " \
        + ", ".join(reached)
