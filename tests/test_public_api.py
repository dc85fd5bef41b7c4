"""Every public top-level function and class in `src/fedad` is used by
code that a run executes: the package itself, `scripts/` or the
benchmark (`perfbench/*.py`, its tests excepted). A name that only tests
reach is dead weight in `src/`; a test that needs such a helper keeps it
in `tests/oracles.py`.

A reference is a bare name, an attribute, an imported name, or a string
constant equal to the name. Strings count because `baselines.detect`
looks its solver up with `globals()[detector]` and the benchmark's
tracer wraps functions by the names they are bound to."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "fedad"

# Public names that stay without a caller outside tests, each with its reason.
ALLOWED = {
    # The reader of the checkpoints and update blobs that `run` writes;
    # it is the format's documented inverse of serialize_update.
    "federation.deserialize_update",
}


def _public_definitions() -> set[str]:
    return {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names() -> set[str]:
    sources = [
        *PACKAGE.glob("*.py"),
        *(REPO / "scripts").glob("*.py"),
        *(p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_")),
    ]
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_definition_has_a_caller_outside_tests():
    used = _referenced_names()
    unused = {
        qualified
        for qualified in _public_definitions() - ALLOWED
        if qualified.partition(".")[2] not in used
    }
    assert not unused, f"public but used only by tests (or by nothing): {sorted(unused)}"


def test_allowlist_names_live_definitions():
    assert ALLOWED <= _public_definitions()
