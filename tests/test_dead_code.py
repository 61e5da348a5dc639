"""Guard against production code that only tests call.

Every name a ``src/repro`` module exports through ``__all__`` must be
referenced somewhere in the non-test code of the repository: the package
itself, the jobs, scripts, benchmarks or the performance benchmark. The
scan is syntactic (stdlib ``ast``): a name counts as referenced when it
appears as an identifier, an attribute or an imported name outside the
test files.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "jobs", "scripts", "benchmarks", "perfbench")

# Exported names with no non-test caller that stay on purpose.
ALLOWED = {
    "run_arda": "the documented single-shot entry point of the pipeline",
    "discover_joins": "the reference the dataset tests compare declared "
                      "candidate joins against",
}


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _code_files() -> list[Path]:
    return [p for d in CODE_DIRS for p in sorted((ROOT / d).rglob("*.py"))
            if not _is_test_file(p)]


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _scan() -> tuple[dict[str, str], set[str]]:
    """(exported name -> defining module, every name non-test code uses)."""
    exported: dict[str, str] = {}
    referenced: set[str] = set()
    for path in _code_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced |= _references(tree)
        if path.is_relative_to(ROOT / "src" / "repro"):
            for name in _exports(tree):
                exported[name] = str(path.relative_to(ROOT))
    return exported, referenced


def test_every_export_has_a_non_test_caller():
    exported, referenced = _scan()
    unused = sorted(f"{mod}:{name}" for name, mod in exported.items()
                    if name not in referenced and name not in ALLOWED)
    assert not unused, f"exported but called only by tests: {unused}"


def test_allowed_names_are_still_exported_and_unused():
    # An allowance that is no longer needed must be removed from ALLOWED.
    exported, referenced = _scan()
    assert set(ALLOWED) <= set(exported)
    assert not set(ALLOWED) & referenced
