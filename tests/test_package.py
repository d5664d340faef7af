import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "weakdelay").glob("*.py"))


def test_no_module_issues_python_warnings():
    # caveats are data (result and record fields printed as JSON), never
    # Python warnings, which a caller may filter, miss or turn into errors
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and (node.func.value.id, node.func.attr) == ("warnings", "warn"))
            imported = (isinstance(node, ast.ImportFrom) and node.module == "warnings"
                        and any(alias.name == "warn" for alias in node.names))
            if called or imported:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
