"""src/adsholo holds what the command line runs: every top-level function
and class is used in the package outside its own definition.  Operations
that only the tests need live in tests/reference_ops.py, which reads no
private package name but the trapezoid weights, so that it stays a second
path to what it checks."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adsholo"
REFERENCE_OPS = Path(__file__).resolve().parent / "reference_ops.py"


def used_names(node, skip):
    """Names and attribute names read under node, outside the subtree skip."""
    if node is not skip:
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield node.id if isinstance(node, ast.Name) else node.attr
        for child in ast.iter_child_nodes(node):
            yield from used_names(child, skip)


def test_every_definition_is_used_in_the_package():
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))]
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name != "main"     # the console entry point
              and not any(node.name in used_names(t, node) for t in trees)]
    assert unused == []


def test_reference_ops_reads_no_private_package_name():
    tree = ast.parse(REFERENCE_OPS.read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and (n.module or "").startswith("adsholo")]
    package = {a.asname or a.name for n in imports for a in n.names}
    private = {a.name for n in imports for a in n.names
               if a.name.startswith("_")}
    private |= {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id in package
                and n.attr.startswith("_")}
    assert package and private <= {"_trapezoid_weights"}
