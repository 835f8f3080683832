"""src/adsholo holds what the command line runs: every top-level function
and class is used in the package outside its own definition.  Operations
that only the tests need live in tests/reference_ops.py, which reads no
private package name but the trapezoid weights, so that it stays a second
path to what it checks."""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adsholo"
REFERENCE_OPS = Path(__file__).resolve().parent / "reference_ops.py"


def name_uses(node):
    """Counts of the names and attribute names read under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_in_the_package():
    # a definition is used when the package reads its name more often than
    # the definition itself does
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))]
    uses = sum(map(name_uses, trees), Counter())
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name != "main"     # the console entry point
              and uses[node.name] == name_uses(node)[node.name]]
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
