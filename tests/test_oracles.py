"""The oracles stay independent of the package's internals."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_no_private_package_name():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    private = [name for name in imported
               if name.split(".")[0] == "radialheat"
               and any(part.startswith("_") for part in name.split("."))]
    assert private == []
