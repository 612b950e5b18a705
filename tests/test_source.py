"""Source-level guards over src/jetflow."""

import ast
import collections
import io
import pathlib
import tokenize

import jetflow

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetflow"


def test_every_module_level_function_and_class_is_used_or_exported():
    # a name counts as used when it appears as a Python name (not in a string
    # or a comment) anywhere in src/ besides its own definition
    names = collections.Counter()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        names.update(tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                     if tok.type == tokenize.NAME)
        defined += [(path.stem, node.name) for node in ast.parse(text).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 100
    # cli.main is the console entry; dunder hooks (PEP 562) are called by Python
    unused = [f"{module}.{name}" for module, name in defined
              if names[name] < 2 and name not in jetflow.__all__
              and (module, name) != ("cli", "main")
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
