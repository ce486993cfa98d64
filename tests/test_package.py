"""The package's export list and import path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import locmst

ROOT = Path(__file__).resolve().parents[1]


def test_export_list_matches_the_imports():
    # every listed name resolves and is listed once, and every public
    # function or class the package imports from its modules is listed, so
    # the import block and __all__ cannot drift apart
    names = locmst.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(locmst, name)
    imported = {
        name
        for name, value in vars(locmst).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", "").startswith("locmst.")
    }
    assert imported == set(names)


# Exports that nothing in the package or the benchmark calls, kept for the
# reader: reference oracles the tests compare the solvers and weights
# against, and checks of two of the paper's claims.
EXPORTED_FOR_READERS = frozenset((
    "verify_path_criterion",  # the O(n^2) path-criterion oracle
    "mst_prim_dense",  # the rowwise Prim oracle
    "mst_brute_force",  # the every-tree oracle for n <= 8
    "pair_weight",  # the one-pair weight oracle
    "geometric_moment_upper_bound",  # the moment bound's closed form
    "gap_stat_monotonicity",  # S_alpha under one added point
))


def names_used(source: str) -> set[str]:
    """The names a module's code reads: names, attributes and imports,
    not words in its comments, docstrings or strings."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def test_a_mention_in_a_docstring_or_comment_is_not_a_use():
    source = (
        'def f():\n'
        '    """Calls ``unused_a`` in prose."""\n'
        '    return g(lm.used_b, "unused_c")  # unused_d\n'
        'from m import used_c\n'
    )
    used = names_used(source)
    assert {"g", "lm", "used_b", "used_c"} <= used
    assert not {"f", "unused_a", "unused_c", "unused_d"} & used


def test_every_export_is_used_outside_its_definition():
    # a name only tests reach is not exported: the code of another module
    # of the package, or of the benchmark, reads it, or it is listed above
    files = [path for path in (ROOT / "src" / "locmst").glob("*.py")
             if path.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set().union(*(names_used(path.read_text(encoding="utf-8"))
                         for path in files))
    unused = [name for name in locmst.__all__
              if name not in EXPORTED_FOR_READERS and name not in used]
    assert unused == []
    assert EXPORTED_FOR_READERS <= set(locmst.__all__)


def test_importing_the_cli_loads_no_scipy():
    # scipy.special costs a process about 0.2 s and 26 MB; only prop1's
    # exact event probability needs it, and loads it on first use
    code = "\n".join((
        "import sys",
        "import locmst.cli",
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "from locmst.experiments import prop1_demo",
        "print(repr(prop1_demo(2, reps=1, mode='planted').event_log10))",
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == -422.2991435319093  # pinned in test_experiments
