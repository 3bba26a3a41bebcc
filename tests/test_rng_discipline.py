"""RNG-discipline audit: no ambient module-level randomness in ``repro``.

Determinism — checkpoint byte-identity, content-addressed cache hits,
mid-stream workload resume — relies on every random stream being an
explicitly seeded ``random.Random`` instance owned by the object that
draws from it.  This test walks the AST of every source file under
``src/repro`` and fails the build on:

* any use of the stdlib module-level RNG (``random.randrange(...)``,
  ``random.shuffle(...)``, ...) — ``random.Random`` construction and
  the ``random`` import itself are the sanctioned uses;
* ``from random import <stateful function>`` imports, which alias the
  same hidden global state;
* any ``numpy`` import and any ``numpy.random`` usage — numpy is not a
  dependency here, and its global generator would be invisible to the
  snapshot format.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: The only attributes that may be read off the ``random`` module.
ALLOWED_RANDOM_ATTRS = {"Random"}


def rng_violations(source: str, filename: str = "<string>") -> List[Tuple[int, str]]:
    """(line, description) for every ambient-RNG use or numpy import in
    ``source``."""
    problems: List[Tuple[int, str]] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute):
            target = node.value
            if (
                isinstance(target, ast.Name)
                and target.id == "random"
                and node.attr not in ALLOWED_RANDOM_ATTRS
            ):
                problems.append((node.lineno, f"random.{node.attr}"))
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "random"
                and isinstance(target.value, ast.Name)
                and target.value.id in ("numpy", "np")
            ):
                problems.append(
                    (node.lineno, f"{target.value.id}.random.{node.attr}")
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                problems.extend(
                    (node.lineno, f"from random import {alias.name}")
                    for alias in node.names
                    if alias.name not in ALLOWED_RANDOM_ATTRS
                )
            elif node.module and node.module.split(".")[0] == "numpy":
                problems.append((node.lineno, f"from {node.module} import ..."))
        elif isinstance(node, ast.Import):
            problems.extend(
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] == "numpy"
            )
    return problems


def test_auditor_catches_known_violations():
    bad = "\n".join(
        [
            "import random",
            "import numpy.random",
            "import numpy as np",
            "from random import shuffle",
            "from numpy.random import default_rng",
            "from numpy import zeros",
            "x = random.randrange(4)",
            "y = numpy.random.rand()",
        ]
    )
    found = {what for _, what in rng_violations(bad)}
    assert found == {
        "import numpy.random",
        "import numpy",
        "from random import shuffle",
        "from numpy.random import ...",
        "from numpy import ...",
        "random.randrange",
        "numpy.random.rand",
    }


def test_auditor_allows_seeded_instances():
    good = "\n".join(
        [
            "import random",
            "from random import Random",
            "rng = random.Random(7)",
            "value = rng.randrange(4)",
            "fraction = rng.random()",
        ]
    )
    assert rng_violations(good) == []


def test_no_ambient_rng_in_package():
    problems = []
    for source in sorted(PACKAGE_ROOT.rglob("*.py")):
        for lineno, what in rng_violations(
            source.read_text(), filename=str(source)
        ):
            problems.append(
                f"{source.relative_to(PACKAGE_ROOT)}:{lineno}: {what}"
            )
    assert problems == [], (
        "module-level RNG state and numpy imports break snapshot "
        "determinism:\n  "
        + "\n  ".join(problems)
    )
