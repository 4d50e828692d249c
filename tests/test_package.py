"""The ``bifair`` namespace: what each import loads, and what each name is."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bifair

README = Path(__file__).parents[1] / "README.md"

# Layers that loading an instance file never uses.
NOT_FOR_IO = {"bifair.exchange", "bifair.solver", "bifair.oracle", "bifair.audit",
              "bifair.cli", "fractions", "heapq", "dataclasses", "inspect"}
IO_LAYERS = {"bifair", "bifair.errors", "bifair.record", "bifair.valuation",
             "bifair.allocation", "bifair.io"}


def _modules_loaded_by(code: str) -> set[str]:
    """Modules that ``code`` adds to ``sys.modules`` in a fresh interpreter."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bifair.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


class TestImportBoundary:
    @pytest.mark.parametrize("code", ["import bifair.io", "from bifair import load_instance"])
    def test_io_loads_only_its_layers(self, code):
        loaded = _modules_loaded_by(code)
        assert not loaded & NOT_FOR_IO
        assert {name for name in loaded if name.startswith("bifair")} == IO_LAYERS

    @pytest.mark.parametrize("module", ["bifair.solver", "bifair.cli"])
    def test_no_layer_loads_dataclasses_or_inspect(self, module):
        assert not _modules_loaded_by(f"import {module}") & {"dataclasses", "inspect"}

    def test_cli_loads_no_oracle_or_audit(self):
        assert not _modules_loaded_by("import bifair.cli") & {"bifair.oracle", "bifair.audit"}

    def test_package_import_loads_no_submodule(self):
        assert {name for name in _modules_loaded_by("import bifair")
                if name.startswith("bifair")} == {"bifair"}

    def test_first_read_loads_the_defining_module(self):
        loaded = _modules_loaded_by(
            "import bifair\nassert bifair.solve is sys.modules['bifair.solver'].solve"
        )
        assert "bifair.solver" in loaded and "bifair.audit" not in loaded


class TestNamespace:
    @pytest.mark.parametrize("name", bifair.__all__)
    def test_name_is_its_defining_modules_object(self, name):
        value = getattr(bifair, name)
        assert value.__module__.startswith("bifair.")
        assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from bifair import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(bifair.__all__)

    def test_dir_lists_every_public_name(self):
        assert set(bifair.__all__) <= set(dir(bifair))
        assert "__version__" in dir(bifair)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match=r"^module 'bifair' has no attribute 'x'$"):
            bifair.x

    def test_setattr_then_restore(self):
        original = bifair.solve
        replacement = object()
        bifair.solve = replacement
        try:
            assert bifair.solve is replacement
            from bifair import solve
            assert solve is replacement
        finally:
            bifair.solve = original
        assert bifair.solve is original is sys.modules["bifair.solver"].solve


def test_readme_library_example_runs_and_its_results_hold():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        expression, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
            ast.parse(expression.strip(), mode="eval")
        except (SyntaxError, ValueError):
            continue  # an assignment, or a comment that is not a value
        assert eval(expression, namespace) == expected, line
        checked += 1
    assert checked == 3
