"""The package namespace: what `import bicyclic` loads, and what its names are.

Each check runs in a fresh interpreter, since the first import of the
package and of its submodules is what is under test.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bicyclic

SRC = Path(bicyclic.__file__).resolve().parent.parent

# Every exported name, by the submodule that defines it.
HOMES = {
    "elements": (
        "Element GreenRelations green hat inverse multiply parse_element"
    ),
    "words": "word_normalize",
    "subsemigroups": (
        "ClosureFailure Diagonal DiagonalTail IndexSet InvalidSpecError Lower RowData RowOverride"
        " SubsemigroupSpec TwoSidedI TwoSidedII Upper ValidationReport closure_falsify contains validate"
    ),
    "iorder": "Certificate Condition Decision decide_left_iorder decide_right_iorder decision_lines hat_spec",
    "witness": "NotLeftIOrderError Witness decompose verify_witness",
    "specfile": "SpecError SpecSyntaxError SpecValidationError parse_spec parse_spec_unchecked",
    "coverage": "CoverageReport CrossCheckReport coverage cross_validate default_pair_bound",
    "render": "render_window",
}
PINNED = {name: module for module, names in HOMES.items() for name in names.split()}


def fresh(code: str):
    """The JSON value the code prints, run in a new interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_submodule():
    loaded = fresh(
        """
        import json, sys
        import bicyclic
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("bicyclic.") or m == "dataclasses")))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("first", ("bicyclic.cli", "bicyclic.coverage"))
def test_coverage_is_the_function_however_the_package_is_first_imported(first):
    checks = fresh(
        f"""
        import json, sys
        import {first}
        import bicyclic
        function = sys.modules["bicyclic.coverage"].coverage
        from bicyclic import coverage
        print(json.dumps([coverage is function, bicyclic.coverage is function]))
        """
    )
    assert checks == [True, True]


def test_every_pinned_name_is_its_home_submodules_object():
    exported, same, public = fresh(
        f"""
        import importlib, json, types
        import bicyclic
        pinned = {PINNED!r}
        same = [name for name, home in pinned.items()
                if getattr(bicyclic, name) is getattr(importlib.import_module("bicyclic." + home), name)]
        public = [name for name in dir(bicyclic)
                  if not name.startswith("_") and not isinstance(getattr(bicyclic, name), types.ModuleType)]
        print(json.dumps([sorted(bicyclic.__all__), same, public]))
        """
    )
    assert exported == sorted(PINNED)
    assert same == list(PINNED)
    assert public == sorted(PINNED)


def test_star_import_of_each_home_binds_exactly_its_pinned_names():
    bound = fresh(
        f"""
        import json
        bound = {{}}
        for home in {list(HOMES)!r}:
            names = {{}}
            exec(f"from bicyclic.{{home}} import *", names)
            bound[home] = sorted(set(names) - {{"__builtins__"}})
        print(json.dumps(bound))
        """
    )
    assert bound == {home: sorted(names.split()) for home, names in HOMES.items()}


def test_submodules_still_import_from_the_package():
    kinds = fresh(
        """
        import json, types
        from bicyclic import iorder, cli, witness, _cover
        print(json.dumps([isinstance(m, types.ModuleType) for m in (iorder, cli, witness, _cover)]))
        """
    )
    assert kinds == [True, True, True, True]


def test_unknown_name_raises_attribute_error():
    outcome = fresh(
        """
        import json
        import bicyclic
        try:
            bicyclic.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        """
    )
    assert outcome == "module 'bicyclic' has no attribute 'no_such_name'"
