"""The public API: the names each module exports, and the README example."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eigenpoly

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "eigenpoly": {
        "AssembledSystem", "BUILTIN_KINDS", "Eigenpair", "MonicPolynomial", "RealEigenpairs",
        "ResidualReport", "SolutionFamily", "StructureBasis", "StructureMembershipError",
        "StructuredMatrix", "ToleranceConfig", "analyze", "assemble", "build_basis",
        "builtin_dimension", "choose_eigenpairs", "companion_eigs", "coords_of", "encode",
        "extract_coefficient", "generate_example3", "load_custom_basis", "monicize",
        "random_polynomial", "realize", "residual", "solve",
    },
    "eigenpoly.eigendata": {"Eigenpair", "RealEigenpairs", "encode"},
    "eigenpoly.fixtures": {"example1_eigenpairs", "example2_eigenpairs", "example3_eigenpairs", "generate_example3"},
    "eigenpoly.jsonio": {
        "dumps", "eigendata_to_obj", "load_custom_basis_file", "load_eigendata", "load_polynomial",
        "obj_to_eigenpairs", "polynomial_to_obj",
    },
    "eigenpoly.solver": {
        "AssembledSystem", "MonicPolynomial", "SolutionFamily", "ToleranceConfig", "analyze", "assemble",
        "extract_coefficient", "monicize", "solve",
    },
    "eigenpoly.structures": {
        "BUILTIN_KINDS", "StructureBasis", "StructureMembershipError", "StructuredMatrix", "build_basis",
        "builtin_dimension", "coords_of", "load_custom_basis", "realize",
    },
    "eigenpoly.verify": {"ResidualReport", "choose_eigenpairs", "companion_eigs", "random_polynomial", "residual"},
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_exactly_the_listed_ones(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[name]
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr} is listed but missing"


def test_readme_library_quick_start_runs(tmp_path):
    text = README.read_text()
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", text, re.S | re.M).group(1)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    env = dict(os.environ, PYTHONPATH=str(Path(eigenpoly.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["True False", "9 3"]
