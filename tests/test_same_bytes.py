"""``scripts/same_bytes.py`` runs its whole matrix and prints one line per run.

The script is the byte gate of changes that must not move any output: its
output under two source trees is compared with ``diff``. Here it runs on
the workloads' ``tiny`` inputs, so a broken script fails the suite.
"""

import importlib.util
import pathlib
import re

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_bytes.py"


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_run_of_the_matrix(same_bytes):
    lines = same_bytes.lines("tiny")
    # three workloads x seeds 1-3 x three option sets, four spellings of one
    # input, six more ways to read it, four phosphate runs and four fit runs
    assert len(lines) == 3 * 3 * 3 + 4 + 6 + 4 + 4
    labels = [line.rsplit(" ", 2)[0] for line in lines]
    assert len(set(labels)) == len(labels)
    assert "many_gaps_var seed=2 paper" in labels and "phosphate ar2-refit" in labels
    assert "refit_ar seed=1 non-ascii" in labels
    for variation in ("regression", "regression-refit", "open-gap", "open-gap-paper", "open-gap-regression",
                      "constant-prefix-open-gap"):
        assert f"refit_ar seed=1 {variation}" in labels
    for fit in ("long_gap_ar seed=1", "many_gaps_var seed=1", "refit_ar seed=1 regression", "phosphate var"):
        assert f"fit {fit}" in labels
    for line in lines:
        assert re.fullmatch(r"[\w=.\- ]+ exit=0 [0-9a-f]{64}", line), line


def test_reruns_print_the_same_lines(same_bytes):
    assert same_bytes.lines("tiny") == same_bytes.lines("tiny")
