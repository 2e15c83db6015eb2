"""Execute the library's docstring examples.

Several low-level modules carry ``>>>`` examples in their docstrings;
this test runs them so the documented behaviour cannot silently drift
from the implementation.
"""

import doctest

import pytest

import repro.core.dispatch
import repro.graphs.adjacency
import repro.pram.brent
import repro.util.formatting
import repro.util.intmath
import repro.util.sentinels

MODULES = [
    repro.core.dispatch,
    repro.util.intmath,
    repro.util.sentinels,
    repro.util.formatting,
    repro.pram.brent,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
