"""Every witness a test's searches return is certified when the test ends.

The fixture wraps the library search and the two oracle searches; each
witness they return is checked by ``fiber_criteria.check_witness`` at
teardown, so the check neither runs inside the test's own timings nor
counts in call counters that the test patches in.
"""

import pytest

import reference_witness
from cypair import fiber_criteria as fc

SEARCHES = (
    (fc, "prop51_witness_search"),
    (reference_witness, "prop51_witness_search"),
    (reference_witness, "pruned_witness_search"),
)


@pytest.fixture(autouse=True)
def certify_witnesses():
    found = []
    originals = [(module, name, getattr(module, name)) for module, name in SEARCHES]

    def recording(search):
        def wrapper(fiber, max_blowups=3, coeff_cap=6):
            w = search(fiber, max_blowups, coeff_cap)
            if w is not None:
                found.append((fiber, w, coeff_cap))
            return w

        return wrapper

    for module, name, search in originals:
        setattr(module, name, recording(search))
    try:
        yield
    finally:
        for module, name, search in originals:
            setattr(module, name, search)
    for fiber, w, cap in found:
        fc.check_witness(fiber, w, cap)
