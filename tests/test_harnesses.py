"""Properties both proof harnesses share, and their predicate work."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.folded_flags import verify_proof_folded
from eulerlab.polytope import generate
from eulerlab.schlegel_flags import verify_proof_schlegel


@given(
    d=st.integers(3, 5),
    extra=st.integers(0, 2),
    hull_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_both_proofs_pass_on_random_hulls(d, extra, hull_seed, seed):
    p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
    schlegel = verify_proof_schlegel(p, seed % len(p.facets), seed)
    folded = verify_proof_folded(p, seed)
    assert schlegel.failures == []
    assert folded.failures == []
    assert schlegel.total == folded.total


RUNS = {
    "schlegel": lambda p: verify_proof_schlegel(p, 0, 0),
    "folded": lambda p: verify_proof_folded(p, 0),
}

# Eliminations and side tests of one run at seed 0 (Schlegel at facet 0),
# after generate.  A change that moves them on purpose restates them here
# and says why.
HARNESS_WORK_COUNTS = {
    ("cube:4", "schlegel"): {"eliminate": 380, "side": 6911},
    ("cube:4", "folded"): {"eliminate": 542, "side": 1135},
    ("crosspolytope:4", "schlegel"): {"eliminate": 342, "side": 6614},
    ("crosspolytope:4", "folded"): {"eliminate": 504, "side": 1491},
}


@pytest.mark.parametrize("spec,proof", sorted(HARNESS_WORK_COUNTS))
def test_harness_work_counts(spec, proof, work_counts):
    p = generate(spec, seed=0)
    work_counts.clear()
    assert RUNS[proof](p).passed
    assert work_counts == HARNESS_WORK_COUNTS[spec, proof]
