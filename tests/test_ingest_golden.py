"""Matrix ingestion pinned bit for bit on recorded outputs.

``data/ingest_golden.json`` holds 43 fixed matrices with what
``spec_from_matrix`` returned on them: block-diagonal normal forms, dense
P J P^-1 conjugates and near-rational matrices at d = 4, 8 and 12, the
ingestion edge cases of ``test_blocks.py``, x^2 - p^2 for the prime
p = 2^61 - 1 of the modular square-free test, and eigenvalues whose
denominators exceed the bound, which the exact tier must leave to the
numeric one.  A success is recorded as the ``repr`` of the ApproxSpec
(spec, residual, tol, source fingerprint, exact flag) and the residual's
``float.hex``; a failure as the error's type and message.  The outputs of
certified cases were re-recorded when the exact tier stopped rooting
floats: their residual became 0.0, and four refusals of exactly rational
spectra became certified results.  Any change in a verdict, a residual
bit, the exact flag or the message fails here.
"""

import json
from pathlib import Path

import pytest

from linflow import parse_matrix, spec_from_matrix
from linflow.errors import LinFlowError

CASES = json.loads((Path(__file__).parent / "data" / "ingest_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_spec_from_matrix_matches_recorded_output(case):
    matrix = parse_matrix(case["matrix"])
    kwargs = {k: case[k] for k in ("tol", "max_denominator") if k in case}
    if "error" in case:
        with pytest.raises(LinFlowError) as info:
            spec_from_matrix(matrix, **kwargs)
        assert (type(info.value).__name__, str(info.value)) == (case["error"], case["message"])
    else:
        got = spec_from_matrix(matrix, **kwargs)
        assert repr(got) == case["repr"]
        assert got.residual.hex() == case["residual"]
