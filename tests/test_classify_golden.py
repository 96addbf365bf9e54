"""Every relation's verdict pinned byte for byte on recorded outputs.

``data/classify_golden.json`` holds 320 fixed pairs of dimension 1 to 6
with the ``Verdict.to_json()`` of all eleven relations, recorded when
keys were still built by scaling specs with Fractions: independent and
colliding pairs, unequal dimensions, all-zero growth, pure rotation, every
rate zero, +-top ties (spectra symmetric under negation), scalings with
negative and positive alpha, collapse and decouple relatives of a scaled
copy, hyperbolic pairs, planar and line pairs for the topological
catalogs, and a spec against itself.  Each case stores its two generators
once; a verdict's ``left`` and ``right`` are put back in their place
before the comparison.  Both `classify` and `implication_audit` must
reproduce ``json.dumps`` of every record exactly: decision, predicate,
alpha, witness, trace text and key order.
"""

import json
from pathlib import Path

import pytest

from linflow import Relation, classify, implication_audit, parse_spec

CASES = json.loads((Path(__file__).parent / "data" / "classify_golden.json").read_text())


def _expected(case, rec):
    return {
        "relation": rec["relation"],
        "decision": rec["decision"],
        "left": case["left"],
        "right": case["right"],
        "scaling": rec["scaling"],
        "trace": rec["trace"],
    }


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_verdicts_match_recorded_output(case):
    a, b = parse_spec(case["left"]), parse_spec(case["right"])
    want = [json.dumps(_expected(case, rec)) for rec in case["verdicts"]]
    assert [rec["relation"] for rec in case["verdicts"]] == [r.value for r in Relation]
    audit = implication_audit(a, b)
    assert [json.dumps(v.to_json()) for v in audit.verdicts.values()] == want
    assert [json.dumps(classify(rel, a, b).to_json()) for rel in Relation] == want
