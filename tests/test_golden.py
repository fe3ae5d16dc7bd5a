"""Certificates stay byte-identical to the benchmark's golden digests.

perfbench/golden.json holds the SHA-256 of three certificates, captured
after all-pairs verification accepted them.  Each is rebuilt here the way
`qchroma colour` builds it (context, unverified colouring, JSON) and its
digest compared.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qchroma import colouring as col
from qchroma.grassmann import GrassmannParams

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_matches_golden_digest(name):
    golden = GOLDEN[name]
    params = GrassmannParams(*golden["params"])
    text = col.certificate_to_json(col.full_colouring(col.make_context(params),
                                                      verify=False))
    assert len(text.encode()) == golden["bytes"]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]
