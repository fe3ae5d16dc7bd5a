"""Capture the golden certificate digests that the benchmark checks jobs against.

Run from the repository root, only when certificates are meant to change:

    python3 perfbench/capture_golden.py

Each certificate is built exactly as the benchmark job builds it and is
accepted by `verify_properness` over all C(V, 2) pairs before its SHA-256
is written to perfbench/golden.json.  J_3(6,3,2) takes minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qchroma import colouring as col  # noqa: E402
from qchroma.grassmann import GrassmannParams  # noqa: E402
from workloads import colour_certificate, digest  # noqa: E402

GRAPHS = {"colour-direct": (3, 6, 3, 2), "colour-dual": (2, 7, 4, 2),
          "verify": (4, 5, 2, 1)}


def capture(p: tuple[int, int, int, int]) -> dict:
    params = GrassmannParams(*p)
    text = colour_certificate(params)
    cert = col.certificate_from_json(text)
    report = col.verify_properness(cert)
    v = params.vertex_count()
    if not (report.coverage_ok and report.proper and report.pairs_checked == v * (v - 1) // 2):
        raise SystemExit(f"{p}: certificate refused: {report.message()}")
    return {"params": list(p), "vertices": v, "palette_used": cert.palette_used,
            "bytes": len(text.encode()), "sha256": digest(text)}


def main() -> None:
    golden = {}
    for name, p in GRAPHS.items():
        golden[name] = capture(p)
        print(name, golden[name], flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
