#!/usr/bin/env python3
"""Check the bytes of the d = 6, R = 3 simplex base cone (no radius probe).

Prints the SHA-256 of its halfspace matrix and of its rays and exits 1 if
either differs from the digests recorded at commit d9a694d with numpy 2.4.6
and OpenBLAS on x86-64.  The cone takes a few seconds, too long for the
tier-1 suite, which pins the smaller sizes (tests/test_cone_layer.py).

    python scripts/north_star_digests.py
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perigid import analyze, expansive_cone, simplex_framework  # noqa: E402

EXPECTED = (
    "c0dd73f56f24d03bae697d08efd905608aedd932eaf86b2532b3200351ffe13e",
    "f446f735923010c63c09c5fd7807045df4b5f311002ebb30819da6762ed175f0",
)

fw = simplex_framework(6)
cone = expansive_cone(fw, analyze(fw), 3)
digests = tuple(hashlib.sha256(m.tobytes()).hexdigest() for m in (cone.halfspace_matrix, cone.rays))
print(f"d=6 R=3 halfspaces {digests[0]}\nd=6 R=3 rays       {digests[1]}")
sys.exit(0 if digests == EXPECTED else 1)
