#!/usr/bin/env python3
"""Check the bytes, the stable radius and the memory of the d = 6, R = 3
simplex base cone, radius probe and pair audit CSV included.

Prints the SHA-256 of its halfspace matrix, of its rays and of its pair audit
CSV (`pairs_csv`, written to a temporary directory), the stable radius from
`find_stable_radius` and the process's peak resident memory (`ru_maxrss`).
Exits 1 if a digest differs from the one recorded (the matrices at commit
d9a694d, the CSV at c85d568) with numpy 2.4.6 and OpenBLAS on x86-64, if the
radius is not 3, or if the peak exceeds 150 MB (the cone and the probe stream
their pairs and merge them as they come, and the CSV is written a chunk of
lines at a time; holding the pairs whole took ~730 MB).  The cone
takes a few seconds, too long for the tier-1 suite, which pins the smaller
sizes (tests/test_cone_layer.py).

    python scripts/north_star_digests.py
"""

import hashlib
import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perigid import analyze, expansive_cone, find_stable_radius, simplex_framework  # noqa: E402

EXPECTED = (
    "c0dd73f56f24d03bae697d08efd905608aedd932eaf86b2532b3200351ffe13e",
    "f446f735923010c63c09c5fd7807045df4b5f311002ebb30819da6762ed175f0",
    "299269d3f74815b0a82306f0f54a711a2a6ef905ec27eca15c627f6d6d53b15d",
)
MAX_RSS_MB = 150

fw = simplex_framework(6)
with tempfile.TemporaryDirectory() as tmp:
    pairs_csv = Path(tmp) / "pairs.csv"
    cone = expansive_cone(fw, analyze(fw), 3, pairs_csv=pairs_csv)
    csv_digest = hashlib.sha256(pairs_csv.read_bytes()).hexdigest()
digests = (*(hashlib.sha256(m.tobytes()).hexdigest() for m in (cone.halfspace_matrix, cone.rays)), csv_digest)
radius = find_stable_radius(fw, cone, max_radius=6)
# ru_maxrss is in KiB on Linux.
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"d=6 R=3 halfspaces {digests[0]}\nd=6 R=3 rays       {digests[1]}\nd=6 R=3 pairs CSV  {digests[2]}")
print(f"d=6 R=3 stable radius {radius}\nd=6 R=3 peak RSS {peak_mb:.0f} MB")
sys.exit(0 if digests == EXPECTED and radius == 3 and peak_mb <= MAX_RSS_MB else 1)
