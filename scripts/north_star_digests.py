#!/usr/bin/env python3
"""Check the bytes, the stable radius and the memory of the d = 6 simplex
base cone at radius R = 3 (the default) or R = 4, radius probe included.

Prints the SHA-256 of its halfspace matrix and of its rays, at R = 3 also of
its pair audit CSV (`pairs_csv`, written to a temporary directory), the
stable radius from `find_stable_radius` and the process's peak resident
memory (`ru_maxrss`).  Exits 1 if a digest differs from the one recorded with
numpy 2.4.6 and OpenBLAS on x86-64 (at R = 3 the matrices at commit d9a694d,
the CSV at c85d568; at R = 4 the matrices at 8a0fc13), if the stable radius
is not R, or if the peak exceeds the bound of R: 150 MB at R = 3, 400 MB at
R = 4 (the cone and the probe stream their pairs and merge them as they
come, and the CSV is written a chunk of lines at a time; holding the pairs
whole took ~730 MB at R = 3; at R = 4 the double description's active sets
set the peak, ~370 MB).  R = 3 takes a few seconds and R = 4 about a minute,
too long for the tier-1 suite, which pins the smaller sizes
(tests/test_cone_layer.py).  R = 4 writes no pair CSV: it has 1,062,881
lines.

    python scripts/north_star_digests.py [--radius 4]
"""

import argparse
import hashlib
import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perigid import analyze, expansive_cone, find_stable_radius, simplex_framework  # noqa: E402

# Radius: (halfspaces, rays, pair CSV or None) digests, peak RSS bound in MB.
EXPECTED = {
    3: (
        (
            "c0dd73f56f24d03bae697d08efd905608aedd932eaf86b2532b3200351ffe13e",
            "f446f735923010c63c09c5fd7807045df4b5f311002ebb30819da6762ed175f0",
            "299269d3f74815b0a82306f0f54a711a2a6ef905ec27eca15c627f6d6d53b15d",
        ),
        150,
    ),
    4: (
        (
            "b0667d63583781ec36d37873b30eb17fae3813d407eb6207f0a5e6b0685dc6e8",
            "f9438a472c600f6c0809810d31902bd63d3aed3924429bb5bb1253c47c84ea21",
            None,
        ),
        400,
    ),
}

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--radius", type=int, choices=sorted(EXPECTED), default=3)
radius = parser.parse_args().radius
expected, max_rss_mb = EXPECTED[radius]

fw = simplex_framework(6)
with tempfile.TemporaryDirectory() as tmp:
    pairs_csv = Path(tmp) / "pairs.csv" if expected[2] else None
    cone = expansive_cone(fw, analyze(fw), radius, pairs_csv=pairs_csv)
    csv_digest = hashlib.sha256(pairs_csv.read_bytes()).hexdigest() if pairs_csv else None
digests = (*(hashlib.sha256(m.tobytes()).hexdigest() for m in (cone.halfspace_matrix, cone.rays)), csv_digest)
stable = find_stable_radius(fw, cone, max_radius=6)
# ru_maxrss is in KiB on Linux.
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"d=6 R={radius} halfspaces {digests[0]}\nd=6 R={radius} rays       {digests[1]}")
if csv_digest:
    print(f"d=6 R={radius} pairs CSV  {csv_digest}")
print(f"d=6 R={radius} stable radius {stable}\nd=6 R={radius} peak RSS {peak_mb:.0f} MB")
sys.exit(0 if digests == expected and stable == radius and peak_mb <= max_rss_mb else 1)
