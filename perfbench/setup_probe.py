"""One set-up of a workload in a fresh interpreter: import bifair, load files.

Usage: python3 setup_probe.py SRC_DIR MANIFEST. MANIFEST lists one instance
file per line. Prints the seconds that the import and the loads took.
"""

import sys
import time

src, manifest = sys.argv[1], sys.argv[2]
with open(manifest, encoding="utf-8") as handle:
    files = handle.read().split("\n")
sys.path.insert(0, src)

start = time.perf_counter()
import bifair.io  # noqa: E402  (the import is what is timed)

for path in files:
    bifair.io.load_instance(path)
print(time.perf_counter() - start)
