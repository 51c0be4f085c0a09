"""Write bench/reference.json: the values no cheap independent oracle gives.

    python3 bench/record_reference.py

Records, from the program as it stands, the Folner ratios, the doubling
table, the t-boundary and sphere counts the workloads check against, and
the SHA-256 of every cli-cold artifact.  Run it only to (re)define the
benchmark's reference: the recorded values are what later versions of the
program are checked against, so re-recording after a change would hide
that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

from worker import HERE, SRC, import_heisgeo

CLI_SWEEP = [
    ["ball", "--n", "1", "--k", "40"],
    ["ball", "--n", "2", "--k", "8", "--format", "json"],
    ["folner", "--n", "1", "--k", "40", "--sigma", "e1"],
    ["folner", "--n", "1", "--k-max", "20", "--sigma", "e1,ie1^-1", "--format", "json"],
    ["height", "--chi", "1", "--eps", "1/2", "--delta", "1/2", "--kappa", "2"],
    ["height", "--chi", "2", "--eps", "1/3", "--delta", "1/2", "--kappa", "1", "--format", "json"],
    ["boundary", "--n", "1", "--k", "6", "--t", "1"],
    ["boundary", "--n", "1", "--k", "8", "--t", "1/2", "--format", "json"],
    ["doubling", "--n", "1", "--k-max", "8"],
    ["doubling", "--n", "2", "--k-max", "3", "--format", "json"],
    ["ergodic", "--m", "3", "--k", "10"],
    ["ergodic", "--m", "3", "--masses", "linear", "--k-max", "6", "--format", "json"],
    ["maximal", "--trials", "3", "--seed", "1"],
    ["maximal", "--m", "2", "--trials", "2", "--seed", "2", "--format", "json"],
    ["bcp", "--trials", "10", "--seed", "1"],
    ["bcp", "--trials", "10", "--seed", "2", "--format", "json"],
    ["lss", "--trials", "20", "--seed", "1"],
    ["lss", "--trials", "20", "--seed", "2", "--eps", "1/3"],
    ["intersect", "--trials", "30", "--workers", "1", "--seed", "1"],
    ["intersect", "--trials", "30", "--workers", "1", "--seed", "2"],
]


def main() -> int:
    import_heisgeo()
    from fractions import Fraction

    from heisgeo import balls, generator
    from workloads import BAND_CASES

    folner = {f"{n},{k}": str(balls.folner_ratio(n, k, generator(n, 0)))
              for n, k_max in ((1, 40), (2, 10)) for k in range(1, k_max + 1)}
    doubling = [[r.k, r.card, r.card_sq] for r in balls.doubling_table(1, 12)]
    t_boundary = {f"{k},{t}": balls.t_boundary_count(1, k, t) for k, t in BAND_CASES}
    sphere = {str(k): balls.sphere_cardinality(1, k) for k in range(1, 31)}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    sweep = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CLI_SWEEP:
            out = os.path.join(tmp, "artifact")
            subprocess.run([sys.executable, "-m", "heisgeo.cli", *argv, "--out", out],
                           env=env, check=True)
            with open(out, "rb") as fh:
                sweep.append({"argv": argv, "sha256": hashlib.sha256(fh.read()).hexdigest()})
    doc = {
        "lattice-exact": {"folner": folner, "doubling": doubling},
        "sphere-band": {"t_boundary": t_boundary, "sphere": sphere},
        "cli-cold": sweep,
    }
    assert Fraction(folner["1,40"]) == Fraction(413642, 10720673)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
