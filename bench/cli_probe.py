"""`python -m heisgeo.cli` with timing, for the traced cli-cold run.

    HEISBENCH_PROBE_OUT=probe.json python3 bench/cli_probe.py ball --n 1 --k 5 --out x

Times `import heisgeo.cli`, notes whether scipy.optimize is loaded right
after `import heisgeo`, wraps the layers with the tracer, runs
`heisgeo.cli.main` on the arguments and writes the timings and the span
summary to $HEISBENCH_PROBE_OUT.  Exit code and artifact are main's own.
"""

from __future__ import annotations

import json
import os
import sys
import time

from worker import import_heisgeo


def main() -> int:
    import_s, scipy_loaded = import_heisgeo()
    t0 = time.perf_counter()
    import heisgeo.cli

    import_s += time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = heisgeo.cli.main(sys.argv[1:])
    main_s = time.perf_counter() - t0
    with open(os.environ["HEISBENCH_PROBE_OUT"], "w") as fh:
        json.dump({"import_s": import_s, "scipy_at_import": scipy_loaded,
                   "main_s": main_s, "trace": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
