"""Set-up probe: one fresh process from interpreter start to a first correct response.

``run.py`` starts this script several times per run (with BLAS pinned and the
program on ``PYTHONPATH``) and times each from spawn to the ``ready`` line:
interpreter start, ``import repro``, the server built, the first response
back.  The probe input's generation time is reported so the caller can take
it out.  After the ready line the response is checked and the host
fingerprint printed; the exit code is 1 when the answer was wrong.

Usage: ``python3 perfbench/probe.py <workload> <seed>``
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    from workload_suite import WORKLOADS

    workload = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    request = workload.probe_request()
    gen_s = time.perf_counter() - t0
    handle = workload.open()
    response = workload.first(handle, request)
    print(json.dumps({"ready": True, "gen_s": gen_s}), flush=True)

    errors = workload.check_first(request, response)
    workload.close(handle)
    from hostinfo import fingerprint

    print(json.dumps({"errors": errors, "fingerprint": fingerprint()}), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
