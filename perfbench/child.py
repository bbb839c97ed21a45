"""One pass of one workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE
MODE is ``setup`` (import and build the inputs, then stop), ``plain``
(a timed pass), ``bare`` (a pass without the speed meter, the baseline
of the traced run) or ``traced`` (a bare pass with spans recorded).

The speed meter (``speed.py``) runs from the first line of ``main`` until
the inputs are built, and through the ops of a ``plain`` pass.
``setup_s`` is the CPU time of this process until then (interpreter
start-up, the import of cubestats and input generation) without the
meter's samples, scaled to the reference speed.  The parent also starts
a clock just before starting this process and derives the set-up wall
time from ``ready``.  Nothing before ``ready`` is cached by the pass: the
program's own caches start cold, as they do for each CLI invocation.
"""

import time
import sys

import speed


def main() -> None:
    meter = speed.SpeedMeter()
    meter.start()
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import json
    import os
    import resource

    import numpy as np

    import cubestats
    import tracing
    import workloads

    root = os.getcwd()
    expected = os.path.join(root, "src", "cubestats", "__init__.py")
    if os.path.realpath(cubestats.__file__) != os.path.realpath(expected):
        raise SystemExit(f"cubestats imported from {cubestats.__file__}, not from {expected}")
    tracer = tracing.Tracer()
    if mode == "traced":
        tracing.install(tracer)
    ops = workloads.build(workload, seed)
    meter.sample()
    ready, setup_cpu_s = time.monotonic(), time.process_time() - meter.overhead_s
    setup_s = setup_cpu_s * meter.scale(0)
    if mode != "plain":
        meter.stop()
    if mode == "setup":
        print(json.dumps({"ready": ready, "setup_s": setup_s}))
        return

    workloads.clear_reports(ops)
    tracer.active = mode == "traced"
    latencies, outputs, wall = workloads.run_ops(ops, tracer, meter if mode == "plain" else None)
    tracer.active = False
    meter.stop()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, digests = workloads.check_ops(ops, outputs)

    result = {
        "ready": ready,
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies_s": latencies,
        "kinds": [op.kind for op in ops],
        "failures": failures,
        "digests": digests,
        "rss_kib": rss_kib,
        "numpy": np.__version__,
    }
    if mode == "traced":
        tracing.write_spans(tracer.spans, f"{workloads.OUT_DIR}/spans_{workload}.jsonl")
        result["trace"] = tracing.layer_metrics(tracer.spans, wall, set(failures))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
