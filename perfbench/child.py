"""One round of one workload, in a fresh interpreter started by ``run.py``.

Modes: ``measure`` sets up, makes the timed call and checks it;
``trace`` makes the traced per-layer run and writes its spans.  The last
stdout line is one JSON document with the round's numbers.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--mode", choices=("measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="length of the serve-warm load phase")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", help="span dump of a trace round")
    args = parser.parse_args(argv)
    if "REPRO_FAST" in os.environ:
        parser.error("REPRO_FAST is set: the benchmark measures the default engine")

    # set-up time counts these imports: they load the program
    from workloads import STUDIES, host_fingerprint, peak_rss_mb

    workload = STUDIES[args.workload](args.scale, args.seed, args.work_dir)
    # before set-up, which may pin this process to one CPU
    host = host_fingerprint()
    try:
        workload.setup()
        doc = {"setup_s": time.perf_counter() - STARTED, "host": host}
        if args.mode == "measure":
            outcome = workload.run(args.seconds)
            rss_mb = peak_rss_mb()  # before the checks allocate
            failures = workload.check(outcome)
            doc.update(
                items=outcome.items,
                item_kind=workload.item_kind,
                wall_s=outcome.wall_s,
                cpu_s=outcome.cpu_s,
                latencies_s=outcome.latencies_s,
                extra=outcome.extra,
                peak_rss_mb=rss_mb,
                failed=failures.count(outcome.items),
                failures=failures.messages[:20],
            )
        else:
            doc.update(trace_round(workload, args, doc["host"]))
    finally:
        workload.close()
    print(json.dumps(doc))
    return 0


def trace_round(workload, args, host: dict) -> dict:
    """The traced run: per-layer metrics, the run's checks, a span dump."""
    from ledger import Ledger, trace_serve, trace_sweep
    from workloads import Failures, ServeWarm

    failures = Failures()
    if isinstance(workload, ServeWarm):
        # concurrent client threads: each span takes its own thread's CPU
        ledger = Ledger(cpu_clock=time.thread_time)
        metrics, outcome = trace_serve(workload, ledger, args.seconds, failures)
    else:
        ledger = Ledger()
        metrics, outcome = trace_sweep(workload, ledger, failures)
    failures.merge(workload.check(outcome))
    if args.spans_out:
        ledger.write(Path(args.spans_out), {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "host": host, "metrics": metrics,
        })
    return {
        "items": outcome.items,
        "item_kind": workload.item_kind,
        "layers": metrics,
        "spans": len(ledger.spans),
        "span_counts": dict(Counter(span["name"] for span in ledger.spans)),
        "failed": failures.count(outcome.items),
        "failures": failures.messages[:20],
    }


if __name__ == "__main__":
    sys.exit(main())
