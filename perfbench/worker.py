"""Runs releases and nothing else, so its memory high-water mark is theirs.

Started by run.py with the workload's files already written. Releases run
one at a time (closed loop, one client) by calling ``dpsketch.cli.main``
in-process. Each release writes its report, and for ``lra`` its factor
files, under its own name; run.py checks them after this process exits.
The last line of stdout is a JSON summary.

A machine-speed probe (probe.py) runs before the first release and after
each one. With ``--trace 1`` untraced and traced releases alternate, so
the trace overhead is the ratio of their median times within one process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

MIN_RELEASES = 3


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--argv", required=True, help="JSON list: CLI arguments, {report} marks the report path")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from dpsketch import cli
    from probe import Prober

    template = json.loads(args.argv)
    tracer = None
    if args.trace:
        from spans import Tracer, median_summary

        tracer = Tracer()

    def release(i: int, traced: bool) -> dict:
        report = os.path.join(args.workdir, f"release-{i}.json")
        argv = [report if a == "{report}" else a for a in template]
        rec = {"report": report, "traced": traced, "exit": None, "error": None}
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.release_id = i
                with tracer.installed():
                    rec["exit"] = tracer.wrap("release", cli.main)(argv)
            else:
                rec["exit"] = cli.main(argv)
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
        rec["seconds"] = time.perf_counter() - t0
        return rec

    with Prober() as probe:
        # Warm-up: imports, page cache and allocator pools settle before timing.
        probe()
        release(-1, False)
        records, probes = [], [probe()]
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(records) < MIN_RELEASES * (1 + args.trace)):
            i = len(records)
            records.append(release(i, traced=bool(args.trace) and i % 2 == 1))
            probes.append(probe())
    out = {
        "releases": records,
        "probes": probes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summaries = [tracer.release_summary(i) for i, r in enumerate(records) if r["traced"]]
        out["layers"] = median_summary(summaries)
        if args.trace_out:
            tracer.dump(args.trace_out, {"releases": records})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
