"""Start ``repro serve``, optionally with layer tracing.

Usage: ``python daemon.py [--trace-dir DIR [--profile]] -- <repro serve arguments>``

Untraced, this is exactly ``python -m repro serve ...``.  With
``--trace-dir`` the daemon records layer spans (store writes, result
digests) and every forked job worker records its own spans.  With
``--profile`` the daemon and every job worker also run under cProfile.
Each process writes its files into ``DIR`` when it ends.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from pathlib import Path

from tracing import SpanRecorder


def _traced_job_worker(original, trace_dir: Path, recorder: SpanRecorder,
                       daemon_profiler: cProfile.Profile | None):
    def job_worker(spec_payload, *args):
        recorder.reset(process="job-worker")
        recorder.request = "{config}/{benchmark}/seed{seed}".format(
            config=spec_payload.get("config"),
            benchmark=spec_payload.get("benchmark"),
            seed=spec_payload.get("seed"),
        )
        stem = trace_dir / f"worker-{os.getpid()}"
        try:
            if daemon_profiler is not None:
                # The fork inherited the daemon's running profiler: stop
                # that copy and profile this worker on its own.
                daemon_profiler.disable()
                profiler = cProfile.Profile()
                try:
                    with profiler:
                        original(spec_payload, *args)
                finally:
                    profiler.dump_stats(stem.with_suffix(".prof"))
            else:
                original(spec_payload, *args)
        finally:
            recorder.dump(stem.with_suffix(".spans.json"))

    return job_worker


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--profile", action="store_true",
                        help="also run cProfile in the daemon and every job worker")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.arch import load_plugins
    from repro.cli import main as repro_main

    load_plugins()
    if args.trace_dir is None:
        return repro_main(["serve", *serve_args])

    import repro.service.scheduler as scheduler

    recorder = SpanRecorder("daemon")
    recorder.install(label=lambda config, benchmark, seed: f"{benchmark}/seed{seed}")
    profiler = cProfile.Profile() if args.profile else None
    scheduler._job_worker = _traced_job_worker(
        scheduler._job_worker, args.trace_dir, recorder, profiler
    )
    stem = args.trace_dir / f"daemon-{os.getpid()}"
    try:
        if profiler is None:
            return repro_main(["serve", *serve_args])
        with profiler:
            return repro_main(["serve", *serve_args])
    finally:
        if profiler is not None:
            profiler.dump_stats(stem.with_suffix(".prof"))
        recorder.dump(stem.with_suffix(".spans.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
