"""One benchmark sample: a fresh process that sets up rwspn, runs one CLI
command through ``rwspn.cli.main`` and writes a JSON record.

    python3 perfbench/worker.py --record OUT.json --n N --k K --m M \
        [--trace] -- <rwspn CLI arguments>

The record holds the set-up time (import of rwspn, then ``build_npl_sys``
and ``production_rules``), the wall time of the ``cli.main`` call, the peak
RSS of this process, the exit code and the captured output.  With
``--trace`` it also holds the per-layer metrics of ``spans.Tracer``.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", type=Path, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    import rwspn
    from rwspn import build_npl_sys, production_rules

    build_npl_sys(args.n, args.k, args.m)
    production_rules()
    setup_s = time.perf_counter() - started

    from rwspn import cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    rss_before = _max_rss_kb()
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    wall_s = time.perf_counter() - started
    rss_after = _max_rss_kb()

    record = {
        "module": rwspn.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_after / 1024.0,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s, (rss_after - rss_before) * 1024)
        record["absent"] = tracer.absent
    args.record.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
