"""Child process of the benchmark: one CLI call or one fock-large library job.

Usage:
    python launch.py STAMP TRACE cli ARGS...
    python launch.py STAMP TRACE fock INPUTS RESULTS

A CLI call runs the way the installed ``usdsim`` console script does: import
``usdsim.cli``, then exit with ``main(ARGS)``.  Right after that import the
process writes ``time.perf_counter()`` to STAMP; the clock is system-wide
monotonic, so the parent subtracts its own spawn time to get the set-up time.
TRACE is ``-`` for an untraced run, or the path that receives the spans.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, kind, *rest = sys.argv[1:]
    import usdsim.cli

    imported = time.perf_counter()
    with open(stamp_path, "w") as fh:
        fh.write(repr(imported))

    tracer = None
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if kind == "cli":
            return usdsim.cli.main(rest)
        import fock

        return fock.run(rest[0], rest[1], tracer)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
