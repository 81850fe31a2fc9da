"""One benchmark child: import the package, then one CLI dispatch in-process.

    python3 perfbench/child.py RESULT_JSON TRACE CLI_ARG...

The package is imported from the checkout's src/.  RESULT_JSON receives the
time.monotonic() reading when the import finished (the parent spawned the
process at a reading of the same clock), the import and dispatch durations,
the dispatch exit code, the peak RSS, the library versions and, when TRACE
is 1, the layer spans.  The process exits with the dispatch exit code.
Output checks are made by the parent, after this process has exited.
"""

import os
import sys
import time


def main(result_path, trace, argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    sys.path.insert(0, src)
    start = time.monotonic()
    import levyheat.cli
    imported = time.monotonic()

    import functools
    import json
    import resource

    import numpy
    import scipy

    origin = os.path.abspath(levyheat.cli.__file__)
    if not origin.startswith(src + os.sep):
        print(f"levyheat imported from {origin}, not from {src}", file=sys.stderr)
        return 4
    dispatch = levyheat.cli.parse_and_dispatch
    tracer = None
    if trace:
        import spans
        tracer = spans.install()
        dispatch = functools.partial(tracer.call, spans.ROOT_SPAN, "cli", None,
                                     dispatch)
    begin = time.monotonic()
    code = dispatch(argv)
    run_s = time.monotonic() - begin
    result = {
        "imported_at": imported,
        "import_s": imported - start,
        "run_s": run_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result.update(spans=tracer.spans, missing=tracer.missing,
                      uncounted=sorted(tracer.uncounted))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
