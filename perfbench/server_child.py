"""Server child for the service-mix workload.

``python3 perfbench/server_child.py <store dir> <stats file> <trace 0|1>``
boots ``repro serve``'s server on an ephemeral port, prints its URL on one
line and serves until a line (or end of file) arrives on standard input.
It then drains the server and writes its peak RSS, and in the traced run
its spans, to the stats file.  The tracing wrappers are installed here,
before ``create_server`` is called, so the server runs on wrapped classes.
"""

import json
import resource
import sys

from spec import require_source


def main(store_dir: str, stats_path: str, trace: bool) -> int:
    require_source()
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    from repro.service.server import create_server

    server = create_server(store_dir=store_dir, workers=1)
    server.start_background()
    print(server.url, flush=True)  # noqa: T201 - the parent reads this line
    try:
        sys.stdin.readline()
    finally:
        server.close()
        stats = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if recorder is not None:
            stats["trace"] = recorder.export()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
