"""Start ``repro serve`` with the benchmark's timers installed.

    python3 perfbench/serve_launcher.py --port 0 --backend thread --workers 2

Arguments are those of ``repro serve``.  Before serving, timers are wrapped
around the names where the server looks them up: the protocol functions in
``repro.server.app``, ``Engine.submit``, ``generate_instance`` in
``repro.server.protocol`` and ``cheap_matching`` in each solver module that
calls it.  ``GET /metrics`` then carries a ``bench_trace`` section with every
timer's calls and seconds.  The wrappers are removed when the server stops.
"""

from __future__ import annotations

import sys

from common import use_source_tree
from tracing import CallTimer, installed


def main(argv: list[str]) -> int:
    use_source_tree()
    import repro.core.ghkdw as ghkdw
    import repro.core.gpr as gpr
    import repro.server.app as app
    import repro.server.protocol as protocol
    import repro.seq.hopcroft_karp as hopcroft_karp
    import repro.seq.push_relabel as push_relabel
    from repro.cli import main as cli_main
    from repro.engine.engine import Engine

    timers = {
        name: CallTimer()
        for name in ("parse_request", "build_job", "handle_row", "result_row", "submit",
                     "generate_instance", "cheap_matching")
    }
    patches = [
        (app, "parse_request", timers["parse_request"]),
        (app, "build_job", timers["build_job"]),
        (app, "handle_row", timers["handle_row"]),
        (app, "result_row", timers["result_row"]),
        (Engine, "submit", timers["submit"]),
        (protocol, "generate_instance", timers["generate_instance"]),
        *[(module, "cheap_matching", timers["cheap_matching"])
          for module in (gpr, ghkdw, hopcroft_karp, push_relabel)],
    ]
    snapshot = app.MatchingServer.metrics_snapshot

    def metrics_with_trace(server) -> dict:
        doc = snapshot(server)
        doc["bench_trace"] = {
            name: {"calls": timer.calls, "seconds": timer.seconds}
            for name, timer in timers.items()
        }
        return doc

    with installed(patches):
        app.MatchingServer.metrics_snapshot = metrics_with_trace
        try:
            return cli_main(["serve", *argv])
        finally:
            app.MatchingServer.metrics_snapshot = snapshot


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
