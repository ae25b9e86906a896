"""One benchmark operation: one inkrementa CLI command in a fresh process.

    python3 bench/op.py RECORD TRACE -- CLI_ARGS...

Imports the package and runs ``inkrementa.cli.main(CLI_ARGS)``. The CLI's own
``load_config`` call is timed through its binding: set-up, the cost a user
pays on every command, ends when that call returns. RECORD receives the exit
code, the CLOCK_MONOTONIC time at which set-up ended (comparable with the
parent's clock), the incremental stage times the harness measured, and peak
RSS of this process and its children. With TRACE 1 the layer spans are also
written next to RECORD.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    record_path, trace = Path(argv[0]), argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: op.py RECORD TRACE -- CLI_ARGS...")
    cli_args = argv[3:]

    t_import = time.monotonic()
    from inkrementa import cli, harness

    import_s = time.monotonic() - t_import
    setup: dict[str, float] = {}
    stage_seconds: list[float] = []
    load_config, run_scenario = harness.load_config, harness.run_scenario

    def timed_load_config(*args, **kwargs):
        start = time.monotonic()
        config = load_config(*args, **kwargs)
        if not setup:
            setup["t_setup"] = time.monotonic()
            setup["load_config_s"] = setup["t_setup"] - start
        return config

    def timed_run_scenario(*args, **kwargs):
        report = run_scenario(*args, **kwargs)
        stage_seconds.extend(s.wall_clock_seconds for s in report.stage_reports[1:])
        return report

    import spans

    spans.rebind(load_config, timed_load_config)
    spans.rebind(run_scenario, timed_run_scenario)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    code = cli.main(cli_args)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.write(record_path.parent)
    record = {
        "package_file": str(Path(cli.__file__).resolve()),
        "t_setup": setup.get("t_setup"),
        "import_s": import_s,
        "load_config_s": setup.get("load_config_s"),
        "stage_seconds": stage_seconds,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
