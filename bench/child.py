"""Fresh-interpreter helpers started by run.py.

    python3 bench/child.py setup WORKLOAD
        Import kkcliques, do the workload's lazy first-use set-up, and print
        the seconds that took (interpreter start-up itself is not counted).

    python3 bench/child.py cli SPANS_FILE ARG...
        The traced equivalent of `python -m kkcliques.cli ARG...`: times the
        import of kkcliques.cli, wraps the layers, runs cli.main and writes the
        spans to SPANS_FILE before exiting with main's status.  Exceptions and
        argparse exits propagate exactly as they would under `-m`.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup(workload: str) -> None:
    import workloads  # the benchmark's own module; its import is not the program's set-up
    t0 = perf_counter()
    if workload == "cli_process":
        import kkcliques.cli
        kkcliques.cli.build_parser()
    else:
        workloads.WORKLOADS[workload].setup()
    print(perf_counter() - t0)


def traced_cli(spans_file: str, argv: list[str]) -> None:
    t0 = perf_counter()
    import kkcliques.cli
    startup = perf_counter() - t0

    import tracer
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        code = kkcliques.cli.main(argv)
    finally:
        Path(spans_file).write_text(json.dumps({"startup_s": startup, **tr.dump()}))
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        traced_cli(sys.argv[2], sys.argv[3:])
