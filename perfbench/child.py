"""Fresh-interpreter helpers started by run.py; not meant to be run by hand.

    child.py setup WORKLOAD SEED WORK_DIR   import, draw inputs, build fields; print "ready"
    child.py import                         print the ms `import jetflow.cli` takes
    child.py cli TRACE_OUT ARGV...          run the jetflow CLI traced; totals go to TRACE_OUT
"""

import json
import sys
import time


def main(argv):
    mode = argv[0]
    if mode == "import":
        start = time.perf_counter()
        import jetflow.cli  # noqa: F401
        print((time.perf_counter() - start) * 1e3)
        return 0
    if mode == "setup":
        workload, seed, work_dir = argv[1], int(argv[2]), argv[3]
        if workload == "cli-cold":
            import jetflow.cli  # noqa: F401
        import workloads
        workloads.draw(workload, seed, work_dir)
        print("ready", flush=True)
        return 0
    if mode == "cli":
        out_path = argv[1]
        import jetflow.cli
        import tracer
        sys.argv = ["jetflow", *argv[2:]]
        code = 0
        with tracer.Tracer() as rec:
            try:
                jetflow.cli.main()
            except SystemExit as exc:
                code = exc.code
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.snapshot(), fh)
        return code
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
