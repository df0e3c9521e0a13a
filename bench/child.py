"""One fresh benchmark process: set-up timing or one CLI invocation.

Usage: python3 child.py SPEC.json

The spec names the source tree, the mode and where to write the result:

- ``setup``: time ``import einbern`` plus loading and validating the
  listed configs, as a user's process pays it (CPU time of the thread
  that does it);
- ``run``: call ``einbern.cli.main(argv)`` once and time it, as wall time
  and as CPU time of this process (all its threads), optionally with
  layer spans (``trace``), which are written to ``spans``.

CPU times come from ``time.process_time``/``time.thread_time``; the
kernel leaves out time the host takes the virtual CPU away, so they grow
far less with the host's load than wall time does.

The CLI's stdout goes to this process's stdout; the result JSON goes to
``result`` so the two never mix.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    result = {}
    if spec["mode"] == "setup":
        # this thread's CPU time: numpy's import starts BLAS threads whose
        # start-up spinning is no work of the set-up and varies from run to run
        cpu_start = time.thread_time()
        import einbern
        from einbern import config

        for kind, path in spec["configs"]:
            loader = config.load_model if kind == "model" else config.load_experiment
            loader(path)
        result["setup_s"] = time.thread_time() - cpu_start
    else:
        import einbern
        from einbern import cli

        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        result["rc"] = cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spec["spans"])
    module_dir = os.path.dirname(os.path.abspath(einbern.__file__))
    if module_dir != os.path.join(os.path.abspath(src), "einbern"):
        print(f"einbern imported from {module_dir}, not {src}", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
