"""Runs one `disemi` command the way `python3 -m disemi.cli` does, while
sampling machine speed, and with the layer wrappers under --trace.

Usage: python3 perfbench/child.py [--trace] ARGS...   (ARGS as for `disemi`)

The command's own output goes to stdout unchanged and its exit code is
returned.  Afterwards one line starting with REPORT_MARKER goes to
stderr for the parent benchmark process: the speed summary ("speed", see
probe.py), the wall-clock time at which `import disemi.cli` had finished
("import_done"), the peak resident set in MB ("maxrss_mb"), and under
--trace the layer totals.
"""

import json
import resource
import sys
import time

import probe

REPORT_MARKER = "PERFBENCH-REPORT "


def main(argv):
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    with probe.Sampler() as sampler:
        import disemi.cli
        import_done = time.time()
        report = {}
        if traced:
            import layers
            tracer = layers.Tracer()
            restore = layers.install(tracer, sys.modules["disemi"])
        try:
            code = disemi.cli.main(argv)
        finally:
            if traced:
                restore()
                report = tracer.totals()
    sys.stdout.flush()
    report["import_done"] = import_done
    report["speed"] = sampler.summary()
    report["maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stderr.write(REPORT_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
