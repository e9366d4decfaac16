"""Fresh-interpreter probe, started by run.py with PYTHONPATH set to src.

    python3 perfbench/child.py setup CONFIG_JSON
        times `import trotter_shuffle` plus building and validating the config.
    python3 perfbench/child.py rss CONFIG_JSON
        runs and emits the config once and reports the process's peak RSS.

Prints one JSON object: {"setup_s": ...} or {"peak_rss_mb": ...}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    mode, doc = sys.argv[1], json.loads(sys.argv[2])
    from trotter_shuffle import experiments
    cfg = experiments.ExperimentConfig.from_dict(doc)
    if mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return
    experiments.emit(experiments.run(cfg), cfg.out_path)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"peak_rss_mb": kib / 1024.0}))


if __name__ == "__main__":
    main()
