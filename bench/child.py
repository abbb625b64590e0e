"""One benchmark child process: import the cmcflat CLI, then time ``cli.main``.

    python bench/child.py SRC TIMING_JSON probe
    python bench/child.py SRC TIMING_JSON run -- CLI_ARGS...
    python bench/child.py SRC TIMING_JSON trace SPANS_CSV RUN_ID -- CLI_ARGS...

``probe`` stops at the entry into ``cli.main`` and records the machine facts.
``run`` calls ``cli.main`` once; ``trace`` does the same with the layer
functions wrapped (see ``layers.py``) and writes the spans to SPANS_CSV.
TIMING_JSON receives monotonic-clock timestamps that the parent compares with
its own launch time; it is never written inside the CLI's ``--out``.
"""
import json
import os
import sys
import time


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caps = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_caps": caps,
    }


def main(argv) -> int:
    src, timing_path, mode = argv[:3]
    sys.path.insert(0, src)
    from cmcflat import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"cmcflat imported from {cli.__file__}, not from {src}")
    record = {}
    if mode == "probe":
        record["entry"] = time.monotonic()
        record["facts"] = machine_facts()
        code = 0
    else:
        tracer = None
        cli_args = argv[argv.index("--") + 1:]
        if mode == "trace":
            import layers
            import spantrace

            spans_path, run_id = argv[3:5]
            tracer = spantrace.Tracer(run_id)
            layers.install(tracer)
        record["entry"] = time.monotonic()
        try:
            code = cli.main(cli_args)
        finally:
            record["exit"] = time.monotonic()
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            spantrace.write_spans(spans_path, tracer.run_id, tracer.spans)
            record["quantities"] = dict(tracer.quantities)
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
