"""One invocation of sparselms in a fresh process, timed from the inside.

Usage::

    python3 child.py RESULT_JSON TRACE cli ARGS...     # sparselms command line
    python3 child.py RESULT_JSON TRACE online INPUTS   # step() over INPUTS (.npz)

``TRACE`` is 0 or 1. The parent puts the checkout's ``src`` first on
``PYTHONPATH``. The child records when ``import sparselms`` finished and
when set-up ended (the first ``run_experiment`` call, or the first
``step`` call), writes RESULT_JSON after the work and exits with the
program's exit code. With TRACE=1 it also wraps each layer's public
functions and writes the spans.
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos] if len(args) > pos else None


def _variant_label(args, kwargs):
    cfg = _arg(args, kwargs, 3, "cfg")
    return getattr(getattr(cfg, "variant", None), "value", "unknown")


def _iterations(args, kwargs, _result):
    return int(_arg(args, kwargs, 4, "iterations") or 0)


def _array_size(_args, _kwargs, result):
    return int(getattr(result, "size", 0))


def _file_size(args, kwargs, result):
    path = result if isinstance(result, (str, os.PathLike)) else _arg(args, kwargs, 1, "out")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install_tracer(tracer):
    """Wrap each layer's functions at the names their callers look up."""
    cli, experiment = "sparselms.cli", "sparselms.experiment"
    tracer.patch(cli, "parse_config", "cli.parse_config")
    tracer.patch(cli, "run_experiment", "cli.run_experiment")
    tracer.patch(cli, "steady_state", "cli.steady_state")
    tracer.patch(cli, "emit_csv", "cli.emit_csv", count=_file_size)
    tracer.patch(cli, "emit_plot", "cli.emit_plot", count=_file_size)
    tracer.patch(experiment, "run_cell", "experiment.run_cell")
    tracer.patch(experiment, "run_trial", "experiment.run_trial",
                 label=_variant_label, count=_iterations)
    tracer.patch(experiment, "RngStream", "signal_gen.RngStream")
    generators = [n for n in dir(sys.modules.get(experiment)) if n.startswith("gen_")]
    for name in generators:
        tracer.patch(experiment, name, f"signal_gen.{name}", count=_array_size)
    if not generators:
        tracer.targets[f"{experiment}.gen_*"] = {"span": "signal_gen.gen_*", "status": "absent"}
    tracer.patch("sparselms.filter_core", "step", "filter_core.step")


def run_cli(argv, marks):
    from sparselms import cli

    run_experiment = getattr(cli, "run_experiment", None)
    if run_experiment is not None:
        def first_cell_marker(*args, **kwargs):
            marks.setdefault("setup_end", time.monotonic_ns())
            return run_experiment(*args, **kwargs)

        cli.run_experiment = first_cell_marker
    code = cli.main(argv)
    return code, {}


def run_online(inputs, marks):
    import numpy as np
    from sparselms import AlgorithmConfig, FilterState, Variant, filter_core

    data = np.load(inputs)
    regressors, desired = data["regressors"], data["desired"]
    step = filter_core.step
    clock = time.perf_counter_ns
    n_steps = desired.shape[0]
    step_ns = []
    outputs = {}
    marks["setup_end"] = time.monotonic_ns()
    for variant in Variant:
        cfg = AlgorithmConfig(variant, mu=0.015, gamma=0.005, rho_pl=0.003,
                              epsilon_pl=10.0, p=0.5)
        state = FilterState.zeros(regressors.shape[1])
        errors = [0.0] * n_steps
        for k in range(n_steps):
            x, d = regressors[k], desired[k]
            t0 = clock()
            state, e = step(state, x, d, cfg)
            step_ns.append(clock() - t0)
            errors[k] = e
        outputs[variant.value] = {"weights": state.weights.tolist(), "errors": errors}
    return 0, {"variants": outputs, "step_ns": step_ns}


def environment(sparselms):
    kernels = sys.modules.get("sparselms._kernels")
    resolve = getattr(kernels, "default_backend", None)
    try:
        backend = str(resolve()) if resolve else "n/a"
    except Exception as err:  # a probe only: report, never fail the run
        backend = f"error: {err}"
    versions = {}
    for name in ("numpy", "scipy"):
        mod = sys.modules.get(name)
        versions[name] = getattr(mod, "__version__", None) if mod else "not imported"
    return {"sparselms_file": sparselms.__file__, "backend": backend, **versions}


def peak_rss_kb():
    """High-water resident memory of this process image, in KiB, or None.

    ``ru_maxrss`` would not do: at exec the kernel carries over the
    high-water mark of the parent's pages, so it never reads below the
    parent's resident size. ``VmHWM`` counts this image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    result_path, trace, mode, rest = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    marks = {}
    import sparselms

    t_import = time.monotonic_ns()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        install_tracer(tracer)
    if mode == "cli":
        code, outputs = run_cli(rest, marks)
    else:
        code, outputs = run_online(rest[0], marks)
    t_end = time.monotonic_ns()
    result = {
        "t_start": T_START,
        "t_import": t_import,
        "setup_end": marks.get("setup_end"),
        "t_end": t_end,
        "exit_code": code,
        "peak_rss_kb": peak_rss_kb(),
        "env": environment(sparselms),
        "outputs": outputs,
    }
    if tracer:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
