"""In-process traced passes: spans around every layer of talbotsim.

Spans are recorded from this file only.  While a traced pass runs, each
public function of each layer module is rebound, wherever a talbotsim
module holds it (including names imported into other modules), to a
wrapper that records a span (name, start, end, parent).
``ModeField.evaluate`` is rebound on the class, and ``numpy.fft``
transforms and ``numpy.linalg.lstsq`` are rebound on numpy, counting only
calls made from talbotsim.  Every binding is restored when the pass ends.

Run as a script, it takes a plan file (see ``main``) and alternates
untraced and traced passes of the plan's commands until its time is up,
then writes a summary file for run.py to read.
"""

import collections
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from fractions import Fraction

import click
import numpy as np

LAYERS = ("gauss", "gates", "programs", "grating", "propagation", "carpet",
          "fidelity", "photonpair", "serialize", "verify", "measure")
FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Work counted at span boundaries, computed from call arguments (or, for
# carpet rows and verify checks, from the result) into a Counter.
def _evaluate_counts(args, kwargs, result, counters):
    field, x = args[0], _arg(args, kwargs, 1, "x")
    points, modes = np.size(x), 2 * field.truncation + 1
    counters["grating.evaluate.points"] += points
    counters["grating.evaluate.ops"] += points * modes
    dense = points * modes * 16
    counters["grating.evaluate.peak_bytes"] = max(counters["grating.evaluate.peak_bytes"], dense)


def _paraxial_counts(args, kwargs, result, counters):
    if isinstance(_arg(args, kwargs, 1, "zeta"), Fraction):
        counters["propagation.paraxial.exact"] += 1


def _angular_counts(args, kwargs, result, counters):
    counters["propagation.angular_spectrum.samples"] += np.size(args[0].amplitudes)


def _fft_counts(args, kwargs, result, counters):
    counters["fft.points"] += np.size(_arg(args, kwargs, 0, "a"))


def _carpet_counts(args, kwargs, result, counters):
    counters["carpet.rows"] += len(result.zeta)


def _talbot_counts(args, kwargs, result, counters):
    D, q = _arg(args, kwargs, 0, "D"), _arg(args, kwargs, 1, "q", 1)
    cycle = 2 * D if D % 2 == 0 else D
    counters["gates.talbot_unitary.ops"] += (q % cycle) * D * D


def _mode_map_counts(args, kwargs, result, counters):
    counters["photonpair.apply_mode_map.ops"] += 3 * (2 * args[0].dim) ** 3


def _bytes_counts(args, kwargs, result, counters):
    counters["serialize.bytes_out"] += len(result)


def _pgm_counts(args, kwargs, result, counters):
    height, width = _arg(args, kwargs, 1, "intensity").shape
    counters["serialize.bytes_out"] += len(f"P5\n{width} {height}\n255\n") + width * height


def _verify_counts(args, kwargs, result, counters):
    counters["verify.checks"] += len(result["checks"])
    counters["verify.checks_failed"] += sum(not c["passed"] for c in result["checks"])


COUNTS = {
    "grating.evaluate": _evaluate_counts,
    "propagation.propagate_paraxial": _paraxial_counts,
    "propagation.propagate_angular_spectrum": _angular_counts,
    "carpet.render_carpet": _carpet_counts,
    "carpet.render_program_carpet": _carpet_counts,
    "gates.talbot_unitary": _talbot_counts,
    "photonpair.apply_mode_map": _mode_map_counts,
    "serialize.dumps": _bytes_counts,
    "serialize.format_csv": _bytes_counts,
    "serialize.write_pgm": _pgm_counts,
    "verify.run_suite": _verify_counts,
    **{f"fft.{name}": _fft_counts for name in FFT_TRANSFORMS},
}


# Per-layer metrics of one traced pass: (name, unit, better).
PER_LAYER = [
    ("import.numpy_s", "s", "lower"),
    ("import.talbotsim_s", "s", "lower"),
    ("grating.self_s", "s", "lower"),
    ("grating.evaluate.calls", "count", "lower"),
    ("grating.evaluate.points", "count", "lower"),
    ("grating.evaluate.ops", "ops", "lower"),
    ("grating.evaluate.peak_bytes", "bytes", "lower"),
    ("propagation.self_s", "s", "lower"),
    ("propagation.paraxial.calls", "count", "lower"),
    ("propagation.paraxial.exact_share", "ratio", "higher"),
    ("propagation.angular_spectrum.calls", "count", "lower"),
    ("propagation.angular_spectrum.samples", "count", "lower"),
    ("propagation.crosscheck.calls", "count", "lower"),
    ("fft.self_s", "s", "lower"),
    ("fft.calls", "count", "lower"),
    ("fft.points", "count", "lower"),
    ("projection.self_s", "s", "lower"),
    ("projection.calls", "count", "lower"),
    ("carpet.self_s", "s", "lower"),
    ("carpet.rows", "count", "lower"),
    ("carpet.detect_revivals.self_s", "s", "lower"),
    ("fidelity.self_s", "s", "lower"),
    ("fidelity.revival_fidelity.calls", "count", "lower"),
    ("gauss.self_s", "s", "lower"),
    ("gauss.calls", "count", "lower"),
    ("gates.self_s", "s", "lower"),
    ("gates.talbot_unitary.calls", "count", "lower"),
    ("gates.talbot_unitary.ops", "ops", "lower"),
    ("programs.self_s", "s", "lower"),
    ("programs.compile_program.calls", "count", "lower"),
    ("photonpair.self_s", "s", "lower"),
    ("photonpair.build_cz.calls", "count", "lower"),
    ("photonpair.apply_mode_map.calls", "count", "lower"),
    ("photonpair.apply_mode_map.ops", "ops", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.matrix_to_json.self_s", "s", "lower"),
    ("serialize.format_csv.self_s", "s", "lower"),
    ("serialize.write_pgm.self_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("measure.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
# Layers whose self times, with cli.self_s, partition a traced pass.
SPAN_LAYERS = (*LAYERS, "fft", "projection")


class Tracer:
    """Spans and counters of traced passes, kept in memory.

    A span is [name, start, end, parent index or -1].  ``installed()``
    rebinds the layer functions for the duration of a block; ``reset()``
    clears what one pass recorded.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.calls = collections.Counter()
        self.counters = collections.Counter()
        self._stack = []

    def _wrap(self, name, function, package_only=False):
        count = COUNTS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if package_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("talbotsim"):
                return function(*args, **kwargs)
            spans, stack = self.spans, self._stack
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.calls[name] += 1
            if count is not None:
                count(args, kwargs, result, self.counters)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer function while the block runs, then restore."""
        from talbotsim.grating import ModeField

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"talbotsim.{layer}")
            for attribute in module.__all__:
                function = getattr(module, attribute)
                if inspect.isfunction(function) and function.__module__ == module.__name__:
                    wrappers[id(function)] = self._wrap(f"{layer}.{attribute}", function)
        bindings = [
            (module, attribute, wrappers[id(value)])
            for name, module in list(sys.modules.items())
            if name == "talbotsim" or name.startswith("talbotsim.")
            for attribute, value in vars(module).items()
            if id(value) in wrappers
        ]
        bindings.append((ModeField, "evaluate",
                         self._wrap("grating.evaluate", ModeField.evaluate)))
        bindings += [
            (np.fft, name, self._wrap(f"fft.{name}", getattr(np.fft, name), package_only=True))
            for name in FFT_TRANSFORMS
        ]
        bindings.append((np.linalg, "lstsq", self._wrap(
            "projection.lstsq", np.linalg.lstsq, package_only=True)))
        originals = [(owner, attribute, getattr(owner, attribute))
                     for owner, attribute, _ in bindings]
        try:
            for owner, attribute, wrapper in bindings:
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)

    def self_times(self) -> dict:
        """Self time by span name: duration minus the children's durations."""
        out = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def pass_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the pass just traced, which took `wall` seconds."""
        own = self.self_times()
        layer_self = collections.defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        calls, counters = self.calls, self.counters
        paraxial = calls["propagation.propagate_paraxial"]
        metrics = {f"{layer}.self_s": layer_self[layer] for layer in SPAN_LAYERS}
        metrics.update({
            "grating.evaluate.calls": calls["grating.evaluate"],
            "grating.evaluate.points": counters["grating.evaluate.points"],
            "grating.evaluate.ops": counters["grating.evaluate.ops"],
            "grating.evaluate.peak_bytes": counters["grating.evaluate.peak_bytes"],
            "propagation.paraxial.calls": paraxial,
            "propagation.paraxial.exact_share":
                counters["propagation.paraxial.exact"] / paraxial if paraxial else 0.0,
            "propagation.angular_spectrum.calls":
                calls["propagation.propagate_angular_spectrum"],
            "propagation.angular_spectrum.samples":
                counters["propagation.angular_spectrum.samples"],
            "propagation.crosscheck.calls": calls["propagation.gate_crosscheck"],
            "fft.calls": sum(calls[f"fft.{name}"] for name in FFT_TRANSFORMS),
            "fft.points": counters["fft.points"],
            "projection.calls": calls["projection.lstsq"],
            "carpet.rows": counters["carpet.rows"],
            "carpet.detect_revivals.self_s": own["carpet.detect_revivals"],
            "fidelity.revival_fidelity.calls": calls["fidelity.revival_fidelity"],
            "gauss.calls": sum(n for name, n in calls.items() if name.startswith("gauss.")),
            "gates.talbot_unitary.calls": calls["gates.talbot_unitary"],
            "gates.talbot_unitary.ops": counters["gates.talbot_unitary.ops"],
            "programs.compile_program.calls": calls["programs.compile_program"],
            "photonpair.build_cz.calls": calls["photonpair.build_cz"],
            "photonpair.apply_mode_map.calls": calls["photonpair.apply_mode_map"],
            "photonpair.apply_mode_map.ops": counters["photonpair.apply_mode_map.ops"],
            "serialize.dumps.self_s": own["serialize.dumps"],
            "serialize.matrix_to_json.self_s": own["serialize.matrix_to_json"],
            "serialize.format_csv.self_s": own["serialize.format_csv"],
            "serialize.write_pgm.self_s": own["serialize.write_pgm"],
            "serialize.bytes_out": counters["serialize.bytes_out"],
            "verify.checks": counters["verify.checks"],
            "verify.checks_failed": counters["verify.checks_failed"],
            "cli.self_s": wall - sum(end - start for _, start, end, parent in self.spans
                                     if parent < 0),
        })
        return metrics


def output_digests(workdir, stdouts) -> dict:
    """SHA-256 of every file in workdir and of each command's stdout."""
    digests = {f"stdout[{i}]": hashlib.sha256(text.encode()).hexdigest()
               for i, text in enumerate(stdouts)}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def run_pass(commands, tracer=None):
    """Run one pass in this process, in the current directory.

    Returns (wall seconds, exit codes, stdouts).  With a tracer, the layer
    functions are rebound only while the pass runs.
    """
    from talbotsim.cli import main as cli_main

    codes, stdouts = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for args in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    cli_main(list(args), standalone_mode=False)
                    code = 0
                except SystemExit as exit_:
                    code = exit_.code if isinstance(exit_.code, int) else 1
                except click.ClickException as error:
                    code = error.exit_code
            codes.append(code)
            stdouts.append(out.getvalue())
        wall = time.perf_counter() - start
    return wall, codes, stdouts


def main(plan_path: str) -> None:
    """Alternate untraced and traced passes for plan["seconds"], then summarize.

    The plan names the commands and the directory they run in.  The summary
    (written to plan["summary"]) holds every pass wall time, the per-layer
    metrics of the median traced pass, every exit code, whether all passes
    wrote byte-identical outputs, and the last pass's stdouts.
    """
    with open(plan_path, encoding="ascii") as handle:
        plan = json.load(handle)
    os.chdir(plan["workdir"])
    commands = plan["commands"]
    run_pass(commands)  # warm-up: lazy imports and first-touch allocations
    tracer = Tracer()
    plain, traced, codes, digests = [], [], [], set()
    start = time.perf_counter()
    elapsed = 0.0
    # Stop before a pair of passes, as long as the average pair, would overrun.
    while not traced or elapsed + elapsed / len(traced) <= plan["seconds"]:
        wall, pass_codes, stdouts = run_pass(commands)
        plain.append(wall)
        codes += pass_codes
        digests.add(json.dumps(output_digests(".", stdouts), sort_keys=True))
        tracer.reset()
        wall, pass_codes, stdouts = run_pass(commands, tracer)
        traced.append((wall, tracer.pass_metrics(wall)))
        codes += pass_codes
        digests.add(json.dumps(output_digests(".", stdouts), sort_keys=True))
        elapsed = time.perf_counter() - start
    traced.sort(key=lambda item: item[0])
    metrics = traced[(len(traced) - 1) // 2][1]
    metrics["trace.overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0)
    summary = {
        "plain_walls": plain,
        "traced_walls": [w for w, _ in traced],
        "metrics": metrics,
        "codes": codes,
        "identical_outputs": len(digests) == 1,
        "stdouts": stdouts,
    }
    with open(plan["summary"], "w", encoding="ascii") as handle:
        json.dump(summary, handle)


if __name__ == "__main__":
    main(sys.argv[1])
