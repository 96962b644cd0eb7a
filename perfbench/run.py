"""orbigenus benchmark: end-to-end metrics, or per-layer metrics of a traced run.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ./src.  The
whole run, set-up and checks included, fits in --seconds where it can: each
case of the workload's fixed list runs at least once and again while its last
time still fits; times are per-case medians.  With --trace 1, every case runs
untraced and traced, in turns, in whole passes.  Every output is checked after
the pass that made it, outside the timed region.  End-to-end times are scaled
to a reference host speed by a fixed kernel timed between samples (see
hostspeed.py); the unscaled figures are printed above the result line.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --self-test      # checks that the checks fail when they should
    python3 perfbench/run.py --write-golden   # records golden outputs of the current code
"""

from __future__ import annotations

from time import perf_counter, process_time

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
PACKAGE = "orbigenus"
SETUP_PROBES = 5

import tracer as tracing  # noqa: E402  (the benchmark's own modules sit next to this file)
import workloads  # noqa: E402
from hostspeed import REFERENCE_PROCESS_S, HostSpeed, time_kernel_process  # noqa: E402

OK, KNOWN, FAILED = "ok", "known defect", "failed"


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def load_package():
    """Import the package from the checkout's src directory, never from elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"{SRC / PACKAGE} not found: run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise BenchError(f"imported {package.__file__}, not the checkout's package")
    return package


def fresh_package():
    """Drop every loaded package module and import again: cold module state."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return load_package()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


@dataclass
class Sample:
    wall: float
    cpu: float
    output: object  # workload specific
    verdict: str = ""  # OK, KNOWN or FAILED, set by check()
    span: tuple = ()  # (start, end) perf_counter times of the run, when a HostSpeed was kept
    scale: tuple = (1.0, 1.0)  # (wall, cpu) factors to the reference host


class CommandWorkload:
    """``orbigenus`` commands run in process, each in a freshly imported package."""

    def __init__(self, name: str, seed: int):
        self.items = workloads.cli_cases(name, seed)
        self.golden = load_golden()

    def run(self, case, tracer=None) -> Sample:
        cli = fresh_package().cli
        if tracer is not None:
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                w0, c0 = perf_counter(), process_time()
                try:
                    status = cli.main(list(case.argv))
                except Exception as exc:  # a raising case is a failed case
                    status = f"{type(exc).__name__}: {exc}"
                wall, cpu = perf_counter() - w0, process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Sample(wall, cpu, (status, out.getvalue()))

    def verdict(self, case, output) -> str:
        status, text = output
        if status != 0:
            return FAILED
        try:
            payload = json.loads(text)
        except ValueError:
            return FAILED
        return OK if workloads.digest(case.argv, payload) == self.golden.get(case.name) else FAILED


class NumericWorkload:
    """A seeded (z, tau) sweep of ``ell_genus_numeric`` in one warm package."""

    def __init__(self, name: str, seed: int):
        package = load_package()
        self.genus = package.genus
        self.items = workloads.numeric_points(seed)
        self.models = workloads.numeric_models(package)
        self.anchors = load_golden().get("numeric-anchors", {})
        self._residuals = {}
        for model in self.models.values():  # warm the group caches
            self.genus.ell_genus_numeric(model.potential, model.group, 0.2 + 0.05j, 1.1j)

    def run(self, point, tracer=None) -> Sample:
        model = self.models[point.model]
        if tracer is not None:
            tracer.install()
        try:
            w0, c0 = perf_counter(), process_time()
            try:
                value = self.genus.ell_genus_numeric(model.potential, model.group, point.z, point.tau)
            except Exception as exc:  # a raising point is a failed point
                value = exc
            wall, cpu = perf_counter() - w0, process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Sample(wall, cpu, value)

    def verdict(self, point, value) -> str:
        if isinstance(value, Exception):
            return FAILED
        if point.anchor and not (
                point.name in self.anchors
                and workloads.anchor_error(value.value, self.anchors[point.name])
                <= workloads.INVERSION_TOL):
            return FAILED
        key = (point.model, value.z, value.tau, value.value)
        if key not in self._residuals:
            self._residuals[key] = workloads.inversion_residual(
                self.genus, self.models[point.model], value)
        if self._residuals[key] <= workloads.INVERSION_TOL:
            return OK
        return KNOWN if workloads.known_defect(point) else FAILED


def make_workload(name: str, seed: int):
    return NumericWorkload(name, seed) if name == "numeric" else CommandWorkload(name, seed)


def check(workload, item, sample: Sample) -> Sample:
    sample.verdict = workload.verdict(item, sample.output)
    return sample


def measure(workload, deadline: float, tracer=None, speed: HostSpeed | None = None
            ) -> tuple[list, list]:
    """Samples per item, untraced and traced, each checked after its pass.

    Without a tracer: one whole pass, then more rounds in which an item runs
    again only if its last time still fits before ``deadline``; so every item
    has a sample and short ones have more.  With a tracer: whole passes in
    which each item runs untraced and traced, in turns, at least one pass,
    and another while the last one would still fit.  With ``speed``, the host
    speed is taken between untraced samples and each gets its scale.
    """
    n = len(workload.items)
    untraced, traced = [[] for _ in range(n)], [[] for _ in range(n)]
    first = True
    while True:
        t0 = perf_counter()
        ran = []
        for index, item in enumerate(workload.items):
            if tracer is None:
                if not first and perf_counter() + untraced[index][-1].wall > deadline:
                    continue
                if speed is not None:
                    speed.mark()
                start = perf_counter()
                sample = workload.run(item)
                untraced[index].append(replace(sample, span=(start, perf_counter())))
                ran.append((item, untraced[index][-1]))
            else:  # the order alternates, so running second gives neither side an edge
                tracer.case = len(traced[index]) * n + index
                for traced_turn in (False, True) if (tracer.case % 2) else (True, False):
                    out = traced if traced_turn else untraced
                    out[index].append(workload.run(item, tracer if traced_turn else None))
                    ran.append((item, out[index][-1]))
        for item, sample in ran:
            check(workload, item, sample)
        first = False
        now = perf_counter()
        if not ran or (tracer is not None and now + (now - t0) > deadline):
            break
    if speed is not None:
        speed.close()
        for column in untraced:
            for sample in column:
                sample.scale = speed.scale(*sample.span)
    return untraced, traced


def tally(items) -> tuple[int, int, int]:
    """(attempted, failed, unexpected failures) over items, each given as its checked samples.

    An item fails if any of its samples did, unexpectedly if any did so
    unexpectedly.  The counts then depend on the seed alone, not on how many
    times the time allowed an item to run.
    """
    verdicts = [{s.verdict for s in samples} for samples in items]
    failed = sum(v != {OK} for v in verdicts)
    return len(verdicts), failed, sum(FAILED in v for v in verdicts)


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median wall time, scaled and unscaled, of fresh interpreters that import
    the package and make the inputs."""
    # the host speed, by fresh interpreters that run the kernel, before and after every probe
    speed = HostSpeed(stretch_s=0, calibrate=time_kernel_process,
                      reference_s=REFERENCE_PROCESS_S)
    times, spans = [], []
    for _ in range(SETUP_PROBES):
        speed.mark()
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            check=True, cwd=ROOT,
        )
        times.append(perf_counter() - t0)
        spans.append((t0, t0 + times[-1]))
    speed.close()
    scaled = [t * speed.scale(*span)[0] for t, span in zip(times, spans)]
    return statistics.median(scaled), statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(columns, setup_s: float, ok_frac: float, peak_kb: int, scaled=True) -> dict:
    """The end-to-end metrics, from times scaled to the reference host or not."""
    walls = [statistics.median(s.wall * (s.scale[0] if scaled else 1) for s in column)
             for column in columns]
    cpus = [statistics.median(s.cpu * (s.scale[1] if scaled else 1) for s in column)
            for column in columns]
    point_ms = [1000 * w for w in walls]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(walls), "s"),
        "cpu_s": metric(sum(cpus), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "ok_frac": metric(ok_frac, "ratio"),
        "point_p50_ms": metric(statistics.median(point_ms), "ms"),
        "point_p90_ms": metric(statistics.quantiles(point_ms, n=10, method="inclusive")[8], "ms"),
    }


def per_layer(untraced_samples, traced_samples, tracer) -> dict:
    summary = tracer.summary()
    traced_passes = len(traced_samples[0])
    untraced_walls = [statistics.median(s.wall for s in c) for c in untraced_samples]
    traced_walls = [statistics.median(s.wall for s in c) for c in traced_samples]
    traced = sum(traced_walls)
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    layer_self = summary["layer_self_s"]

    def per_pass(x):
        return x / traced_passes

    out = {}
    for module in tracing.LAYERS:
        label = tracing.layer_label(module)
        out[f"{label}.self_s"] = metric(per_pass(layer_self.get(label, 0.0)), "s")
    for name in ("symmetry.admissible_subgroups", "symmetry.require_admissible",
                 "engine.variable_factor", "engine.double_sum", "engine.rationalize",
                 "engine.annihilator_elements"):
        out[f"{name}.self_s"] = metric(per_pass(self_s.get(name, 0.0)), "s")
    for name in ("symmetry.require_admissible", "exactmath.smith_normal_form",
                 "exactmath.cyc_to_rational", "engine.variable_factor", "engine.double_sum",
                 "engine.annihilator_elements", "qseries.series_mul",
                 "potential.compute_charges", "genus.ell_genus_series",
                 "genus.ell_genus_numeric"):
        out[f"{name}.calls"] = metric(per_pass(calls.get(name, 0)), "count")
    out["theta.calls"] = metric(per_pass(calls.get("theta.theta_value", 0)), "count")
    for name in ("symmetry.elements", "engine.double_sum.pairs",
                 "engine.annihilator_elements.scanned", "theta.factors",
                 "genus.numeric.retries"):
        out[name] = metric(per_pass(counts.get(name, 0)), "count")
    series_calls = calls.get("genus.ell_genus_series", 0)
    out["genus.series.passes"] = metric(
        summary["series_passes"] / series_calls if series_calls else 0.0, "ratio")
    ycap = counts.get("genus.window.ycap", 0)
    out["genus.window_use"] = metric(float(counts.get("genus.window.reach", 0) / ycap) if ycap else 0.0,
                                     "ratio")
    out["trace.spans"] = metric(per_pass(summary["spans"]), "count")
    out["trace.wall_s"] = metric(traced, "s")
    traced_total = sum(s.wall for column in traced_samples for s in column)
    out["trace.self_sum_frac"] = metric(sum(layer_self.values()) / traced_total, "ratio")
    # the median over items of traced against untraced wall, both run in turns:
    # a burst of host noise during one item's turn moves it little
    out["trace.overhead_frac"] = metric(
        statistics.median(t / u for t, u in zip(traced_walls, untraced_walls)) - 1, "ratio")
    return out


def run(args) -> tuple[dict, dict]:
    """The result, and the end-to-end metrics unscaled (empty with --trace 1)."""
    deadline = START + args.seconds
    tracer = tracing.Tracer() if args.trace else None
    setup_s, raw_setup_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    speed = None if args.trace else HostSpeed()
    untraced, traced = measure(workload, deadline, tracer, speed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, unexpected = tally(u + t for u, t in zip(untraced, traced))
    unscaled = {}
    if tracer is not None:
        leftover = tracing.wrapped_bindings()
        if leftover:
            raise BenchError(f"tracer wrappers left in place: {leftover}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz", [i.name for i in workload.items])
        metrics = per_layer(untraced, traced, tracer)
    else:
        metrics = end_to_end(untraced, setup_s, 1 - failed / attempted, peak_kb)
        unscaled = end_to_end(untraced, raw_setup_s, 1 - failed / attempted, peak_kb,
                              scaled=False)
        unscaled["hostspeed.kernel_p50_ms"] = metric(
            1000 * statistics.median(speed.kernel_times()), "ms")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"samples-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as f:
            json.dump({"items": [i.name for i in workload.items],
                       "samples": [[(s.span[0] - START, s.span[1] - START, s.wall, s.cpu)
                                    for s in column] for column in untraced],
                       "readings": [(t - START, w, c) for t, w, c in speed.readings]}, f)
    return {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, unscaled


# ---------------------------------------------------------------------------
# golden outputs and self-test
# ---------------------------------------------------------------------------


def write_golden() -> None:
    golden = {}
    for name in ("series", "groups", "check"):
        workload = CommandWorkload(name, 0)
        for case in workload.items:
            status, text = workload.run(case).output
            if status != 0:
                raise BenchError(f"{case.name}: exit status {status}")
            golden[case.name] = workloads.digest(case.argv, json.loads(text))
            print(f"recorded {case.name}", flush=True)
    numeric = NumericWorkload("numeric", 0)
    anchors = {}
    for point in (p for p in numeric.items if p.anchor):
        value = numeric.run(point).output.value
        anchors[point.name] = [value.real, value.imag]
        print(f"recorded {point.name}", flush=True)
    golden["numeric-anchors"] = anchors
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _corrupt_coefficient(text: str) -> str:
    payload = json.loads(text)
    term = payload["terms"][0]
    term["re"] = str(int(term["re"]) + 1)
    return json.dumps(payload)


def _traced_problems(workload) -> list[str]:
    """A traced run records spans, leaves no wrapper behind and keeps outputs correct."""
    problems = []
    label = type(workload).__name__
    tracer = tracing.Tracer()
    before = tracing.bindings()
    untraced, traced = measure(workload, 0, tracer)
    if not tracer.starts:
        problems.append(f"{label}: the traced pass recorded no spans")
    leftover = tracing.wrapped_bindings()
    if leftover:
        problems.append(f"{label}: wrappers left in place: {leftover}")
    if isinstance(workload, NumericWorkload):  # one package throughout: compare every binding
        after = tracing.bindings()
        changed = [name for name in before if after.get(name) is not before[name]]
        if changed or after.keys() != before.keys():
            problems.append(f"{label}: bindings not restored: {changed}")
    if tally(u + t for u, t in zip(untraced, traced))[2]:
        problems.append(f"{label}: traced outputs failed their checks")
    return problems


def _numeric_tally(numeric, evaluate=None) -> tuple[int, int, int]:
    """Run and check every point, with ``evaluate`` standing in for ell_genus_numeric."""
    original = numeric.genus.ell_genus_numeric
    numeric._residuals.clear()  # residuals cached under another evaluate do not hold here
    if evaluate is not None:
        numeric.genus.ell_genus_numeric = evaluate
    try:
        return tally([check(numeric, p, numeric.run(p))] for p in numeric.items)
    finally:
        numeric.genus.ell_genus_numeric = original


def self_test() -> list[str]:
    """Problems found; empty when corrupted outputs are counted and tracing cleans up."""
    problems = []
    commands = CommandWorkload("series", 0)
    commands.items = [c for c in commands.items if c.name == "k3chain-J-q6"]
    case = commands.items[0]
    sample = check(commands, case, commands.run(case))
    if tally([[sample]]) != (1, 0, 0):
        problems.append("series: a clean output was not counted as correct")
    status, text = sample.output
    corrupted = check(commands, case, replace(sample, output=(status, _corrupt_coefficient(text))))
    if tally([[corrupted]]) != (1, 1, 1):
        problems.append("series: a corrupted coefficient was not counted as failed")
    problems += _traced_problems(commands)

    numeric = NumericWorkload("numeric", 0)
    anchor = next(p for p in numeric.items if p.anchor)
    numeric.items = [anchor] + [p for p in numeric.items if p.tau.imag == 1.2 and not p.anchor][:2]
    if _numeric_tally(numeric) != (3, 0, 0):
        problems.append("numeric: clean values were not counted as correct")
    # one side wrong: the value, not its image, is off by 1e-6
    samples = []
    for point in numeric.items:
        s = numeric.run(point)
        off = replace(s.output, value=s.output.value * (1 + 1e-6))
        samples.append(check(numeric, point, replace(s, output=off)))
    if tally([s] for s in samples) != (3, 3, 3):
        problems.append("numeric: a value off its image was not counted as failed")
    # both sides wrong: the program itself scales or zeroes every value
    evaluate = numeric.genus.ell_genus_numeric
    for label, factor, expected in (("scaled", 1 + 1e-6, (3, 1, 1)), ("zeroed", 0, (3, 3, 3))):
        def corrupted(*args, _factor=factor, **kwargs):
            value = evaluate(*args, **kwargs)
            return replace(value, value=value.value * _factor)
        if _numeric_tally(numeric, corrupted) != expected:
            problems.append(f"numeric: {label} program output was not counted as failed")
    problems += _traced_problems(numeric)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.write_golden or args.self_test):
        parser.error("--workload is required")
    try:
        load_package()
        if args.write_golden:
            write_golden()
            return 0
        if args.self_test:
            problems = self_test()
            for problem in problems:
                print(f"self-test: {problem}", file=sys.stderr)
            print("self-test failed" if problems else "self-test passed")
            return 1 if problems else 0
        if args.setup_probe:
            make_workload(args.workload, args.seed)
            return 0
        result, unscaled = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for name, m in unscaled.items():
        print(f"unscaled {name:31s} {m['value']:.6g} {m['unit']}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
