"""skybench stage-and-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --selftest                # show that every output check can fail

Run from the root of a checkout.  With --trace 0 the run times every CLI
stage and reports the end-to-end metrics; with --trace 1 a separate traced
run reports the per-layer metrics.  Either way every round's outputs are
checked against values computed apart from the program, and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

Work files go to .perfbench_work/ in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s
DEFAULT_SEED = 42
DEFAULT_SECONDS = 30

STAGE_METRICS = {
    "generate": "generate_s",
    "resume": "resume_s",
    "score": "score_s",
    "score_lenient": "score_lenient_s",
    "aggregate": "aggregate_s",
    "analytics": "analytics_s",
    "validate": "validate_s",
}


def _require_program() -> None:
    if not (ROOT / "src" / "skybench" / "cli.py").is_file():
        print(f"error: no skybench sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 5:
        raise SystemExit("error: run deadline reached")
    return left


def run_child(workload: str, seed: int, seconds: float, trace: int, work: Path, started: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    # The child forks a process per stage call; its own session lets a
    # timeout stop all of them together.
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=_remaining(started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit("error: workload child exceeded the run deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads((work / "child.json").read_text("utf-8"))


def make_reference(workload: str, seed: int, work: Path, started: float) -> None:
    """The untimed serial run that generate_parallel_resume's round 0 is
    compared with, made in a fresh interpreter after the workload child."""
    if workload != "generate_parallel_resume":
        return
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--reference", "--work", str(work)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=_remaining(started), check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: reference run exited {done.returncode}: {done.stderr.strip()[-2000:]}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import checks
    import speed
    import workloads as wl

    started = time.monotonic()
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child = run_child(workload, seed, seconds, trace, work, started)
        make_reference(workload, seed, work, started)
        tally = checks.Tally()
        checks.check_run(workload, seed, work, child["rounds"], tally)
        # Single-thread stages: the median of their speed-scaled calls.
        # setup_s and the --parallel stages: their raw median scaled by the
        # run's median probe (speed.py).
        samples = {name: [(s, p) for rnd in child["rounds"] for s, _rc, p in rnd["stages"][stage]]
                   for stage, name in STAGE_METRICS.items()}
        raw_medians = {name: statistics.median(s for s, _p in ss) for name, ss in samples.items()}
        run_probe_s = statistics.median(p for ss in samples.values() for _s, p in ss)

        def stage_metric(stage: str) -> float:
            name = STAGE_METRICS[stage]
            if wl.scaled_per_call(workload, stage):
                return speed.scaled_median(samples[name])
            return speed.run_scaled(raw_medians[name], run_probe_s)

        if trace:
            import spans

            values = spans.layer_metrics(spans.read_spans(work / "spans.jsonl"), len(child["rounds"]))
            # generate_s's estimator on the traced calls: the two differ by
            # the tracing cost.
            values["cli.generate_traced_s"] = stage_metric("generate")
            metrics = {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER_UNITS.items()}
            raw_medians = {}
        else:
            raw_medians["setup_s"] = statistics.median(child["setup_s"])
            metrics = {"setup_s": {"value": speed.run_scaled(raw_medians["setup_s"], run_probe_s), "unit": "s"}}
            metrics.update({name: {"value": stage_metric(stage), "unit": "s"} for stage, name in STAGE_METRICS.items()})
            metrics["peak_rss_mb"] = {"value": child["peak_rss_kb"] / 1024.0, "unit": "MB"}
            raw_medians["speed_probe_s"] = run_probe_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for message in tally.messages[:20]:
        print(f"CHECK FAILED [{workload}] {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "raw_medians": raw_medians,
        "rounds": len(child["rounds"]),
    }


def _print_human(workload: str, result: dict) -> None:
    print(f"[{workload}] rounds={result['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        raw = result["raw_medians"].get(name)
        unscaled = f"   (raw median {raw:.6g} s)" if raw is not None else ""
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}{unscaled}")
    if "speed_probe_s" in result["raw_medians"]:
        print(f"  {'speed probe, median':<42} {result['raw_medians']['speed_probe_s']:.6g} s")


def main(argv=None) -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="corrupt real outputs and show every check fails")
    args = parser.parse_args(argv)
    _require_program()
    if args.selftest:
        import selftest

        return selftest.main(args.seed)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        _print_human(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
