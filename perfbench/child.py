"""Workload child: runs whole rounds of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
    python3 perfbench/child.py --workload generate_parallel_resume --seed N --reference --work DIR

Every CLI stage is run the way a user runs it, through skybench.cli.main, and
timed around that call only, with a speed probe just before and after it
(speed.py).  Each round makes its inputs from its own seed
(workloads.round_seed), and each stage runs once per round, or
workloads.repeats times.  Input preparation (line deletion before the resume,
building the mixed corpus) happens between stages and is not timed.
Untraced runs take a set-up sample (cold_start.py) after the first round and
then about every SETUP_EVERY_S seconds.  Results go to DIR/child.json, and
with --trace 1 the spans to DIR/spans.jsonl.  run.py checks the outputs after
this process has exited, so the peak resident memory reported here is that of
the stages and this small loop.

--reference makes, in a process of its own, the serial run of round 0's job
list that generate_parallel_resume's round 0 is compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_EVERY_S = 3.0


def setup_probe() -> float:
    """One set-up sample: cold_start.py in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(HERE / "cold_start.py")],
                          capture_output=True, text=True, timeout=60, check=False)
    if done.returncode != 0:
        raise SystemExit(f"cold-start probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def _quiet(fn, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = fn(argv)
    return rc, out.getvalue()


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, tracer=None) -> None:
        import skybench.cli

        self.main = skybench.cli.main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.calls = 0
        self.peak_rss_kb = 0

    def _call(self, stage: str, argv: list[str]) -> dict:
        before = speed.probe()
        gc.collect()
        t0 = time.perf_counter()
        if self.tracer is None:
            rc, out = _quiet(self.main, argv)
        else:
            rc, out = self.tracer.stage_call(stage, _quiet, self.main, argv)
        seconds = time.perf_counter() - t0
        probe_s = (before + speed.probe()) / 2
        return {"seconds": seconds, "probe_s": probe_s, "rc": rc, "out": out,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": self.tracer.spans if self.tracer is not None else []}

    def stage(self, stage: str, argv: list[str]) -> tuple[float, int, float, str]:
        """One timed CLI call, made in a process forked from this warmed-up
        one: like a user's fresh interpreter, the call starts with nothing
        that an earlier call kept in memory, and it pays no import cost
        (setup_s measures that).  The call is bracketed by speed probes,
        outside the timed interval (speed.py)."""
        self.calls += 1
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                os.close(read_fd)
                if self.tracer is not None:
                    self.tracer.forked(self.calls)
                with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                    json.dump(self._call(stage, argv), fh)
                code = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise SystemExit(f"stage {stage} process ended with status {status}")
        result = json.loads(data)
        self.peak_rss_kb = max(self.peak_rss_kb, result["rss_kb"])
        if self.tracer is not None:
            self.tracer.spans.extend(tuple(span) for span in result["spans"])
        return result["seconds"], result["rc"], result["probe_s"], result["out"]

    def warm_up(self) -> None:
        """Fill the program's lazy caches (calibration, both compiled
        validators) and warm every code path on a tiny job list, so that the
        timed stages measure steady work.  setup_s measures the cold cost."""
        from skybench.network import default_calibration
        from skybench.scenarios import builtin_scenarios

        default_calibration()
        builtin_scenarios()
        if self.tracer is not None:
            self.tracer.stage = "warmup"
        d = str(self.work / "warmup")
        seed = wl.round_seed(self.seed, wl.WARMUP_ROUND)
        gen = ["generate", "--out", d, "--episodes-per-scenario", "2", "--seed", str(seed), "--canonical"]
        for argv in (
            gen,
            gen + ["--parallel", "2"],
            ["score", "--out", d, "--strict"],
            ["score", "--out", d, "--lenient"],
            ["aggregate", "--out", d],
            ["analytics", "--out", d],
            ["validate", f"{d}/corpus.jsonl"],
        ):
            rc, _ = _quiet(self.main, argv)
            if rc != 0:
                raise SystemExit(f"warm-up stage {argv[0]} exited {rc}")
        shutil.rmtree(d)

    def reference(self) -> None:
        """generate_parallel_resume's round 0 is compared with a serial run of
        the same job list, made once per run and not timed."""
        ref = str(self.work / "ref")
        for stage in ("generate", "score", "aggregate"):
            argv = wl.stage_argv("builtin_serial", stage, ref, wl.round_seed(self.seed, 0))
            rc, _ = _quiet(self.main, argv)
            if rc != 0:
                raise SystemExit(f"reference stage {argv[0]} exited {rc}")

    def prepare(self, stage: str, rdir: Path, seed: int) -> None:
        """Untimed input preparation before a stage."""
        if stage == "resume":
            gen_dir = rdir / "base" if self.workload == "rescore_mixed" else rdir
            corpus = gen_dir / "corpus.jsonl"
            shutil.copyfile(corpus, gen_dir / "generated.jsonl")
            if self.workload == "generate_parallel_resume":
                lines = corpus.read_text("utf-8").splitlines(keepends=True)
                drop = set(wl.deleted_positions(seed, len(lines)))
                corpus.write_text("".join(l for i, l in enumerate(lines) if i not in drop), "utf-8")
        elif stage == "score" and self.workload == "rescore_mixed":
            base = (rdir / "base" / "corpus.jsonl").read_text("utf-8").splitlines()
            lines, labels = wl.build_mixed(base, seed)
            (rdir / "mixed.jsonl").write_text("".join(l + "\n" for l in lines), "utf-8")
            clean = [l for l, lab in zip(lines, labels) if lab["family"] != "malformed"]
            (rdir / "mixed_clean.jsonl").write_text("".join(l + "\n" for l in clean), "utf-8")
            (rdir / "labels.json").write_text(json.dumps(labels), "utf-8")

    def round(self, index: int) -> dict:
        rdir = self.work / f"r{index}"
        rdir.mkdir(parents=True)
        seed = wl.round_seed(self.seed, index)
        stages: dict[str, list[list]] = {}
        for stage in wl.STAGES:
            self.prepare(stage, rdir, seed)
            argv = wl.stage_argv(self.workload, stage, str(rdir), seed)
            samples = []
            for _ in range(wl.repeats(self.workload, stage)):
                seconds, rc, probe_s, out = self.stage(stage, argv)
                samples.append([seconds, rc, probe_s])
            if stage == "validate":
                (rdir / "validate.out").write_text(out, "utf-8")
            stages[stage] = samples
        return {"dir": rdir.name, "stages": stages}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    work = Path(args.work)
    if args.reference:
        Runner(args.workload, args.seed, work).reference()
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    runner = Runner(args.workload, args.seed, work, tracer)
    runner.warm_up()

    # Untraced runs take a set-up sample after the first round and then after
    # the first round that ends SETUP_EVERY_S after the last sample, so that
    # the samples spread over the whole run as the stage samples do.
    rounds, setups = [], []
    start = last_setup = time.perf_counter()
    while True:
        rounds.append(runner.round(len(rounds)))
        now = time.perf_counter()
        if tracer is None and (not setups or now - last_setup >= SETUP_EVERY_S):
            setups.append(setup_probe())
            last_setup = time.perf_counter()
        if time.perf_counter() - start >= args.seconds:
            break
    result = {
        "rounds": rounds,
        "setup_s": setups,
        "peak_rss_kb": max(runner.peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "trace": bool(args.trace),
    }
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
    (work / "child.json").write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
