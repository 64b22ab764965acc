"""Self-test of the output checks: no check passes vacuously.

    python3 perfbench/run.py --selftest [--seed N]

Runs one round of every workload, confirms that the untouched outputs pass
every check, then corrupts copies of those real outputs one way at a time
and confirms that the named checks fail.  Every check name in
checks.CHECK_NAMES must be tripped by at least one corruption.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads as wl


def _lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines()


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), "utf-8")


def _edit_json_line(path: Path, pick, edit, dumps=checks.dumps_canonical) -> None:
    lines = _lines(path)
    index = next(i for i, line in enumerate(lines) if pick(i, checks.parse(line)))
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = dumps(doc)
    _write(path, lines)


def _edit_json_file(path: Path, edit) -> None:
    doc = json.loads(path.read_text("utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")


def _swap_lines(path: Path, i: int, j: int) -> None:
    lines = _lines(path)
    lines[i], lines[j] = lines[j], lines[i]
    _write(path, lines)


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    path.write_text(out.getvalue(), "utf-8")


def _valid(i, doc):
    return doc is not None and doc.get("valid") is True


def _flip_alpha3(doc):
    doc["alpha3"] = round(1.0 - doc["alpha3"], 6)


def _retune_tc(doc):
    # A wrong tool-consistency pillar whose composite is kept consistent, so
    # only the paper recomputation can notice.
    p = doc["pillars"]
    p["TC"] = 0.5
    p["alpha3"] = doc["alpha3"] = sum(w * p[k] for w, k in zip(checks.WEIGHTS, checks.PILLARS))


def _break_schema(doc):
    doc["metadata"]["seed"] = str(doc["metadata"]["seed"])


def _break_tokens(doc):
    doc["metadata"]["total_tokens"] += 1


def _swap_nr(rows):
    col = rows[0].index("NR")
    by_model = {row[0]: row for row in rows[1:]}
    a, g = by_model["adaptive_pilot"], by_model["greedy_streamer"]
    a[col], g[col] = g[col], a[col]


def _scale_first_value(rows):
    rows[1][1] = format(float(rows[1][1]) * 0.9, ".6g")


def _label_index(rdir: Path, families) -> int:
    labels = json.loads((rdir / "labels.json").read_text("utf-8"))
    parsed = [lab for lab in labels if lab["family"] != "malformed"]
    return next(i for i, lab in enumerate(parsed) if lab["family"] in families)


def _relabel_mutant(rdir: Path) -> None:
    k = _label_index(rdir, wl.MUTATION_CODES)

    def edit(doc):
        doc.update(valid=True, alpha3=0.5)
        doc.pop("violations", None)

    _edit_json_line(rdir / "strict" / "scores.jsonl", lambda i, d: i == k, edit)


def _accept_extra_strictly(rdir: Path) -> None:
    k = _label_index(rdir, ("extra",))
    lenient = _lines(rdir / "lenient" / "scores.jsonl")
    strict = _lines(rdir / "strict" / "scores.jsonl")
    strict[k] = lenient[k]
    _write(rdir / "strict" / "scores.jsonl", strict)


def _score_stub(rdir: Path) -> None:
    k = _label_index(rdir, ("stub",))
    _edit_json_line(rdir / "strict" / "scores.jsonl", lambda i, d: i == k, lambda d: d.update(scored=True))


# (workload, description, corrupt(round dir, work dir, round record), checks that must fail)
CORRUPTIONS = (
    ("builtin_serial", "flipped alpha3 in scores.jsonl",
     lambda r, w, rnd: _edit_json_line(r / "scores.jsonl", _valid, _flip_alpha3), {"scores.alpha3"}),
    ("builtin_serial", "a stage exit code changed",
     lambda r, w, rnd: rnd["stages"]["score"][0].__setitem__(1, 3), {"stage.exit"}),
    ("builtin_serial", "two corpus lines swapped",
     lambda r, w, rnd: _swap_lines(r / "corpus.jsonl", 0, 1), {"corpus.order"}),
    ("builtin_serial", "a leaderboard row dropped",
     lambda r, w, rnd: _edit_csv(r / "leaderboard.csv", lambda rows: rows.pop()), {"leaderboard.rows"}),
    ("builtin_serial", "a corpus line written with spaces",
     lambda r, w, rnd: _edit_json_line(r / "corpus.jsonl", lambda i, d: i == 2, lambda d: None,
                                       dumps=lambda d: json.dumps(d, sort_keys=True)), {"corpus.canonical"}),
    ("builtin_serial", "an episode seed stored as a string",
     lambda r, w, rnd: _edit_json_line(r / "corpus.jsonl", lambda i, d: i == 3, _break_schema), {"corpus.schema"}),
    ("builtin_serial", "total_tokens off by one",
     lambda r, w, rnd: _edit_json_line(r / "corpus.jsonl", lambda i, d: i == 4, _break_tokens), {"corpus.rules"}),
    ("builtin_serial", "manifest episode count off by one",
     lambda r, w, rnd: _edit_json_file(r / "manifest.json", lambda m: m["counts"].update(episodes=m["counts"]["episodes"] - 1)),
     {"manifest.counts"}),
    ("builtin_serial", "a TC pillar rewritten with a consistent alpha3",
     lambda r, w, rnd: _edit_json_line(r / "scores.jsonl", _valid, _retune_tc), {"scores.pillars"}),
    ("builtin_serial", "t_opt shifted",
     lambda r, w, rnd: _edit_json_file(r / "scoring_meta.json", lambda m: m.update(t_opt=m["t_opt"] + 2)), {"scores.t_opt"}),
    ("builtin_serial", "a malformed line reported that was never there",
     lambda r, w, rnd: _edit_json_file(r / "scoring_meta.json", lambda m: m.update(malformed_lines=1)), {"scores.malformed"}),
    ("builtin_serial", "lenient scores differ from strict on a clean corpus",
     lambda r, w, rnd: _edit_json_line(r / "lenient" / "scores.jsonl", _valid, _flip_alpha3), {"scores.lenient"}),
    ("builtin_serial", "two leaderboard rows swapped",
     lambda r, w, rnd: _edit_csv(r / "leaderboard.csv", lambda rows: rows.insert(1, rows.pop(2))), {"leaderboard.order"}),
    ("builtin_serial", "an analytics tool count off by one",
     lambda r, w, rnd: _edit_json_file(r / "analytics.json", lambda a: a["mcp_tools_top"][0].update(count=a["mcp_tools_top"][0]["count"] + 1)),
     {"analytics.counts"}),
    ("builtin_serial", "NR swapped between adaptive_pilot and greedy_streamer",
     lambda r, w, rnd: _edit_csv(r / "leaderboard.csv", _swap_nr), {"robustness.nr_order", "leaderboard.rows"}),
    ("builtin_serial", "validate claims an invalid record",
     lambda r, w, rnd: (r / "validate.out").write_text("line 1: INVALID (turn_bounds)\n1 invalid records\n", "utf-8"),
     {"validate.listing"}),
    ("builtin_serial", "the resume rewrote the corpus in another order",
     lambda r, w, rnd: _swap_lines(r / "generated.jsonl", 5, 6), {"determinism.resume"}),
    ("generate_parallel_resume", "two lines of the parallel corpus swapped",
     lambda r, w, rnd: _swap_lines(r / "generated.jsonl", 7, 8), {"determinism.parallel"}),
    ("generate_parallel_resume", "the serial reference leaderboard differs",
     lambda r, w, rnd: _edit_csv(w / "ref" / "leaderboard.csv", _scale_first_value), {"determinism.parallel"}),
    ("rescore_mixed", "one mutant relabelled as valid",
     lambda r, w, rnd: _relabel_mutant(r), {"scores.shape"}),
    ("rescore_mixed", "an extra-field episode accepted under --strict",
     lambda r, w, rnd: _accept_extra_strictly(r), {"scores.lenient"}),
    ("rescore_mixed", "a failure stub scored",
     lambda r, w, rnd: _score_stub(r), {"scores.shape"}),
    ("rescore_mixed", "malformed_lines under-counted",
     lambda r, w, rnd: _edit_json_file(r / "strict" / "scoring_meta.json", lambda m: m.update(malformed_lines=m["malformed_lines"] - 1)),
     {"scores.malformed"}),
    ("rescore_mixed", "validate leaves an invalid record out",
     lambda r, w, rnd: _write(r / "validate.out", _lines(r / "validate.out")[1:]), {"validate.listing"}),
)


def _tripped(workload: str, seed: int, work: Path, rnd: dict) -> set[str]:
    tally = checks.Tally()
    checks.check_run(workload, seed, work, [rnd], tally)
    return tally.tripped


def main(seed: int) -> int:
    root = run.WORK_ROOT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    ok = True
    tripped_any: set[str] = set()
    try:
        for workload in wl.WORKLOADS:
            work = root / workload
            work.mkdir(parents=True)
            started = run.time.monotonic()
            child = run.run_child(workload, seed, 0, 0, work, started)
            run.make_reference(workload, seed, work, started)
            rnd = child["rounds"][0]
            baseline = _tripped(workload, seed, work, rnd)
            print(f"[{workload}] untouched outputs: {'pass' if not baseline else 'FAIL ' + str(sorted(baseline))}")
            ok &= not baseline
            cases = [c for c in CORRUPTIONS if c[0] == workload]
            for n, (_, what, corrupt, expect) in enumerate(cases):
                copy = root / f"{workload}-case{n}"
                shutil.copytree(work, copy)
                case_round = json.loads(json.dumps(rnd))
                corrupt(copy / rnd["dir"], copy, case_round)
                got = _tripped(workload, seed, copy, case_round)
                tripped_any |= got
                hit = expect <= got
                ok &= hit
                print(f"  {'caught' if hit else 'MISSED'}: {what} -> {sorted(got)}")
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if run.WORK_ROOT.exists() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    never = sorted(set(checks.CHECK_NAMES) - tripped_any)
    if never:
        ok = False
        print(f"checks never tripped by any corruption: {never}")
    print("selftest " + ("passed: every check fails on corrupted output" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(run.DEFAULT_SEED))
