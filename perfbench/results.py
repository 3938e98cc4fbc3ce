#!/usr/bin/env python3
"""Summarise and compare result files written by run.py.

    python3 perfbench/results.py summarize OUT.json RESULT.json ...
    python3 perfbench/results.py compare OLD.json NEW.json

``summarize`` folds result files (one per run, in ``.perfbench_out/``) into
medians and quartiles per workload and metric, as in baseline.json.
``compare`` prints the change of every metric between two result files or
summaries, against the bounds in BENCHMARK.json.

Both refuse to mix runs whose identity differs in kernel backend, Python
version or CPU count: a compiled kernel runs about 20x faster than the pure
one and must never read as a change of the code.
"""

import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("kernel_backend", "python", "nproc")


def _identity_key(ids):
    return {k: ids.get(k) for k in MUST_MATCH}


def _refuse(msg):
    sys.stderr.write("results: %s\n" % msg)
    sys.exit(2)


def summarize(out_path, paths):
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    key = _identity_key(runs[0]["identity"])
    for path, run in zip(paths, runs):
        if _identity_key(run["identity"]) != key:
            _refuse("%s was run as %s, not %s"
                    % (path, _identity_key(run["identity"]), key))
    workloads = {}
    for run in runs:
        w = workloads.setdefault(run["identity"]["workload"], {
            "seeds": [], "failed": 0, "attempted": 0, "metrics": {}})
        w["seeds"].append(run["identity"]["seed"])
        w["failed"] += run["failed"]
        w["attempted"] += run["attempted"]
        for group in ("metrics", "report"):
            for name, m in run.get(group, {}).items():
                w["metrics"].setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
    for w in workloads.values():
        for name, (unit, values) in list(w["metrics"].items()):
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
            w["metrics"][name] = {"unit": unit, "n": len(values),
                                  "median": statistics.median(values),
                                  "q1": q[0], "q3": q[2]}
        w["seeds"] = sorted(set(w["seeds"]))
    first = runs[0]["identity"]
    summary = {"identity": dict(key, commit=first["commit"],
                                src_sha256=first["src_sha256"]),
               "workloads": workloads}
    Path(out_path).write_text(json.dumps(summary, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")


def _load(path):
    """(identity key, {workload: {metric: value}}) of a result or summary."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "workloads" in data:
        return data["identity"], {
            w: {k: m["median"] for k, m in v["metrics"].items()}
            for w, v in data["workloads"].items()}
    values = {k: m["value"] for group in ("metrics", "report")
              for k, m in data.get(group, {}).items()}
    return data["identity"], {data["identity"]["workload"]: values}


def compare(old_path, new_path):
    old_ids, old = _load(old_path)
    new_ids, new = _load(new_path)
    if _identity_key(old_ids) != _identity_key(new_ids):
        _refuse("refusing to compare runs of %s with runs of %s"
                % (_identity_key(old_ids), _identity_key(new_ids)))
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    worse = 0
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][name], new[workload][name]
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                loss = change if better == "lower" else -change
                verdict = "WORSE" if loss > bound else "ok"
                worse += verdict == "WORSE"
            print("%-16s %-40s %12.6g %12.6g %+8.2f%% %s"
                  % (workload, name, a, b, 100.0 * change, verdict))
    return 1 if worse else 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "summarize":
        summarize(argv[1], argv[2:])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
