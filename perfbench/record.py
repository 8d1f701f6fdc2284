"""Record the reference traces and traffic properties of every workload.

    python3 perfbench/record.py

Runs every trajectory of every workload's pool once through the CLI and
writes its trace digest, step count and halt reason, plus the digest of
each generated model, to ``expected.json``. Traces must stay
byte-identical across refactors, so re-record only when a change is meant
to alter them, and say so in that change. Then makes a traced run of each
workload, ``TRAFFIC_SECONDS`` long, and writes its measured traffic
properties into the ``traffic`` section of ``workloads.json``.
"""

from __future__ import annotations

import json
import sys

import run

TRAFFIC_SECONDS = 60.0


def ground_x_share(wl: run.Workload) -> float:
    """Share of rules of the shape ``g1 | ... | gk | $X`` with counts only
    on ``$X``, over the workload's distinct models."""
    from tscls.patterns import ElemVar, PSeq, PTermVar, SeqVar
    from tscls.syntax import parse_model

    def ground_x(rule) -> bool:
        tvars = [it for it in rule.lhs.items if isinstance(it, PTermVar)]
        ground = all(isinstance(it, PTermVar) or (
            isinstance(it, PSeq) and not any(
                isinstance(a, (SeqVar, ElemVar)) for a in it.atoms))
            for it in rule.lhs.items)
        return (ground and len(tvars) == 1
                and all(d.var.name == tvars[0].name for d in rule.counts))

    shapes = [ground_x(rule) for text in wl.models.values()
              for rule in parse_model(text).rules]
    return sum(shapes) / len(shapes)


def self_shares(metrics: dict) -> dict:
    """Each layer's share of the summed self time of a traced run."""
    own = {k[:-len(".self_s")]: m["value"] for k, m in metrics.items()
           if k.endswith(".self_s")}
    total = sum(own.values())
    return {k: round(v / total, 3) for k, v in own.items()}


def main() -> int:
    cli = run.import_cli()
    expected: dict = {}
    traffic: dict = {}
    with run.work_dir() as work:
        for name in run.WORKLOADS:
            wl = run.build_workload(name, work, None)
            records = {}
            for pool, _ in wl.strata:
                for traj in pool:
                    res = run.run_traj(cli, traj, work / "trace.csv")
                    if not res.ok:
                        print(f"{name} {traj.key}: {res.error}",
                              file=sys.stderr)
                        return 1
                    records[traj.key] = {"sha256": res.digest,
                                         "steps": res.steps,
                                         "halt": res.halt}
            expected[name] = {
                "models": {k: run.text_digest(t) for k, t in wl.models.items()},
                "trajectories": records,
            }
            wl = run.build_workload(name, work, records)
            attempted, failed, restored, m = run.measure(
                cli, wl, records, 0, TRAFFIC_SECONDS, True, work)
            if failed or not restored:
                print(f"{name}: traced run failed", file=sys.stderr)
                return 1
            steps = [r["steps"] for r in records.values()]
            traffic[name] = {
                "trajectories_in_pool": len(records),
                "mean_steps_per_trajectory": round(sum(steps) / len(steps), 2),
                "successors_per_step": round(
                    m["semantics.transitions.out_mean"]["value"], 2),
                "targets_built_per_event": round(
                    1 / m["engine.useful_target_ratio"]["value"], 2),
                "kept_ratio": round(m["semantics.kept_ratio"]["value"], 3),
                "match_whole_multi_ratio": round(
                    m["matching.match_whole.multi_ratio"]["value"], 3),
                "compartment_count_mean": round(
                    m["matching.compartments.per_call"]["value"], 2),
                "compartment_size_mean": round(
                    m["matching.compartments.size_mean"]["value"], 2),
                "ground_x_rule_share": round(ground_x_share(wl), 3),
                "trajectories_in_traced_run": attempted,
                "layer_self_share": self_shares(m),
            }
            print(name, json.dumps(traffic[name]))
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    path = run.HERE / "workloads.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["traffic"] = traffic
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
