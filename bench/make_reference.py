"""Regenerate the stored reference outputs in bench/reference/.

    python3 bench/make_reference.py study    # preset CLI outputs, arm catalog
    python3 bench/make_reference.py probe    # tuned multipliers, probe catalog

Run from the root of the repository.  The references record the answers of
the commit they were made at; regenerate them only when an answer is meant
to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prepspill import reproduction  # noqa: E402

import workloads as W  # noqa: E402

WORK = ROOT / ".bench_runs" / "reference-work"


def study():
    ref = {}
    for v in ("basic", "risk"):
        for cmd in W.PRESET_COMMANDS:
            out = WORK / f"{v}-{cmd[0]}"
            rc, stdout, stderr = W.run_cli([cmd[0], "--model", v, "--out", str(out),
                                            *cmd[1:]])
            if cmd[0] == "ngm":
                if v == "basic":
                    ref["basic/ngm"] = json.loads(stdout)
                continue
            assert rc == W.EXPECTED_RC.get(cmd[0], 0), (cmd, rc, stderr)
            for pattern, rule in W.PRESET_FILES[cmd[0]]:
                name = pattern.format(v=v)
                ref[f"{v}/{rule}/{name}"] = W.extract_csv(W.read_text(out / name), rule)
    # One row per (variant, mode, group, size, start year) arm; every arm is
    # integrated independently from the shared baseline, so one config per
    # variant and mode yields the whole catalog.
    arms = {}
    for v in ("basic", "risk"):
        for mode in W.MODES:
            keys, items = [], []
            for g in W.LABELS[v]:
                for size in W.ARM_SIZES:
                    for start in W.ARM_STARTS:
                        keys.append(W.arm_key(v, mode, g, size, start))
                        items.append({"group": g, "additional_persons": size,
                                      "start_year": start})
            path = WORK / f"arms-{v}-{mode}.json"
            path.write_text(json.dumps({"schema_version": 1, "model": v,
                                        "intervention_mode": mode,
                                        "interventions": items}), encoding="utf-8")
            rc, _, stderr = W.run_cli(["simulate", "--config", str(path),
                                       "--out", str(WORK / "arms")])
            assert rc == 0, stderr
            rows = W.read_text(WORK / "arms" / f"table_{v}.csv").splitlines()[2:]
            for key, line in zip(keys, rows, strict=True):
                arms[key] = line.split(",")[3:]
    ref["arms"] = arms
    return ref


def probe():
    specs = W.probe_specs()
    ref = {"multiplier": {}, "growth": {}, "decay": {}}
    for name, spec0 in specs.items():
        m = reproduction.tune_multiplier_to_rc(spec0, W.PROBE_TARGET_RC)
        ref["multiplier"][name] = m
        g = reproduction.stability_probe(spec0, seed=0)
        ref["growth"][name] = {"horizon": g.horizon, "rc_hat": g.rc_hat,
                               "ratio": g.max_terminal_ratio}
        tuned = reproduction.scale_transmission(spec0, m)
        rows = []
        for s in range(W.PROBE_SEED_CATALOG):
            rep = reproduction.stability_probe(tuned, n_trials=1, seed=s)
            assert rep.confirmed and rep.conclusive, rep
            rows.append([rep.horizon, rep.max_terminal_ratio])
        ref["decay"][name] = rows
    return ref


def main(which):
    maker = {"study": study, "probe": probe}[which]
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        ref = maker()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    W.REF_DIR.mkdir(exist_ok=True)
    with open(W.REF_DIR / f"{which}.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
