"""Self-test of the benchmark's output checks.

Runs one point-target design, one extended-target design and four rounds of
Monte Carlo trials through the same code as the workloads, requires every
output check to pass on them, then corrupts each output and requires the
checks to reject it:

- the design's beamformer columns scaled up by 5%;
- a bound_trace row (digital, then partially) and a root-CRB row off by 1%;
- one analog entry of each factorization set to modulus 1.1;
- the MLE estimates replaced by the centre of the search grid.

Run from the root of a source checkout (about two minutes):

    python3 bench/selftest.py

Exits 0 when every clean output passes and every corruption is rejected.
"""

import copy
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from nfisac import bounds, config, estimators  # noqa: E402

def expect(failures, label, fails, rejected):
    """Print one verdict; record the label when the check did not behave as required."""
    ok = bool(fails) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if fails else 'passed'}")
    for line in fails:
        print(f"       {line}")
    if not ok:
        failures.append(label)


def corrupt_design(failures, name, cfg_dict, out):
    expect(failures, f"{name}: clean design", checks.design(cfg_dict, out), rejected=False)

    scaled = dict(out, w=1.05 * out["w"])
    expect(failures, f"{name}: design scaled up by 5%", checks.design(cfg_dict, scaled),
           rejected=True)

    for arch in ("digital", "partially"):
        off = copy.deepcopy(out)
        off["bounds"][arch] *= 1.01
        expect(failures, f"{name}: {arch} bound row off by 1%", checks.design(cfg_dict, off),
               rejected=True)

    for arch in ("fully", "partially"):
        bad = copy.deepcopy(out)
        analog = bad["factors"][arch][0]
        col = int(np.flatnonzero(analog[0])[0])
        analog[0, col] *= 1.1
        expect(failures, f"{name}: non-unit {arch} analog entry", checks.design(cfg_dict, bad),
               rejected=True)


def main():
    failures = []
    capture = workloads.Capture()
    try:
        for name, make in (("point-design", workloads.point_design_input),
                           ("extended-design", workloads.extended_design_input)):
            cfg_dict = make(1)
            cfg = config.loads_config(json.dumps(cfg_dict), scale="desk")
            out = workloads.design_once(cfg, capture)
            if out is None:
                failures.append(f"{name}: the design failed")
                continue
            corrupt_design(failures, name, cfg_dict, out)
    finally:
        capture.close()

    cfg_dict = workloads.mc_trials_input(1)
    s = checks.Setting(cfg_dict)
    W = workloads.matched_design(s)
    scn = config.config_to_scenario(config.loads_config(json.dumps(cfg_dict), scale="desk"))
    grid = estimators.default_grid(scn.geom)
    trm = bounds.point_trm(scn.geom, scn.target)
    mle_rows, music = [], []
    for b in range(workloads.MC_MIN_TRIALS // workloads.MC_BATCH):
        mle, crb_rows, est = workloads.trial_round(scn, W, trm, grid, 10**6 + b)
        mle_rows.append(mle)
        music += est
    mle = workloads.pooled(mle_rows)
    music_stats = workloads.music_stats(s, music)
    expect(failures, "mc-trials: clean trials",
           checks.trials(cfg_dict, W, mle, crb_rows, music_stats), rejected=False)

    off = dict(crb_rows, angle=1.01 * crb_rows["angle"])
    expect(failures, "mc-trials: root-CRB row off by 1%",
           checks.trials(cfg_dict, W, mle, off, music_stats), rejected=True)

    n = len(music)
    r_c, phi_c = grid.distances()[grid.n_r // 2], grid.angles()[grid.n_phi // 2]
    at_centre = {"distance": checks.rmse_se(np.full(n, r_c), s.r),
                 "angle": checks.rmse_se(np.full(n, phi_c), s.phi)}
    expect(failures, "mc-trials: MLE estimates at the grid centre",
           checks.trials(cfg_dict, W, at_centre, crb_rows, music_stats), rejected=True)

    print("self-test " + ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
