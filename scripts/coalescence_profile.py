#!/usr/bin/env python3
"""Profile perfect-sampling cost as the reference intensity grows.

For each intensity the script draws a batch of exact samples and tallies the
lookback depth the doubling scheme needed, the number of lookbacks it tried
and the sandwich passes it ran (a lookback that an old point of D(0) rules
out is decided without its pass), the bracket proposals per draw over the
passes run and the share of them run after the pair merged (one path, one
rate call), the noise slabs a draw read (lookback / slab length + 1: the
dominating process is built backward from time 0, so nothing older is
read), the resulting population, and the wall time of a draw (draw_us, the
median over every draw of the batch, with its quartiles draw_us_q1 and
draw_us_q3). The point of the exercise: coalescence depth grows roughly
logarithmically until the interaction gets strong, after which the sandwich
bracket stays open much longer.

The script pins itself to one CPU (the lowest of those it may run on), so the
scheduler does not move it between cores in the middle of a batch.

Usage:
    python3 scripts/coalescence_profile.py --intensities 1 2 4 8 --replicates 200
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from sbdsim.cftp import perfect_sample
from sbdsim.geometry import SpaceSpec
from sbdsim.models import PairwiseRate
from sbdsim.noise import replicate_seed

THETA = 0.5
RANGE = 0.2
MAX_LOOKBACK = 4096.0


def profile_intensity(intensity, replicates, seed):
    model = PairwiseRate(theta=THETA, interaction_range=RANGE)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=intensity)
    lookbacks, tried, passes, counts, failures = [], [], [], [], 0
    proposals, merged, slabs, seconds = [], [], [], []
    for i in range(replicates):
        t0 = time.perf_counter()
        res = perfect_sample(model, space, replicate_seed(seed, i),
                             max_lookback=MAX_LOOKBACK)
        seconds.append(time.perf_counter() - t0)
        if res.status != "Coalesced":
            failures += 1
            continue
        lookbacks.append(res.lookback_used)
        tried.append(res.lookbacks_tried)
        passes.append(res.passes)
        proposals.append(res.proposals)
        merged.append(res.merged)
        slabs.append(res.slabs_read)
        counts.append(res.count)
    q1, q2, q3 = np.percentile(seconds, [25, 50, 75]) * 1e6
    return {
        "intensity": intensity,
        "replicates": replicates,
        "failures": failures,
        "mean_lookback": float(np.mean(lookbacks)),
        "p90_lookback": float(np.percentile(lookbacks, 90)),
        "max_lookback": float(np.max(lookbacks)),
        "mean_lookbacks_tried": float(np.mean(tried)),
        "mean_passes": float(np.mean(passes)),
        "mean_proposals": float(np.mean(proposals)),
        "mean_merged": float(np.mean(merged)),
        "merged_share": float(np.sum(merged) / max(1, np.sum(proposals))),
        "mean_slabs_read": float(np.mean(slabs)),
        "mean_count": float(np.mean(counts)),
        "draw_us": float(q2),
        "draw_us_q1": float(q1),
        "draw_us_q3": float(q3),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--intensities", nargs="+", type=float,
                    default=[1.0, 2.0, 4.0, 8.0, 16.0])
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--out", default="coalescence_profile.csv")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    rows = []
    for intensity in args.intensities:
        row = profile_intensity(intensity, args.replicates, args.seed)
        rows.append(row)
        print(f"intensity {intensity:6.2f}: mean lookback {row['mean_lookback']:6.2f} "
              f"(p90 {row['p90_lookback']:5.1f}, max {row['max_lookback']:5.1f}), "
              f"mean lookbacks tried {row['mean_lookbacks_tried']:5.2f}, "
              f"passes {row['mean_passes']:5.2f}, "
              f"proposals per draw {row['mean_proposals']:7.1f} "
              f"({row['mean_merged']:6.1f} merged, {row['merged_share']:4.0%}), "
              f"slabs read per draw {row['mean_slabs_read']:5.1f}, "
              f"mean count {row['mean_count']:6.2f}, failures {row['failures']}, "
              f"draw {row['draw_us']:8.1f} us [{row['draw_us_q1']:.1f}, {row['draw_us_q3']:.1f}]")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
