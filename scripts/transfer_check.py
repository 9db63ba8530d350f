#!/usr/bin/env python3
"""New-agent transfer check: embeddings from one population predict another's agents.

Runs the bias-built pipeline, then evaluates its predictor against hidden
agents drawn from the mask-built run's population:

    python -m taskemb.cli run-all --config configs/multikeynav_desk.cfg
    python scripts/transfer_check.py configs/multikeynav_bias_desk.cfg \\
        runs/multikeynav-desk/population
"""

import sys

from taskemb import pipeline
from taskemb.config import load_config


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    cfg = load_config(argv[0])
    for stage in ("train-population", "gen-constraints", "train-embedding"):
        pipeline.run_stage(stage, cfg)
    pipeline.run_stage("eval-prediction", cfg, agent_population_dir=argv[1])
    out = pipeline.read_results(
        f"{cfg.output_dir}/benchmarks/prediction_results_transfer.csv")
    for method, size, mean, stderr in out:
        print(f"{method:>14s}  quiz={size:>2s}  accuracy {mean:.3f} +- {stderr:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
