"""Time one set-up of a benchmark workload in a fresh process.

Usage: python3 setup_probe.py SRC_DIR WORK_DIR CONFIG_JSON N_ITEMS

Set-up runs from before ``import sessrec`` until the first training step
is ready: read the workload's example files, initialise the parameters
and build the optimizer.  It then loads the evaluation checkpoint, as
the evaluation phase does.  Prints one JSON object of timings in
seconds.  The caller pins BLAS threads through the environment.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    src, work = argv[1], Path(argv[2])
    config, n_items = json.loads(argv[3]), int(argv[4])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from sessrec import dataio, harness, optim, params
    cfg = harness.TrainConfig.from_dict(config)
    dataio.read_examples(work / "train.jsonl")
    dataio.read_examples(work / "test.jsonl")
    p = params.init_parameters(n_items, cfg.dim, cfg.factor_dim, cfg.num_factors,
                               cfg.layers, cfg.seed, cfg.disc_form)
    optim.Adam(p.parameters(), lr=cfg.lr)
    t1 = time.perf_counter()
    params.load_checkpoint(work / "checkpoint")
    t2 = time.perf_counter()
    print(json.dumps({"ready_s": t1 - t0, "load_checkpoint_s": t2 - t1,
                      "setup_s": t2 - t0}))


if __name__ == "__main__":
    main(sys.argv)
