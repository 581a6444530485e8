#!/usr/bin/env python3
"""Generate the synthetic flattened-pixel dataset as CSV + label files.

Writes features.csv and labels.txt into --out-dir, ready for
``varprop bench --dataset-features ... --dataset-labels ...``.  The data
are ``make_cluster_dataset``: 10 classes of 16x16 patches from a fixed
seed, so only the sample count is settable.
"""

import argparse
from pathlib import Path

from varprop.data import write_feature_csv, write_label_file
from varprop.errors import InvalidParameterError
from varprop.synth import make_cluster_dataset

N_CLASSES = 10


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--samples", type=int, default=2000)
    args = parser.parse_args()

    try:
        X, labels = make_cluster_dataset(n_samples=args.samples, n_classes=N_CLASSES)
    except InvalidParameterError as exc:
        parser.error(f"--samples: {exc}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_csv(out / "features.csv", X)
    write_label_file(out / "labels.txt", labels)
    print(f"wrote {X.shape[0]} samples x {X.shape[1]} pixels to {out}/features.csv")
    print(f"wrote labels for {N_CLASSES} classes to {out}/labels.txt")


if __name__ == "__main__":
    main()
