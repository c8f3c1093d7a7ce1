"""Generate a synthetic cohort and look at how non-IID it is."""

import numpy as np

import fedhar.data as D

spec = D.SyntheticSpec(n_subjects=8, minutes_per_subject=480, n_features=12,
                       n_labels=6, alpha=0.2, noise_std=0.3, seed=11)
records = D.gen_synthetic(spec)

print("subjects:", [r.subject_id for r in records])
print("per-subject positive rate by label (alpha=0.2 spreads these wide):")
for rec in records:
    print(" ", rec.subject_id, np.round(np.nanmean(rec.labels, axis=0), 2))

overall = np.nanmean(np.concatenate([r.labels for r in records]), axis=0)
print("pooled positive rates:", np.round(overall, 3),
      " imbalance max/min: %.1f" % (overall.max() / max(overall.min(), 1e-9)))

# the standardizer is fit on the pool: pooled columns come out mean 0 /
# std 1, while any single subject still deviates (non-IID in feature space)
st = D.fit_standardizer(records)
standardized = [D.apply_standardizer(r, st) for r in records]
pooled = np.concatenate([r.features for r in standardized])
z = standardized[0]
print("pooled standardized means:", np.round(pooled.mean(axis=0)[:4], 3),
      "stds:", np.round(pooled.std(axis=0)[:4], 3))
print("%s alone:                 " % z.subject_id,
      np.round(z.features.mean(axis=0)[:4], 3),
      "stds:", np.round(z.features.std(axis=0)[:4], 3))

# windows cut at n_positions minutes and at gaps in the timestamps, held
# as one array set: features [windows, positions, features] and masks
windows = D.make_windows(z, n_positions=64)
print("windows for %s: %d of lengths %s, features %s" % (
    z.subject_id, len(windows), windows.pad_mask.sum(axis=1).tolist(),
    windows.features.shape))

train, test = D.split_train_test(windows, 0.8, seed=0)
print("train/test split: %d / %d (chronological, test is the tail)"
      % (len(train), len(test)))

# everything is a plain CSV on disk and parses back identically
D.write_subject_csv(records[0], "/tmp/demo_subject.csv")
back = D.parse_extrasensory_csv("/tmp/demo_subject.csv")
print("csv round-trip identical:",
      np.array_equal(back.features, records[0].features, equal_nan=True))
