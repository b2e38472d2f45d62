"""List-based reference form of the joint step's cell sampler in
``warpdet.pipeline``, kept in the tests as an oracle: a Python set of drawn
negatives and a list of the rest, one (i, j, label) tuple per cell."""

import numpy as np

from warpdet.pipeline import VERIFY_SAMPLES


def sample_cells(targets, probs, rng):
    """Oracle of pipeline._sample_cells: [(i, j, label), ...], the positives
    in draw order, then the negatives in cell order."""
    cells = []
    pos = np.argwhere(targets.labels == 1)
    if len(pos):
        take = pos[rng.choice(len(pos), size=min(VERIFY_SAMPLES, len(pos)), replace=False)]
        cells.extend((int(i), int(j), 1) for i, j in take)
    neg = np.argwhere(targets.labels == 0)
    if len(neg):
        n_hard = min((VERIFY_SAMPLES + 1) // 2, len(neg))
        weights = probs[neg[:, 0], neg[:, 1], 1] + 1e-3
        weights = weights / weights.sum()
        hard = rng.choice(len(neg), size=n_hard, replace=False, p=weights)
        chosen = set(hard.tolist())
        remaining = [k for k in range(len(neg)) if k not in chosen]
        n_rand = min(VERIFY_SAMPLES - n_hard, len(remaining))
        if n_rand > 0:
            rand = rng.choice(len(remaining), size=n_rand, replace=False)
            chosen.update(remaining[r] for r in rand)
        cells.extend((int(neg[k][0]), int(neg[k][1]), 0) for k in sorted(chosen))
    return cells
