"""Two-sample testing with clustered data: what clustering costs you.

Simulates two studies whose observations arrive in clusters with a shared
within-cluster shock.  Under the null (same marginal distribution) the
p-value upper bound stays large; under a location shift it drops.  The same
data analyzed as if iid would overstate the effective sample size by the
augmented squared variation of cluster size.  A one-sample test then
checks the control arm against a normal reference CDF that only takes
scalars, as ``math.erf`` does.
"""

import math

import numpy as np

from bvconc import ClusteredSample, TailSide, one_sample_clustered, two_sample_clustered


def make_clustered(rng, n_clusters, mean_size, shift=0.0):
    values, labels = [], []
    for cid in range(n_clusters):
        size = max(1, int(rng.poisson(mean_size)))
        shock = rng.normal(0.0, 0.3)  # shared within the cluster
        draws = np.clip(rng.normal(0.5 + shift + shock * 0.2, 0.15, size=size), 0, 1)
        values.extend(draws.tolist())
        labels.extend([cid] * size)
    return ClusteredSample(values=tuple(values), cluster_ids=tuple(labels))


def normal_cdf(x, loc=0.5, scale=0.16):
    """Normal CDF through ``math.erf``: it refuses an array, so it is called point by point."""
    return 0.5 * (1.0 + math.erf((x - loc) / (scale * math.sqrt(2.0))))


def describe(name, outcome):
    nu, xi = outcome.params[0].c, outcome.params[1].c
    print(f"{name}:")
    print(f"  effective sizes   nu = {nu:.2f}, xi = {xi:.2f}")
    print(f"  sup statistic     D  = {outcome.statistic:.4f}")
    print(f"  p-value bound     {outcome.p_upper:.4f}")
    for alpha, crit in sorted(outcome.critical_at.items()):
        verdict = "reject" if outcome.statistic > crit else "retain"
        print(f"  alpha = {alpha:<5}    critical D = {crit:.4f}  -> {verdict}")
    print()


def main():
    rng = np.random.default_rng(314159)

    # the bounds are distribution-free and non-asymptotic, which makes them
    # conservative: rejections need a few hundred effective clusters
    control = make_clustered(rng, n_clusters=400, mean_size=8)
    same = make_clustered(rng, n_clusters=380, mean_size=8)
    shifted = make_clustered(rng, n_clusters=380, mean_size=8, shift=0.35)

    describe("null holds (same distribution)", two_sample_clustered(control, same, TailSide.TWO_SIDED))
    describe("location shift of 0.35", two_sample_clustered(control, shifted, TailSide.TWO_SIDED))

    fit = one_sample_clustered(control, normal_cdf, TailSide.TWO_SIDED)
    print("control arm against a normal(0.5, 0.16) reference:")
    print(f"  effective size    nu = {fit.params.c:.2f}")
    print(f"  sup statistic     D  = {fit.statistic:.4f}")
    print(f"  p-value bound     {fit.p_upper:.4f}")
    print()

    spec = control.cluster_spec()
    print(
        f"clustering summary for the control arm: {spec.k} clusters, "
        f"mean size {spec.a_n:.2f}, size variance {spec.s2_n:.2f}"
    )
    print(
        f"effective sample size {spec.nu_n:.1f} of {spec.n} observations "
        f"(an iid analysis would pretend all {spec.n} are independent)"
    )


if __name__ == "__main__":
    main()
