"""Tabulate how many Born terms the elastic amplitude needs.

For each point on a small (nu, chi, p, k) grid, sum the geometric Born
series and report the first order N at which the partial sum is within
1e-8 (relative) of the closed-form limit, alongside the term ratio that
controls the tail.  Points whose ratio is too close to 1 never get there
within the order budget and are marked with a dash.
"""

import numpy as np

from dtscatter.thirring import (
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    jacobian_pp,
)

N_MAX = 60
REL_TOL = 1e-8


def first_hit(params, p, k):
    series = born_series_thirring(params, p, k, n_max=N_MAX)
    closed = (amplitude_pp(params, p, k).coefficient
              * abs(jacobian_pp(params, p, k)))
    rel = np.abs(series.partial_sums - closed) / abs(closed)
    hits = np.nonzero(rel <= REL_TOL)[0]
    ratio = float(series.term_ratios[-1])
    return (int(hits[0]) if hits.size else None), ratio


def main():
    nus = (0.5, 0.8, 0.95)
    chis = (0.2, 1.0, 2.5)
    ps = (0.3, 0.7, 1.1)
    ks = (0.2, 0.7, 1.3)

    print(f"{'nu':>5} {'chi':>5} {'p':>5} {'k':>5}   {'ratio':>8}  N*")
    n_unreached = 0
    for nu in nus:
        for chi in chis:
            params = ThirringParams(nu=nu, chi=chi)
            for p in ps:
                for k in ks:
                    n_star, ratio = first_hit(params, p, k)
                    tag = "-" if n_star is None else str(n_star)
                    n_unreached += n_star is None
                    print(f"{nu:5.2f} {chi:5.2f} {p:5.2f} {k:5.2f}"
                          f"   {ratio:8.5f}  {tag}")
    total = len(nus) * len(chis) * len(ps) * len(ks)
    print(f"\n{total - n_unreached}/{total} points reach rel {REL_TOL:g} "
          f"within {N_MAX} orders")


if __name__ == "__main__":
    main()
