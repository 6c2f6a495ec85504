"""Follow one batch through the task-conditioned noisy top-k router.

Shows the masked mean scores, the noise head, which experts win the vote
with noise off and on, and the selection probabilities that feed the load
penalty. Finishes with the two properties the gates always satisfy: k_s
positive entries summing to one, and invariance to a constant score shift.
"""

import numpy as np

from moce.autodiff import Tensor
from moce.experts import RouterParams, gamma_mask, route_batch

np.set_printoptions(precision=3, suppress=True)


def main() -> None:
    rng = np.random.default_rng(7)
    num_experts, k_s, k_t = 6, 2, 4
    router = RouterParams.create(rng, feat_dim=5, task_dim=3,
                                 num_experts=num_experts, k_s=k_s, k_t=k_t)
    x_hat = Tensor(rng.normal(size=(1, 5)))
    task = Tensor(rng.normal(size=(1, 3)))

    print(f"{num_experts} experts, vote size k_s={k_s}, task shortlist k_t={k_t}")
    raw = rng.normal(size=(1, num_experts))
    print()
    print("-- the shortlist mask on a raw score row --")
    print(f"raw scores : {raw[0]}")
    print(f"masked     : {gamma_mask(Tensor(raw), k_t).data[0]}")
    print("(entries outside the top k_t collapse to the row minimum,")
    print(" so the ranking inside the shortlist is preserved)")

    print()
    print("-- noise off: the vote is the masked means --")
    quiet = route_batch(x_hat, task, router)
    print(f"mu       : {quiet.mu.data[0]}")
    print(f"sigma    : {quiet.sigma.data[0]}")
    print(f"selected : {quiet.selected[0]}")
    print(f"gates    : {quiet.gates.data[0]}  (sum {quiet.gates.data[0].sum():.12f})")
    print(f"p_choose : {quiet.p_choose.data[0]}")

    print()
    print("-- noise on: scores are resampled around mu --")
    for draw in range(3):
        noisy = route_batch(x_hat, task, router,
                            rng=np.random.default_rng(100 + draw))
        print(f"draw {draw}: h = {noisy.h.data[0]} -> experts {noisy.selected[0]}")

    print()
    print("-- shift invariance --")
    shifted = RouterParams.create(rng, 5, 3, num_experts, k_s, k_t)
    shifted.w_mu1 = router.w_mu1
    shifted.w_mu2 = Tensor(router.w_mu2.data + 10.0 * np.ones_like(router.w_mu2.data))
    moved = route_batch(x_hat, task, shifted)
    drift = np.abs(moved.gates.data - quiet.gates.data).max()
    print(f"adding a constant to every mean score moves the gates by {drift:.2e}")


if __name__ == "__main__":
    main()
