"""The fast model against the slow reference in ``reference_model``.

On small random configs and batches in float64, ``Model.forward`` and
``model_loss`` must give the reference's loss terms, every logit and every
parameter gradient to 1e-10 relative (per tensor, in the 2-norm), and make
the same discrete choices: the router's selected experts and the nodes
each expert's view keeps.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moce import experts as experts_module
from moce.autodiff import Tape, Tensor
from moce.encoder import batch_graphs
from moce.losses import LossToggles
from moce.model import Model, ModelConfig, model_loss
from moce.molgraph import featurize, parse_smiles

from reference_model import REFERENCE_TOL as TOL, reference_forward, rel_error

# one-atom (bondless) molecules, and molecules whose atoms tie in every
# score: the two carbons of CC and the six of benzene are alike
SMILES = ("C", "[NH4+]", "O", "CC", "CCO", "C=O", "CC(N)C=O", "c1ccccc1",
          "C1CC1", "OC(=O)C", "[O-][N+](=O)C")


@st.composite
def cases(draw):
    m = draw(st.integers(1, 4))
    k_t = draw(st.integers(1, m))
    config = ModelConfig(
        embed_dim=draw(st.integers(2, 5)),
        num_gnn_layers=draw(st.integers(1, 2)),
        num_processing_layers=draw(st.integers(1, 2)),
        num_experts=m, k_s=draw(st.integers(1, k_t)), k_t=k_t,
        pool_ratio=draw(st.sampled_from([0.3, 0.5, 1.0])),
        task_dim=draw(st.integers(1, 3)))
    smiles = draw(st.lists(st.sampled_from(SMILES), min_size=1, max_size=4))
    toggles = LossToggles(*draw(st.tuples(*[st.booleans()] * 4)))
    return (config, smiles, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
            toggles, draw(st.sampled_from([0.1, 0.5, 1.0])))


def _fast(model, graphs, tasks, labels, beta, toggles, noise_seeds):
    """Loss terms, logits, gradients and discrete choices of the fast path."""
    kept = []

    def recording(*args, _real=experts_module._sag_weights):
        weights = _real(*args)
        kept.append(np.flatnonzero(weights))
        return weights

    rngs = (None if noise_seeds is None else
            [np.random.Generator(np.random.PCG64(s)) for s in noise_seeds])
    with pytest.MonkeyPatch.context() as mp, Tape() as tape:
        mp.setattr(experts_module, "_sag_weights", recording)
        result = model.forward(batch_graphs(graphs), Tensor(tasks),
                               noise_on=rngs is not None, rngs=rngs)
        loss = model_loss(model, result, labels, beta, toggles)
        grads = tape.backward(loss.overall)
    return loss, result, grads, kept


def _check(config, smiles, seed, noise_on, toggles, beta):
    model = Model.create(config, seed)
    rng = np.random.default_rng(seed)
    graphs = [featurize(parse_smiles(s)) for s in smiles]
    tasks = rng.normal(size=(len(graphs), config.task_dim))
    labels = rng.integers(0, 2, size=len(graphs)).astype(np.float64)
    blocks = config.num_processing_layers
    noise_seeds = ([int(s) for s in rng.integers(0, 2**32, size=blocks)]
                   if noise_on else None)
    loss, result, grads, kept = _fast(model, graphs, tasks, labels, beta,
                                      toggles, noise_seeds)

    params = model.parameters()
    noise = (None if noise_seeds is None else
             [np.random.Generator(np.random.PCG64(s)).standard_normal(
                 size=(len(graphs), config.num_experts)) for s in noise_seeds])
    with Tape() as tape:
        ref = reference_forward(params, config, graphs, tasks, labels, beta,
                                toggles, noise)
        ref_grads = tape.backward(ref.loss["overall"])

    for b, layer in enumerate(result.layers):
        np.testing.assert_array_equal(layer.route.selected, ref.selected[b])
        for j in range(config.num_experts):
            np.testing.assert_array_equal(
                kept[b * config.num_experts + j], ref.kept[b][j])
        assert rel_error(layer.expert_logits.data, ref.expert_logits[b]) <= TOL, b
    assert rel_error(result.logits.data, ref.logits) <= TOL
    assert rel_error(result.per_layer_logits.data, ref.per_layer_logits) <= TOL
    for name, value in ref.loss.items():
        assert rel_error(getattr(loss, name).data, value.data) <= TOL, name
    for name, t in params.items():
        got = grads.get(t, np.zeros_like(t.data))
        want = ref_grads.get(t, np.zeros_like(t.data))
        assert rel_error(got, want) <= TOL, name


class TestMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(cases())
    # B = 1, one atom, every loss term on, noise on
    @example((ModelConfig(embed_dim=3, num_gnn_layers=1, num_processing_layers=2,
                          num_experts=3, k_s=2, k_t=3, task_dim=2),
              ["C"], 7, True, LossToggles(), 0.5))
    # tied node scores in CC and benzene, k_s = E, a bondless molecule
    @example((ModelConfig(embed_dim=4, num_gnn_layers=2, num_processing_layers=1,
                          num_experts=2, k_s=2, k_t=2, task_dim=3),
              ["CC", "c1ccccc1", "O"], 11, False, LossToggles(), 1.0))
    def test_loss_logits_and_gradients(self, case):
        _check(*case)

    @pytest.mark.parametrize("seed", range(3))
    def test_paper_like_routing(self, seed):
        """More experts than a sample selects, a batch of eight, noise on:
        most (sample, expert) pairs are unrouted, as at the paper shape."""
        config = ModelConfig(embed_dim=6, num_gnn_layers=2, num_processing_layers=2,
                             num_experts=8, k_s=2, k_t=4, task_dim=3)
        _check(config, list(SMILES[3:]) + ["C"], seed, True, LossToggles(), 0.3)
