"""Every trainable tensor of a model is a view into one flat vector.

The model's hash and its served-trunk check read that vector, and Adam
steps it in one pass, so a parameter must never leave it: not through
training, loading, or a second model built over the same networks.
"""

import copy
import pickle
import zlib

import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.checkpoint import load_checkpoint, save_checkpoint
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import PatchSet, pou_weight_matrix
from odnet.runconfig import build_model, generate_dataset, parse_config, split_indices
from odnet.training import Adam, TrainConfig, make_optimizer, mse_loss, train
from odnet.trunks import EnsembleModel, PoUTrunk, VanillaTrunk

# vanilla + standard POD + PoU; the PoU bbox reaches past the data in
# [0, 2]^2, so of its three patches the last covers no location
TINY = """
[data]
generator = rd2d
n = 12
seed = 3
grid = 6
branch_grid = 2

[model]
members = v pod pu
branch_hidden = 6
activation = tanh

[trunk.v]
kind = vanilla
p = 3
hidden = 5

[trunk.pod]
kind = pod
p = 2
modified = false

[trunk.pu]
kind = pou
p = 3
hidden = 5
bbox = 0 8 0 2
grid = 3 1
delta = 0.1

[train]
epochs = 3
optimizer = adamw
seeds = 0

[eval]
test_count = 3
"""


def _tiny():
    cfg = parse_config(TINY)
    ds = generate_dataset(cfg.data)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    return cfg, ds, train_idx, build_model(cfg, ds, train_idx, seed=0)


def _in_buffer(model, buffer=None):
    buffer = model._values if buffer is None else buffer
    return all(np.shares_memory(p.data, buffer) for p in model.parameters())


def test_parameters_stay_in_the_buffer_through_train_load_and_a_rebuild(tmp_path):
    cfg, ds, train_idx, model = _tiny()
    assert _in_buffer(model)
    train(model, ds.U[train_idx], ds.scalar_targets()[train_idx], ds.Y, cfg.train)
    assert _in_buffer(model)
    save_checkpoint(model, cfg.text, tmp_path / "m.odm", seed=0)
    loaded = load_checkpoint(tmp_path / "m.odm", ds)[0]
    assert _in_buffer(loaded) and loaded.parameter_hash() == model.parameter_hash()
    # a second model over the same networks adopts the first one's buffer
    again = EnsembleModel(model.members, model.branch, model.bias)
    assert _in_buffer(again, model._values) and _in_buffer(model)
    model.branch.weights[0].data[0, 0] += 1.0
    assert again.parameter_hash() == model.parameter_hash() != loaded.parameter_hash()


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_model_and_optimizer_get_a_buffer_of_their_own(duplicate):
    cfg, ds, train_idx, model = _tiny()
    optimizer = make_optimizer(model, cfg.train)
    model.predict(ds.U, ds.Y)  # a warm entry travels with the copy
    before = model.parameter_hash()
    twin, twin_optimizer = duplicate((model, optimizer))
    assert _in_buffer(twin) and not np.shares_memory(twin._values, model._values)
    assert np.shares_memory(twin_optimizer._values, twin._values)
    assert twin.parameter_hash() == before
    twin.members[0].mlp.weights[0].data[0, 0] += 1.0
    assert twin.parameter_hash() != before
    assert twin.predict(ds.U, ds.Y).data.tobytes() == \
        twin.predict(ds.U, ds.Y, ad.Tape()).data.tobytes()
    tape = ad.Tape()
    tape.backward(mse_loss(twin.predict(ds.U, ds.Y, tape), ds.scalar_targets(), tape))
    edited = twin.parameter_hash()
    twin_optimizer.step(1e-2)
    assert twin.parameter_hash() != edited and model.parameter_hash() == before
    # a new model over copied networks lays them out afresh; mixing them
    # with networks that lie in another model's vector would detach those
    other = EnsembleModel(copy.deepcopy(model.members), copy.deepcopy(model.branch), None)
    assert _in_buffer(other) and not np.shares_memory(other._values, model._values)
    with pytest.raises(ValueError, match="not in this order"):
        EnsembleModel(model.members, copy.deepcopy(model.branch), None)
    assert _in_buffer(model)


def test_first_gradient_is_written_into_the_gradient_vector():
    cfg, ds, train_idx, model = _tiny()
    optimizer = make_optimizer(model, cfg.train)
    tape = ad.Tape()
    tape.backward(mse_loss(model.predict(ds.U, ds.Y, tape), ds.scalar_targets(), tape))
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    assert len(grads) == len(model.parameters()) - 4  # the uncovered expert's four
    assert all(np.shares_memory(g, optimizer._grads) for g in grads)


def test_parameter_hash_is_the_chained_crc_of_each_tensor():
    cfg, ds, train_idx, model = _tiny()
    train(model, ds.U[train_idx], ds.scalar_targets()[train_idx], ds.Y, cfg.train)
    crc = 0
    for t in model.parameters():
        crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
    assert model.parameter_hash() == f"{crc:08x}"


def _slices(params, vector):
    bounds = np.cumsum([0, *(p.data.size for p in params)])
    return [vector[lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])]


def test_an_expert_without_points_keeps_its_value_and_moments():
    # both experts learn at y_all; at y_left only expert 0 has points, so
    # expert 1 has no gradient and neither its weights (decay included)
    # nor its moments may move
    ps = PatchSet([[-0.5, 0.0], [0.5, 0.0]], [1.4, 1.4], delta=0.1)
    ecfg = MLPConfig(2, (6,), 3, "tanh", activate_last=True)
    pou = PoUTrunk(ps, [init_mlp(ecfg, k) for k in range(2)], 3)
    model = EnsembleModel([pou], init_mlp(MLPConfig(4, (6,), 3, "tanh", False), 7),
                          ad.Tensor(np.zeros(()), requires_grad=True))
    rng = np.random.default_rng(8)
    y_all = rng.uniform(-0.9, 0.9, size=(12, 2))
    y_left = np.column_stack([rng.uniform(-1.85, -1.0, 6), rng.uniform(-0.2, 0.2, 6)])
    assert np.all(pou_weight_matrix(ps, y_left)[:, 1] == 0.0)
    u = rng.uniform(-1, 1, size=(5, 4))
    params = model.parameters()
    optimizer = Adam(params, weight_decay=0.01)

    def step(y):
        optimizer.zero_grad()
        tape = ad.Tape()
        tape.backward(mse_loss(model.predict(u, y, tape), np.ones((5, len(y))), tape))
        optimizer.step(1e-2)

    step(y_all)
    idle = slice(len(pou.experts[0].parameters()), len(pou.parameters()))
    before = [_slices(params, a)[idle] for a in (optimizer._values, optimizer._m, optimizer._v)]
    assert all(np.any(s != 0.0) for kept in before[1:] for s in kept)  # moments are live
    busy = pou.experts[0].weights[0].data.copy()
    step(y_left)
    assert all(p.grad is None for p in pou.experts[1].parameters())
    after = [_slices(params, a)[idle] for a in (optimizer._values, optimizer._m, optimizer._v)]
    assert [[s.tobytes() for s in kept] for kept in after] == \
        [[s.tobytes() for s in kept] for kept in before]
    assert pou.experts[0].weights[0].data.tobytes() != busy.tobytes()


def test_an_expert_without_points_in_a_wide_bbox_is_frozen_by_training():
    cfg, ds, train_idx, model = _tiny()
    idle = model.members[2].experts[2]
    assert not np.any(pou_weight_matrix(model.members[2].patchset, ds.Y)[:, 2] > 0.0)
    before = [p.data.tobytes() for p in idle.parameters()]
    train(model, ds.U[train_idx], ds.scalar_targets()[train_idx], ds.Y,
          TrainConfig(epochs=3, optimizer="adamw", weight_decay=0.1, lr0=1e-2))
    assert [p.data.tobytes() for p in idle.parameters()] == before


def test_a_tensor_listed_twice_is_rejected():
    mlp = init_mlp(MLPConfig(2, (4,), 3, "tanh", activate_last=True), 0)
    branch = init_mlp(MLPConfig(4, (4,), 6, "tanh", False), 1)
    with pytest.raises(ValueError, match="more than once"):
        EnsembleModel([VanillaTrunk(mlp), VanillaTrunk(mlp)], branch, None)
    w = ad.Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError, match="more than once"):
        Adam([w, w])


def test_tensors_of_a_buffer_are_adopted_only_in_order():
    mlp = init_mlp(MLPConfig(2, (4,), 3, "tanh", activate_last=True), 0)
    model = EnsembleModel([VanillaTrunk(mlp)], init_mlp(MLPConfig(4, (4,), 3, "tanh", False), 1),
                          None)
    params = model.parameters()
    assert np.shares_memory(Adam(params[2:5])._values, model._values)
    with pytest.raises(ValueError, match="not in this order"):
        Adam(params[::-1])
    assert _in_buffer(model)
