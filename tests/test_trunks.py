import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.checkpoint import load_checkpoint, save_checkpoint
from odnet.data import RDParams, gen_reaction_diffusion_2d
from odnet.errors import CoverageError, ShapeError
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import PatchSet, pou_weight_matrix
from odnet.pod import compute_pod
from odnet.runconfig import build_model, generate_dataset, parse_config, split_indices
from odnet.training import make_optimizer, mse_loss
from odnet.trunks import (
    EnsembleModel,
    PODTrunk,
    PoUTrunk,
    VanillaTrunk,
    export_basis,
)


def make_vanilla(p=3, seed=0, d=2, activation="tanh"):
    return VanillaTrunk(
        init_mlp(MLPConfig(d, (8, 8), p, activation, activate_last=True), seed)
    )


def make_pou(p=3, seed=1, activation="tanh"):
    # two overlapping patches on [-1, 1]^2 plus generous radii
    ps = PatchSet([[-0.5, 0.0], [0.5, 0.0]], [1.4, 1.4], delta=0.1)
    cfg = MLPConfig(2, (8, 8), p, activation, activate_last=True)
    experts = [init_mlp(cfg, seed + k) for k in range(len(ps))]
    return PoUTrunk(ps, experts, p)


def make_branch(n_x, total_p, seed=5, activation="tanh"):
    return init_mlp(
        MLPConfig(n_x, (8, 8), total_p, activation, activate_last=False), seed
    )


def trunk_at(model, y):
    """The stacked trunk matrix at ``y``, each member bound afresh."""
    return model.trunk_forward(tuple(m.bind(y) for m in model.members)).data


def test_pou_single_active_expert_equals_expert():
    trunk = make_pou()
    # strictly inside patch 0 only
    y = np.array([[-1.5, 0.0]])
    assert np.linalg.norm(y[0] - trunk.patchset.centers[0]) < trunk.patchset.radii[0]
    assert np.linalg.norm(y[0] - trunk.patchset.centers[1]) > trunk.patchset.radii[1]
    out = trunk.forward(trunk.bind(y)).data
    expert = trunk.experts[0].forward(y).data
    np.testing.assert_array_equal(out, expert)


def test_pou_symmetric_point_is_mean_of_experts():
    trunk = make_pou()
    y = np.array([[0.0, 0.3]])  # equidistant from both centers
    out = trunk.forward(trunk.bind(y)).data
    e0 = trunk.experts[0].forward(y).data
    e1 = trunk.experts[1].forward(y).data
    np.testing.assert_allclose(out, 0.5 * (e0 + e1), atol=1e-14)


def test_pou_matches_dense_sum_oracle():
    trunk = make_pou(p=4, seed=7)
    rng = np.random.default_rng(3)
    y = rng.uniform(-1.2, 1.2, size=(40, 2))
    w = pou_weight_matrix(trunk.patchset, y, strict=False)
    keep = w.sum(axis=1) > 0
    y = y[keep]
    w = w[keep]
    dense = np.zeros((y.shape[0], 4))
    for k, expert in enumerate(trunk.experts):
        dense += w[:, k][:, None] * expert.forward(y).data  # includes zero-weight experts
    np.testing.assert_allclose(trunk.forward(trunk.bind(y)).data, dense, atol=1e-14)


def test_pou_uncovered_point_errors():
    trunk = make_pou()
    with pytest.raises(CoverageError):
        trunk.bind(np.array([[5.0, 5.0]]))


def test_ensemble_width_law():
    members = [make_vanilla(p=2, seed=0), make_vanilla(p=3, seed=1)]
    model = EnsembleModel(members, make_branch(6, 5), ad.Tensor(np.zeros(()), requires_grad=True))
    y = np.random.default_rng(0).uniform(-1, 1, size=(4, 2))
    assert trunk_at(model, y).shape == (4, 5)
    assert model.total_p == sum(m.p for m in members) == model.branch.config.output_dim


def test_single_member_trunk_identical_to_member():
    member = make_vanilla(p=4, seed=2)
    model = EnsembleModel([member], make_branch(5, 4), None)
    y = np.random.default_rng(1).uniform(-1, 1, size=(6, 2))
    np.testing.assert_array_equal(trunk_at(model, y), member.forward(y).data)


def test_full_scale_widths_vanilla_pod():
    # (vanilla p=100, pod p=20) stacks to a width-120 trunk
    rng = np.random.default_rng(0)
    snapshots = rng.normal(size=(30, 40))
    y_locs = rng.uniform(-1, 1, size=(40, 2))
    pod_member = PODTrunk(compute_pod(snapshots, 20, y_locations=y_locs), 20, modified=False)
    vanilla = make_vanilla(p=100, seed=3)
    model = EnsembleModel(
        [vanilla, pod_member],
        make_branch(7, 120),
        ad.Tensor(np.zeros(()), requires_grad=True),
    )
    assert model.total_p == 120
    assert trunk_at(model, y_locs).shape == (40, 120)


def test_p_plus_one_vanilla_width_700():
    # seven global trunks of p=100 express the overparametrized ensemble
    members = [make_vanilla(p=100, seed=s) for s in range(7)]
    model = EnsembleModel(members, make_branch(4, 700), ad.Tensor(np.zeros(()), requires_grad=True))
    assert model.total_p == 700


def test_predict_zero_branch_zero_bias_is_zero():
    member = make_vanilla(p=3, seed=4)
    branch = make_branch(5, 3)
    for w in branch.weights:
        w.data[:] = 0.0
    model = EnsembleModel([member], branch, ad.Tensor(np.zeros(()), requires_grad=True))
    u = np.random.default_rng(2).uniform(-1, 1, size=(2, 5))
    y = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
    np.testing.assert_array_equal(model.predict(u, y).data, np.zeros((2, 7)))


def test_ensemble_of_one_equals_standalone_inner_product():
    # ensemble path vs a plain numpy branch.trunk + b0 computation
    member = make_vanilla(p=6, seed=5)
    branch = make_branch(9, 6, seed=6)
    bias = ad.Tensor(np.array(0.37), requires_grad=True)
    model = EnsembleModel([member], branch, bias)
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, size=(3, 9))
    y = rng.uniform(-1, 1, size=(11, 2))
    pred = model.predict(u, y).data
    manual = branch.forward(u).data @ member.forward(y).data.T + 0.37
    assert np.max(np.abs(pred - manual)) < 1e-14


def test_predict_hand_computed_tiny_case():
    # 2 functions x 3 points with hand-set weights on 1-layer nets
    mcfg = MLPConfig(1, (1,), 2, "relu", activate_last=True)
    trunk_mlp = init_mlp(mcfg, 0)
    trunk_mlp.weights[0].data[:] = [[1.0]]
    trunk_mlp.biases[0].data[:] = [0.0]
    trunk_mlp.weights[1].data[:] = [[1.0, -1.0]]
    trunk_mlp.biases[1].data[:] = [0.0, 0.5]
    bcfg = MLPConfig(2, (1,), 2, "relu", activate_last=False)
    branch = init_mlp(bcfg, 0)
    branch.weights[0].data[:] = [[1.0], [1.0]]
    branch.biases[0].data[:] = [0.0]
    branch.weights[1].data[:] = [[2.0, 1.0]]
    branch.biases[1].data[:] = [0.0, 1.0]
    model = EnsembleModel(
        [VanillaTrunk(trunk_mlp)], branch, ad.Tensor(np.array(0.25), requires_grad=True)
    )
    u = np.array([[1.0, 1.0], [0.5, 0.0]])  # hidden: relu(2)=2, relu(0.5)=0.5
    y = np.array([[1.0], [2.0], [-1.0]])
    # trunk rows: h=relu(y); [relu(h), relu(-h+0.5)]
    trunk_rows = []
    for yy in (1.0, 2.0, -1.0):
        h = max(yy, 0.0)
        trunk_rows.append([max(h, 0.0), max(-h + 0.5, 0.0)])
    trunk_rows = np.array(trunk_rows)
    branch_rows = np.array([[4.0, 3.0], [1.0, 1.5]])  # [2h, h+1]
    expected = branch_rows @ trunk_rows.T + 0.25
    np.testing.assert_allclose(model.predict(u, y).data, expected, atol=1e-14)


def test_standard_pod_offset_and_no_bias():
    rng = np.random.default_rng(5)
    snapshots = rng.normal(size=(8, 12)) + 2.0
    y_locs = rng.uniform(0, 1, size=(12, 2))
    member = PODTrunk(compute_pod(snapshots, 4, y_locations=y_locs), 4, modified=False)
    branch = make_branch(6, 4, seed=8)
    for w in branch.weights:
        w.data[:] = 0.0
    model = EnsembleModel([member], branch, None)  # standalone standard POD: no b0
    u = rng.uniform(-1, 1, size=(3, 6))
    pred = model.predict(u, y_locs).data
    # zero branch coefficients leave exactly the mean-function offset
    expected = np.tile(snapshots.mean(axis=0), (3, 1))
    np.testing.assert_allclose(pred, expected, atol=1e-14)


def test_pod_member_rejects_off_grid_points():
    rng = np.random.default_rng(6)
    snapshots = rng.normal(size=(6, 10))
    y_locs = rng.uniform(0, 1, size=(10, 2))
    member = PODTrunk(compute_pod(snapshots, 3, y_locations=y_locs), 3, modified=True)
    with pytest.raises(IndexError):
        member.bind(rng.uniform(0, 1, size=(4, 2)))


def _pod_member(y_locs, modified):
    rng = np.random.default_rng(17)
    snapshots = rng.normal(size=(6, y_locs.shape[0])) + 1.0
    return PODTrunk(compute_pod(snapshots, 3, y_locations=y_locs), 3, modified=modified)


def test_pod_row_lookup_permuted_subset_repeated():
    y_locs = np.random.default_rng(18).uniform(0, 1, size=(10, 2))
    member = _pod_member(y_locs, modified=True)
    for rows in (np.random.default_rng(19).permutation(10),  # permuted
                 np.array([7, 2, 5]),                         # subset
                 np.array([3, 3, 0, 9, 3, 0])):               # repeated
        bound = member.bind(y_locs[rows])
        np.testing.assert_array_equal(bound.rows, rows)
        assert bound.columns.data.tobytes() == member.columns[rows].tobytes()
        assert not bound.columns.data.flags.writeable  # shared by every step
    # no lookup table or cache is kept on the member
    assert not any(isinstance(v, dict) for v in vars(member).values())


def test_pod_row_lookup_is_exact_bytes():
    y_locs = np.array([[0.0, 0.5], [0.25, 0.5], [0.5, 0.75], [1.0, 0.0]])
    member = _pod_member(y_locs, modified=False)
    assert member.bind(np.array([[0.0, 0.5]])).rows.tolist() == [0]
    for off_grid in ([[-0.0, 0.5]],                        # -0.0 differs from 0.0
                     [[0.25, np.nextafter(0.5, 1.0)]],     # 1 ulp away
                     [[1.0, 0.0], [0.75, 0.75]],           # one row off the grid
                     [[0.0, 0.0]]):                        # bytes sort before every row
        with pytest.raises(IndexError):
            member.bind(np.array(off_grid))


def test_pod_row_lookup_keeps_the_bytes_keyed_contract():
    # duplicates bind to the last equal basis row; a NaN matches only the
    # same payload bytes; an empty Y binds to no rows
    nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                            dtype=np.uint64).view(np.float64)
    y_locs = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [nan_a, 0.25]])
    member = _pod_member(y_locs, modified=True)
    assert member.bind(np.array([[0.0, 0.0]])).rows.tolist() == [2]
    assert member.bind(y_locs[3:]).rows.tolist() == [3]
    empty = member.bind(np.zeros((0, 2)))
    assert empty.rows.shape == (0,) and empty.columns.data.shape == (0, 3)
    off = y_locs[3:].copy()
    off[0, 0] = nan_b
    with pytest.raises(IndexError):
        member.bind(off)


def test_reused_binding_sees_in_place_weight_changes():
    # the parts a model keeps for Y hold the experts, not their outputs:
    # after training-style in-place updates a taped prediction from them
    # is what a model that never served Y predicts, bit for bit
    rng = np.random.default_rng(20)
    y = rng.uniform(0.0, 1.0, size=(12, 2))
    pod = _pod_member(y, modified=False)
    pou = make_pou(p=3, seed=21)
    vanilla = make_vanilla(p=2, seed=22)
    model = EnsembleModel([vanilla, pod, pou], make_branch(4, 8, seed=23),
                          ad.Tensor(np.array(0.1), requires_grad=True))
    u = rng.uniform(-1, 1, size=(3, 4))
    taped = model.predict(u, y, ad.Tape()).data
    assert taped.tobytes() == _unserved(model, u, y).tobytes()
    for t in model.parameters():
        t.data += 0.01 * rng.normal(size=t.data.shape)
    taped = model.predict(u, y, ad.Tape()).data
    assert taped.tobytes() == _unserved(model, u, y).tobytes()
    assert taped.tobytes() == model.predict(u, y).data.tobytes()


def test_pod_member_has_no_parameters():
    rng = np.random.default_rng(7)
    member = PODTrunk(
        compute_pod(rng.normal(size=(6, 10)), 3, y_locations=rng.uniform(0, 1, (10, 2))),
        3,
        modified=True,
    )
    assert member.parameters() == []


def test_pou_locality_perturbation():
    trunk = make_pou(p=3, seed=9)
    branch = make_branch(4, 3, seed=10)
    model = EnsembleModel([trunk], branch, ad.Tensor(np.zeros(()), requires_grad=True))
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, size=(2, 4))
    y = rng.uniform(-1.2, 1.2, size=(60, 2))
    w = pou_weight_matrix(trunk.patchset, y, strict=False)
    y = y[w.sum(axis=1) > 0]
    w = pou_weight_matrix(trunk.patchset, y)
    before = model.predict(u, y).data.copy()
    trunk.experts[1].weights[0].data += 0.1
    after = model.predict(u, y).data
    inactive = w[:, 1] == 0.0
    assert np.any(inactive) and np.any(~inactive)
    # machine-exact zeros where the perturbed expert has no weight
    assert np.array_equal(before[:, inactive], after[:, inactive])
    assert np.all(np.abs(before[:, ~inactive] - after[:, ~inactive]).max(axis=0) > 0)


def test_branch_trunk_activation_rules_enforced():
    with pytest.raises(ValueError):
        VanillaTrunk(init_mlp(MLPConfig(2, (4,), 3, "tanh", activate_last=False), 0))
    member = make_vanilla(p=3)
    bad_branch = init_mlp(MLPConfig(5, (4,), 3, "tanh", activate_last=True), 0)
    with pytest.raises(ValueError):
        EnsembleModel([member], bad_branch, None)


def test_branch_width_mismatch_rejected():
    member = make_vanilla(p=3)
    with pytest.raises(ShapeError):
        EnsembleModel([member], make_branch(5, 4), None)


def test_predict_input_width_mismatch():
    member = make_vanilla(p=3)
    model = EnsembleModel([member], make_branch(5, 3), None)
    with pytest.raises(ShapeError, match="N_x"):
        model.predict(np.zeros((2, 4)), np.zeros((3, 2)))


def test_export_basis_pod_phi0_exact():
    rng = np.random.default_rng(9)
    snapshots = rng.normal(size=(6, 10)) + 1.5
    y_locs = rng.uniform(0, 1, size=(10, 2))
    member = PODTrunk(compute_pod(snapshots, 3, y_locations=y_locs), 3, modified=True)
    vanilla = make_vanilla(p=2, seed=11)
    model = EnsembleModel(
        [vanilla, member], make_branch(4, 5, seed=12),
        ad.Tensor(np.zeros(()), requires_grad=True),
    )
    # member columns start after the vanilla block: column 2 is phi0
    np.testing.assert_array_equal(
        export_basis(model, y_locs, [2])[:, 0], snapshots.mean(axis=0)
    )
    # vanilla column equals the MLP output component
    np.testing.assert_array_equal(
        export_basis(model, y_locs, [1])[:, 0], vanilla.forward(y_locs).data[:, 1]
    )


def test_export_basis_pou_zero_outside_coverage():
    trunk = make_pou(p=3, seed=13)
    model = EnsembleModel([trunk], make_branch(4, 3, seed=14), None)
    y = np.array([[0.1, 0.2], [5.0, 5.0], [-1.5, 0.0]])
    col = export_basis(model, y, [0])[:, 0]
    assert col[1] == 0.0
    assert col[0] != 0.0 and col[2] != 0.0
    # single-active-expert point matches that expert's component
    np.testing.assert_allclose(
        col[2], trunk.experts[0].forward(y[2:3]).data[0, 0], atol=1e-15
    )


def test_export_basis_out_of_range():
    member = make_vanilla(p=3)
    model = EnsembleModel([member], make_branch(5, 3), None)
    with pytest.raises(IndexError):
        export_basis(model, np.zeros((2, 2)), [0, 3])


def test_export_basis_binds_each_member_once(monkeypatch):
    # columns in any order, repeated, across vanilla + modified POD + PoU:
    # the same bytes as one column at a time, with one PoU weight matrix
    import odnet.trunks

    rng = np.random.default_rng(17)
    snapshots = rng.normal(size=(6, 10)) + 1.5
    y_locs = rng.uniform(-1, 1, size=(10, 2))
    members = [
        make_vanilla(p=2, seed=18),
        PODTrunk(compute_pod(snapshots, 3, y_locations=y_locs), 3, modified=True),
        make_pou(p=3, seed=19),
    ]
    model = EnsembleModel(members, make_branch(4, 8, seed=20), None)
    columns = [7, 2, 0, 4, 5, 2, 1, 3, 6]
    one_by_one = np.stack([export_basis(model, y_locs, [c])[:, 0] for c in columns], axis=1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pou_weight_matrix(*args, **kwargs)

    monkeypatch.setattr(odnet.trunks, "pou_weight_matrix", counting)
    together = export_basis(model, y_locs, columns)
    assert together.shape == (10, len(columns))
    assert together.tobytes() == one_by_one.tobytes()
    assert len(calls) == 1


def test_checkpointable_parameter_hash_changes():
    member = make_vanilla(p=3, seed=15)
    model = EnsembleModel([member], make_branch(5, 3, seed=16), None)
    h1 = model.parameter_hash()
    member.mlp.weights[0].data += 1.0
    assert model.parameter_hash() != h1


# --- the entry for the last locations served ---

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _bundled(name):
    """A bundled config's model on a small dataset of its generator."""
    cfg = parse_config((CONFIG_DIR / name).read_text())
    if cfg.data.generator == "rd2d":
        ds = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 16, seed=0)
    else:
        ds = generate_dataset(cfg.data)
    train_idx, _ = split_indices(ds.n_samples, ds.n_samples // 4, 0)
    return cfg, ds, build_model(cfg, ds, train_idx, seed=0)


def _unserved(model, u, y):
    """A taped prediction by a model over the same networks that has
    served no locations yet: it binds and evaluates the trunk afresh."""
    return EnsembleModel(model.members, model.branch, model.bias).predict(u, y, ad.Tape()).data


def _count_trunk_forwards(model):
    calls = []
    inner = model.trunk_forward

    def counting(parts, tape=None):
        calls.append(tape)
        return inner(parts, tape)

    model.trunk_forward = counting
    return calls


def _mixed_model(y, seed=30):
    """Vanilla, standard POD (rows of y) and PoU members under one branch."""
    return EnsembleModel([make_vanilla(p=2, seed=seed), _pod_member(y, modified=False),
                          make_pou(p=3, seed=seed + 1)],
                         make_branch(4, 8, seed=seed + 2),
                         ad.Tensor(np.array(0.1), requires_grad=True))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_cached_and_uncached_predictions_are_the_same_bytes(name):
    _, ds, model = _bundled(name)
    calls = _count_trunk_forwards(model)
    first = model.predict(ds.U, ds.Y).data
    second = model.predict(ds.U[::-1], ds.Y.copy()).data  # equal bytes: a hit
    assert calls == [None]
    assert first.tobytes() == _unserved(model, ds.U, ds.Y).tobytes()
    assert second.tobytes() == _unserved(model, ds.U[::-1], ds.Y).tobytes()


@pytest.mark.parametrize("name, records", [("rd2d-vanilla.ini", 9),
                                           ("rd2d-vanilla-pod-pou.ini", 35)])
def test_tape_records_of_one_training_step(name, records):
    # one record per layer (activation folded in), one product, one loss;
    # the ensemble adds 6 experts x 4 layers, the PoU blend and the concat
    _, ds, model = _bundled(name)
    tape = ad.Tape()
    mse_loss(model.predict(ds.U, ds.Y, tape), ds.scalar_targets(), tape)
    assert len(tape) == records


def _reloaded_prediction(model, cfg, ds, path):
    save_checkpoint(model, cfg.text, path, seed=0)
    return load_checkpoint(path, ds)[0].predict(ds.U, ds.Y).data


def test_cache_follows_optimizer_steps_and_in_place_edits(tmp_path):
    cfg, ds, model = _bundled("rd2d-vanilla-pod-pou.ini")
    stale = model.predict(ds.U, ds.Y).data
    optimizer = make_optimizer(model, cfg.train)
    tape = ad.Tape()
    loss = mse_loss(model.predict(ds.U, ds.Y, tape), ds.scalar_targets(), tape)
    tape.backward(loss)
    optimizer.step(1e-2)
    stepped = model.predict(ds.U, ds.Y).data
    assert stepped.tobytes() != stale.tobytes()
    assert stepped.tobytes() == _reloaded_prediction(model, cfg, ds, tmp_path / "a.odm").tobytes()
    # one expert weight edited in place, the branch untouched
    pou = model.members[2]
    pou.experts[0].weights[0].data += 0.01
    edited = model.predict(ds.U, ds.Y).data
    assert edited.tobytes() != stepped.tobytes()
    assert edited.tobytes() == _reloaded_prediction(model, cfg, ds, tmp_path / "b.odm").tobytes()


def test_cache_sees_a_sign_of_zero_and_a_nan_payload():
    # edits that compare equal as floats, or unequal to themselves, still
    # change bits: each one evaluates the trunk again, and nothing else does
    y = np.random.default_rng(36).uniform(-0.9, 0.9, size=(10, 2))
    model = _mixed_model(y)
    calls = _count_trunk_forwards(model)
    u = np.ones((2, 4))
    bias = model.members[0].mlp.biases[0].data  # Glorot init: zero biases
    model.predict(u, y)
    bias[0] = -0.0
    model.predict(u, y)
    weight = model.members[2].experts[0].weights[0].data
    quiet_nan = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)
    weight[0, 0] = quiet_nan[0]
    model.predict(u, y)
    model.predict(u, y)
    weight[0, 0] = quiet_nan[1]
    model.predict(u, y)
    assert calls == [None] * 4


def test_locations_changed_in_place_are_bound_again():
    rng = np.random.default_rng(31)
    y_grid = rng.uniform(-0.9, 0.9, size=(12, 2))
    model = _mixed_model(y_grid)
    u = rng.uniform(-1, 1, size=(3, 4))
    y = y_grid.copy()
    before = model.predict(u, y).data
    y[:] = y_grid[::-1]  # still on the POD grid, in another order
    after = model.predict(u, y).data
    assert after.tobytes() == _unserved(model, u, y_grid[::-1]).tobytes()
    assert after.tobytes() == before[:, ::-1].tobytes()
    # and back at a new array of the first bytes, taped and untaped
    assert model.predict(u, y_grid.copy(), ad.Tape()).data.tobytes() == before.tobytes()
    assert model.predict(u, y_grid.copy()).data.tobytes() == before.tobytes()


def test_an_edit_of_served_locations_reaches_no_member():
    # the entry keeps its own copy of Y: shifting the caller's array after
    # a call moves neither the vanilla, the POD nor the PoU part of it
    rng = np.random.default_rng(35)
    y_grid = rng.uniform(-0.9, 0.9, size=(12, 2))
    model = _mixed_model(y_grid)
    u = rng.uniform(-1, 1, size=(3, 4))
    y = y_grid.copy()
    first = model.predict(u, y).data
    y[:, 0] += 0.05
    assert model.predict(u, y_grid.copy(), ad.Tape()).data.tobytes() == first.tobytes()
    assert model.predict(u, y_grid.copy()).data.tobytes() == first.tobytes()


def test_a_taped_call_elsewhere_replaces_the_entry(tmp_path):
    # untaped at Y1, a taped step at Y2, then untaped at Y1 again: the
    # last call binds Y1 anew and predicts what a reloaded model does
    cfg, ds, model = _bundled("rd2d-vanilla-pod-pou.ini")
    first = model.predict(ds.U, ds.Y).data
    optimizer = make_optimizer(model, cfg.train)
    tape = ad.Tape()
    half = ds.Y[::2]
    tape.backward(mse_loss(model.predict(ds.U, half, tape), ds.scalar_targets()[:, ::2], tape))
    optimizer.step(1e-2)
    again = model.predict(ds.U, ds.Y).data
    assert again.tobytes() != first.tobytes()
    assert again.tobytes() == _reloaded_prediction(model, cfg, ds, tmp_path / "a.odm").tobytes()


def test_cached_trunk_is_read_only():
    y = np.random.default_rng(32).uniform(-0.9, 0.9, size=(10, 2))
    model = _mixed_model(y)
    model.predict(np.ones((2, 4)), y)
    trunk = model._served.trunk.data
    assert trunk.shape == (10, 8) and not trunk.flags.writeable
    with pytest.raises(ValueError):
        trunk[0, 0] = 1.0


def test_a_served_patch_set_cannot_be_edited_in_place():
    # the entry holds PoU weights of the patches it was bound with; an
    # edit in place would leave them stale, so the arrays refuse it
    _, ds, model = _bundled("rd2d-vanilla-pou.ini")
    first = model.predict(ds.U, ds.Y).data
    patchset = model.members[1].patchset
    with pytest.raises(ValueError):
        patchset.centers[0, 0] += 0.05
    with pytest.raises(ValueError):
        patchset.radii[0] *= 2.0
    assert model.predict(ds.U, ds.Y).data.tobytes() == first.tobytes()
    assert _unserved(model, ds.U, ds.Y).tobytes() == first.tobytes()


def test_taped_gradients_match_finite_differences_through_the_cache():
    # the differences are untaped predictions after in-place parameter
    # edits: a stale trunk matrix would give a zero trunk gradient
    rng = np.random.default_rng(33)
    y = rng.uniform(-0.9, 0.9, size=(9, 2))
    model = _mixed_model(y)
    u = rng.uniform(-1, 1, size=(4, 4))
    v = rng.normal(size=(4, 9))
    model.predict(u, y)  # a warm cache
    tape = ad.Tape()
    tape.backward(mse_loss(model.predict(u, y, tape), v, tape))
    h = 1e-6
    checked = 0
    for t in model.parameters():
        flat = t.data.reshape(-1)
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            up = float(mse_loss(model.predict(u, y), v).data)
            flat[i] = orig - h
            down = float(mse_loss(model.predict(u, y), v).data)
            flat[i] = orig
            numeric, analytic = (up - down) / (2.0 * h), t.grad.reshape(-1)[i]
            assert abs(numeric - analytic) <= 1e-6 * max(abs(numeric), abs(analytic), 1e-3)
            checked += 1
    assert checked > 50


def test_model_that_served_predictions_is_freed_without_gc():
    # the entry must not point back at its model: a cycle would keep every
    # dead model alive until the cyclic collector runs
    y = np.random.default_rng(34).uniform(-0.9, 0.9, size=(10, 2))
    gc.disable()
    try:
        model = _mixed_model(y)
        model.predict(np.ones((2, 4)), y)
        model.predict(np.ones((2, 4)), y, ad.Tape())
        model.predict(np.ones((2, 4)), y)
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()
