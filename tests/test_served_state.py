"""A stateful property test of the entry a model keeps for the locations
it last served.

Rules interleave untaped and taped predictions (at the training Y, at a
row permutation or subset of it, off the POD grid), training steps, in-place edits
of a trunk parameter (0.0 -> -0.0 included), of a branch parameter and of
the caller's Y, and a save followed by a load. After each prediction:

- it equals, bit for bit, the prediction of a model rebuilt from
  ``collect_state``, which has served nothing;
- an untaped call evaluated the trunk exactly when the (Y bytes, trunk
  bytes) pair differs from the one its cached matrix came from, so the
  trunk runs at most once per pair while the entry holds it, and never
  goes stale.

After each rule a taped and an untaped call at the entry's locations
check both.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from odnet import autodiff as ad
from odnet.checkpoint import collect_state, load_checkpoint, save_checkpoint
from odnet.networks import MLP
from odnet.runconfig import assemble_model, build_model, generate_dataset, parse_config
from odnet.training import make_optimizer, mse_loss

from test_parameter_buffer import TINY

CFG = parse_config(TINY)
DS = generate_dataset(CFG.data)
Y_GRID = DS.Y.copy()
Y_GRID.flags.writeable = False
U = DS.U[:4]
TARGETS = DS.scalar_targets()


def _rebuilt(model):
    """A model over copies of ``model``'s stored arrays, as loading builds it."""
    _, arrays = collect_state(model)

    def stored_mlp(name, mcfg, _seed):
        layers = range(len(mcfg.layer_dims) - 1)
        return MLP(mcfg, *([ad.Tensor(arrays[f"{name}.layer{j}.{part}"].copy(), requires_grad=True)
                            for j in layers] for part in ("weight", "bias")))

    rebuilt = assemble_model(CFG, DS.n_x, DS.d_v, None, stored_mlp,
                             lambda i, spec: model.members[i].basis)
    rebuilt.bias.data[...] = arrays["bias"]
    return rebuilt


def _key(y):
    y = np.asarray(y, dtype=np.float64)
    return y.shape, y.tobytes()


def _on_grid(y):
    grid = {row.tobytes() for row in Y_GRID}
    return all(row.tobytes() in grid for row in np.asarray(y, dtype=np.float64))


class ServedEntry(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.y = Y_GRID.copy()  # the caller's array, edited in place by a rule
        self._adopt(build_model(CFG, DS, np.arange(DS.n_samples), seed=0))
        self._predict(self.y, False)  # the entry starts from the caller's array

    def _adopt(self, model):
        """Start over with ``model``: a new optimizer, an empty entry, and
        a count of the untaped trunk evaluations."""
        self.model = model
        self.optimizer = make_optimizer(model, CFG.train)
        self.entry_y = None  # a copy of the locations the entry is keyed by
        self.entry_trunk = None  # the trunk bytes its cached matrix came from
        self.evaluations = 0
        inner = model.trunk_forward

        def counting(parts, tape=None):
            self.evaluations += tape is None
            return inner(parts, tape)

        model.trunk_forward = counting

    def _trunk_bytes(self):
        return b"".join(t.data.tobytes() for m in self.model.members for t in m.parameters())

    def _predict(self, y, taped):
        if not _on_grid(y):
            with pytest.raises(IndexError):
                self.model.predict(U, y, ad.Tape() if taped else None)
            return
        expected = _rebuilt(self.model).predict(U, y).data
        before = self.evaluations
        got = self.model.predict(U, y, ad.Tape() if taped else None).data
        assert got.tobytes() == expected.tobytes()
        if self.entry_y is None or _key(y) != _key(self.entry_y):
            self.entry_y, self.entry_trunk = np.array(y, dtype=np.float64), None
        if not taped:
            stale = self.entry_trunk != self._trunk_bytes()
            assert self.evaluations - before == int(stale)
            self.entry_trunk = self._trunk_bytes()

    @rule(taped=st.booleans())
    def predict_at_the_callers_y(self, taped):
        self._predict(self.y, taped)

    @rule(seed=st.none() | st.integers(0, 3), half=st.booleans(), taped=st.booleans())
    def predict_at_rows_of_the_grid(self, seed, half, taped):
        """At a new array: the grid's rows permuted, or (seed None) in
        order, all of them or the first half."""
        order = np.arange(len(Y_GRID)) if seed is None else \
            np.random.default_rng(seed).permutation(len(Y_GRID))
        self._predict(Y_GRID[order[:len(order) // 2] if half else order], taped)

    @rule()
    def predict_off_the_pod_grid(self):
        self._predict(Y_GRID + 0.01, False)

    @rule()
    def train_one_step(self):
        y = Y_GRID.copy()
        tape = ad.Tape()
        self._predict(y, True)  # the same prediction, checked
        loss = mse_loss(self.model.predict(U, y, tape), TARGETS[:4], tape)
        self.optimizer.zero_grad()
        tape.backward(loss)
        self.optimizer.step(1e-2)

    def _edit(self, tensors, index, sign_of_zero):
        """Flip the sign of a zero element (equal as a float, other bits),
        or else add 0.25 to one element. The uncovered expert's biases
        never learn, so the trunk always has a zero."""
        if sign_of_zero:
            tensors = [t for t in tensors if np.any(t.data == 0.0)] or tensors
        flat = tensors[index % len(tensors)].data.reshape(-1)
        zeros = np.flatnonzero(flat == 0.0)
        if sign_of_zero and zeros.size:
            i = zeros[index % zeros.size]
            flat[i] = -flat[i]
        else:
            flat[index % flat.size] += 0.25

    @rule(index=st.integers(0, 10**6), sign_of_zero=st.booleans())
    def edit_a_trunk_parameter(self, index, sign_of_zero):
        self._edit([t for m in self.model.members for t in m.parameters()], index, sign_of_zero)

    @rule(index=st.integers(0, 10**6))
    def edit_a_branch_parameter(self, index):
        self._edit(self.model.branch.parameters(), index, False)

    @rule(row=st.integers(0, len(Y_GRID) - 1), other=st.integers(0, len(Y_GRID) - 1),
          off_grid=st.booleans())
    def edit_the_callers_y(self, row, other, off_grid):
        self.y[row] = Y_GRID[other] + (0.01 if off_grid else 0.0)

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.odm"
            save_checkpoint(self.model, CFG.text, path)
            loaded = load_checkpoint(path, DS)[0]
        assert loaded.parameter_hash() == self.model.parameter_hash()
        self._adopt(loaded)

    @invariant()
    def parameters_stay_in_the_buffer(self):
        assert all(np.shares_memory(p.data, self.model._values) for p in self.model.parameters())

    @invariant()
    def served_locations_predict_afresh(self):
        """A taped and an untaped call at (a copy of) the entry's locations:
        every rule is followed by both, so an edit is always checked against
        a warm entry."""
        if self.entry_y is not None:
            for taped in (True, False):
                self._predict(self.entry_y.copy(), taped)


ServedEntry.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                         deadline=None, derandomize=True)
test_served_entry = ServedEntry.TestCase
