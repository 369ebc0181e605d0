"""ODM1 model checkpoints.

The file is sealed like ODN1 (see ``data``): magic "ODNMDL01", u32
version = 1, these fields, then the CRC32 of all prior bytes.
    text     run configuration
    text     attributes, "key=value" lines: member kinds, dims, seed, ...
    u32      array count, then per array:
                 text name, u32 ndim, u32 dims (one 1 for a scalar), f64 data

All trainable tensors, patch geometry, and POD arrays are stored, so a
loaded model reproduces predictions bit-exactly. POD members additionally
need the dataset at load time: its output locations Y are matched against
the stored CRC32 reference hash, since modes only exist on that grid.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .data import OperatorDataset, _SealedReader, _SealedWriter
from .errors import DataError
from .networks import MLP, MLPConfig
from .partition import Patch, PatchSet
from .pod import PODBasis, numerical_rank
from .trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk

MAGIC = b"ODNMDL01"
FORMAT_VERSION = 1


def _y_crc(y: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(y, dtype="<f8").tobytes()) & 0xFFFFFFFF


def _mlp_arrays(prefix: str, mlp: MLP, out: dict):
    for j, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.layer{j}.weight"] = w.data
        out[f"{prefix}.layer{j}.bias"] = b.data


def collect_state(model: EnsembleModel):
    """(attrs dict, arrays dict) fully describing the model."""
    attrs = {
        "n_members": str(len(model.members)),
        "bias_present": "1" if model.bias is not None else "0",
        "branch_input_dim": str(model.input_dim),
        "location_dim": str(model.location_dim),
    }
    arrays = {}
    for i, member in enumerate(model.members):
        key = f"member{i}"
        attrs[f"{key}.p"] = str(member.p)
        if isinstance(member, VanillaTrunk):
            attrs[f"{key}.kind"] = "vanilla"
            _mlp_arrays(key, member.mlp, arrays)
        elif isinstance(member, PODTrunk):
            attrs[f"{key}.kind"] = "pod"
            attrs[f"{key}.modified"] = "1" if member.modified else "0"
            attrs[f"{key}.y_crc"] = str(_y_crc(member.basis.y_locations))
            arrays[f"{key}.pod.phi0"] = member.basis.mean_function
            arrays[f"{key}.pod.modes"] = member.basis.modes
            arrays[f"{key}.pod.eigenvalues"] = member.basis.eigenvalues
        elif isinstance(member, PoUTrunk):
            attrs[f"{key}.kind"] = "pou"
            attrs[f"{key}.delta"] = repr(member.patchset.delta)
            arrays[f"{key}.patch_centers"] = member.patchset.centers
            arrays[f"{key}.patch_radii"] = member.patchset.radii
            for k, expert in enumerate(member.experts):
                _mlp_arrays(f"{key}.expert{k}", expert, arrays)
        else:
            raise DataError(f"cannot serialize trunk member type {type(member)!r}")
    _mlp_arrays("branch", model.branch, arrays)
    if model.bias is not None:
        arrays["bias"] = model.bias.data
    return attrs, arrays


def pod_ranks(arrays: dict) -> dict:
    """``pod_rank.<member>`` -> "numerical rank/stored modes" for each POD
    member, from the eigenvalues among a checkpoint's arrays."""
    return {
        f"pod_rank.{name.split('.')[0]}": f"{numerical_rank(lam)}/{lam.size}"
        for name, lam in sorted(arrays.items()) if name.endswith(".pod.eigenvalues")
    }


def save_checkpoint(model: EnsembleModel, config_text: str, path, seed: int = 0):
    attrs, arrays = collect_state(model)
    attrs["seed"] = str(int(seed))
    w = _SealedWriter(MAGIC, FORMAT_VERSION)
    w.text(config_text)
    w.kv(attrs)
    w.u32(len(arrays))
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8")
        w.text(name)
        w.u32(arr.ndim, *(arr.shape or (1,)))
        w.f64(arr)
    w.save(path)


def read_checkpoint_raw(path):
    """(config_text, attrs dict, arrays dict) after CRC verification."""
    r = _SealedReader(path, MAGIC, FORMAT_VERSION, "ODM1", "checkpoint")
    config_text = r.text()
    attrs = r.kv()
    arrays = {}
    for _ in range(r.u32()):
        name, ndim = r.text(), r.u32()
        arrays[name] = r.f64(r.u32(max(ndim, 1))[:ndim])  # a scalar stores one dim, 1
    r.end()
    return config_text, attrs, arrays


def _mlp_from_arrays(prefix: str, arrays: dict, activation: str, activate_last: bool) -> MLP:
    weights, biases = [], []
    j = 0
    while f"{prefix}.layer{j}.weight" in arrays:
        weights.append(ad.Tensor(arrays[f"{prefix}.layer{j}.weight"], requires_grad=True))
        biases.append(ad.Tensor(arrays[f"{prefix}.layer{j}.bias"], requires_grad=True))
        j += 1
    if len(weights) < 2:
        raise DataError(f"checkpoint is missing layers for {prefix!r}")
    dims = [weights[0].data.shape[0]] + [w.data.shape[1] for w in weights]
    cfg = MLPConfig(dims[0], tuple(dims[1:-1]), dims[-1], activation, activate_last)
    return MLP(cfg, weights, biases)


def load_checkpoint(path, dataset: OperatorDataset | None = None):
    """Rebuild the model; returns (model, config_text, attrs).

    ``dataset`` is required when the checkpoint contains a POD member and
    its Y locations must hash-match the stored reference. A missing or
    unreadable attribute or array raises DataError.
    """
    from .runconfig import parse_config

    config_text, attrs, arrays = read_checkpoint_raw(path)
    cfg = parse_config(config_text)
    try:
        n_members = int(attrs["n_members"])
        members = []
        for i in range(n_members):
            key = f"member{i}"
            kind = attrs[f"{key}.kind"]
            p = int(attrs[f"{key}.p"])
            if kind == "vanilla":
                members.append(VanillaTrunk(
                    _mlp_from_arrays(key, arrays, cfg.activation, activate_last=True)
                ))
            elif kind == "pod":
                if dataset is None:
                    raise DataError(
                        "checkpoint contains a POD trunk; a dataset is required to "
                        "attach its output locations"
                    )
                stored = int(attrs[f"{key}.y_crc"])
                if _y_crc(dataset.Y) != stored:
                    raise DataError(
                        "dataset output locations Y do not match the checkpoint's "
                        "POD reference hash"
                    )
                basis = PODBasis(
                    arrays[f"{key}.pod.phi0"],
                    arrays[f"{key}.pod.modes"],
                    arrays[f"{key}.pod.eigenvalues"],
                    y_locations=dataset.Y,
                )
                members.append(PODTrunk(basis, p, attrs[f"{key}.modified"] == "1"))
            elif kind == "pou":
                centers = arrays[f"{key}.patch_centers"]
                radii = arrays[f"{key}.patch_radii"]
                ps = PatchSet(
                    [Patch(c, r) for c, r in zip(centers, radii)],
                    delta=float(attrs[f"{key}.delta"]),
                )
                experts = [_mlp_from_arrays(f"{key}.expert{k}", arrays, cfg.activation,
                                            activate_last=True) for k in range(len(ps))]
                members.append(PoUTrunk(ps, experts, p))
            else:
                raise DataError(f"{path}: unknown member kind {kind!r}")
        branch = _mlp_from_arrays("branch", arrays, cfg.activation, activate_last=False)
        bias = None
        if attrs.get("bias_present") == "1":
            bias = ad.Tensor(arrays["bias"], requires_grad=True)
        model = EnsembleModel(members, branch, bias)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: checkpoint field missing or unreadable: {exc!r}") from None
    return model, config_text, attrs
