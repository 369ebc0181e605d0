"""ODM1 model checkpoints.

The file is sealed like ODN1 (see ``data``): magic "ODNMDL01", u32
version = 1, these fields, then the CRC32 of all prior bytes.
    text     run configuration
    text     attributes, "key=value" lines: member kinds, dims, seed, ...
    u32      array count, then per array:
                 text name, u32 ndim, u32 dims (one 1 for a scalar), f64 data

The stored config gives the structure and the arrays fill it in: loading
assembles the model the config declares, as training does, from the stored
networks, POD bases and bias, so it reproduces predictions bit-exactly. A
file whose attributes or arrays do not fit its config is a DataError. POD
members also need the dataset: its output locations Y are matched against
the stored CRC32 reference hash, since modes only exist on that grid.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .data import OperatorDataset, _SealedReader, _SealedWriter
from .errors import ConfigError, DataError, ShapeError
from .networks import MLP
from .pod import PODBasis, numerical_rank
from .runconfig import assemble_model, parse_config
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
            attrs[f"{key}.modified"] = "1" if member.offset is None else "0"
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


def parameter_counts(arrays: dict) -> dict:
    """``params.<network>`` -> the values stored for each MLP (``branch``,
    ``member<i>``, ``member<i>.expert<k>``) and for the bias."""
    counts = {}
    for name, arr in sorted(arrays.items()):
        net, layer, _ = name.partition(".layer")
        if layer or name == "bias":
            counts[f"params.{net}"] = counts.get(f"params.{net}", 0) + arr.size
    return counts


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


def _contents(attrs: dict, arrays: dict) -> dict:
    """Every attribute but the seed, and every array's shape and bytes, by name."""
    return {**{f"attribute {k}": v for k, v in attrs.items() if k != "seed"},
            **{f"array {name}": (a.shape, a.tobytes()) for name, a in arrays.items()}}


def load_checkpoint(path, dataset: OperatorDataset | None = None):
    """Rebuild the model; returns (model, config_text, attrs).

    The stored config gives the structure (``runconfig.assemble_model``)
    and the stored arrays fill it in. The file must be exactly what that
    model writes, the seed aside: a file whose attributes or arrays do not
    fit its config raises DataError. ``dataset`` is needed only for POD
    members, and its Y must hash-match their stored reference."""
    config_text, attrs, arrays = read_checkpoint_raw(path)
    cfg = parse_config(config_text)

    def stored_mlp(name, mcfg, _seed):
        def tensors(part):
            return [ad.Tensor(arrays[f"{name}.layer{j}.{part}"], requires_grad=True)
                    for j in range(len(mcfg.layer_dims) - 1)]
        return MLP(mcfg, tensors("weight"), tensors("bias"))

    def stored_pod(i, spec):
        if dataset is None:
            raise DataError("checkpoint contains a POD trunk; a dataset is required "
                            "to attach its output locations")
        if _y_crc(dataset.Y) != int(attrs[f"member{i}.y_crc"]):
            raise DataError("dataset output locations Y do not match the checkpoint's "
                            "POD reference hash")
        return PODBasis(*(arrays[f"member{i}.pod.{part}"] for part in
                          ("phi0", "modes", "eigenvalues")), y_locations=dataset.Y)

    try:
        model = assemble_model(cfg, int(attrs["branch_input_dim"]), int(attrs["location_dim"]),
                               None, stored_mlp, stored_pod)
        if model.bias is not None:
            model.bias.data[...] = arrays["bias"]
    except (KeyError, ValueError, ShapeError, ConfigError) as exc:
        raise DataError(f"{path}: checkpoint field missing or unreadable: {exc!r}") from None
    rebuilt, stored = _contents(*collect_state(model)), _contents(attrs, arrays)
    misfits = sorted(k for k in rebuilt.keys() | stored.keys() if rebuilt.get(k) != stored.get(k))
    if misfits:
        raise DataError(f"{path}: checkpoint does not fit its config at {', '.join(misfits[:3])}")
    return model, config_text, attrs
