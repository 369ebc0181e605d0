"""ODM1 model checkpoints.

Layout, little-endian, CRC-protected like ODN1:
    8 bytes  magic "ODNMDL01"
    u32      version = 1
    u32+utf8 run configuration text
    u32+utf8 attributes text (key=value lines: member kinds, dims, seed, ...)
    u32      array count, then per array:
                 u32+utf8 name, u32 ndim, u32 dims..., f64 data
    u32      CRC32 of all prior bytes

All trainable tensors, patch geometry, and POD arrays are stored, so a
loaded model reproduces predictions bit-exactly. POD members additionally
need the dataset at load time: its output locations Y are matched against
the stored CRC32 reference hash, since modes only exist on that grid.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import autodiff as ad
from .data import OperatorDataset
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
        if isinstance(member, VanillaTrunk):
            attrs[f"{key}.kind"] = "vanilla"
            attrs[f"{key}.p"] = str(member.p)
            _mlp_arrays(key, member.mlp, arrays)
        elif isinstance(member, PODTrunk):
            attrs[f"{key}.kind"] = "pod"
            attrs[f"{key}.p"] = str(member.p)
            attrs[f"{key}.modified"] = "1" if member.modified else "0"
            attrs[f"{key}.y_crc"] = str(_y_crc(member.basis.y_locations))
            arrays[f"{key}.pod.phi0"] = member.basis.mean_function
            arrays[f"{key}.pod.modes"] = member.basis.modes
            arrays[f"{key}.pod.eigenvalues"] = member.basis.eigenvalues
        elif isinstance(member, PoUTrunk):
            attrs[f"{key}.kind"] = "pou"
            attrs[f"{key}.p"] = str(member.p)
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
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    cbytes = config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(cbytes)))
    parts.append(cbytes)
    abytes = "".join(f"{k}={attrs[k]}\n" for k in sorted(attrs)).encode("utf-8")
    parts.append(struct.pack("<I", len(abytes)))
    parts.append(abytes)
    parts.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8")
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr, dtype="<f8")
        nbytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nbytes)))
        parts.append(nbytes)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{max(arr.ndim, 1)}I", *(arr.shape or (1,))))
        parts.append(arr.tobytes())
    blob = b"".join(parts)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", crc))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise DataError(f"{self.path}: truncated ODM1 file")
        out = self.blob[self.offset: self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def read_checkpoint_raw(path):
    """(config_text, attrs dict, arrays dict) after CRC verification."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not an ODM1 checkpoint")
    if len(blob) < len(MAGIC) + 8:
        raise DataError(f"{path}: truncated ODM1 file ({len(blob)} bytes)")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise DataError(f"{path}: CRC32 mismatch, file is corrupted")
    r = _Reader(blob[:-4], path)
    r.take(len(MAGIC))
    version = r.u32()
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported ODM1 version {version}")
    config_text = r.text()
    attrs = {}
    for line in r.text().splitlines():
        if line:
            k, _, v = line.partition("=")
            attrs[k] = v
    arrays = {}
    for _ in range(r.u32()):
        name = r.text()
        ndim = r.u32()
        shape = struct.unpack(f"<{max(ndim, 1)}I", r.take(4 * max(ndim, 1)))
        if ndim == 0:
            shape = ()
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(r.take(8 * count), dtype="<f8").astype(np.float64)
        arrays[name] = arr.reshape(shape)
    if r.offset != len(r.blob):
        raise DataError(f"{path}: trailing bytes after array block")
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
    its Y locations must hash-match the stored reference.
    """
    from .runconfig import parse_config

    config_text, attrs, arrays = read_checkpoint_raw(path)
    cfg = parse_config(config_text)
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
            experts = []
            for k in range(len(ps)):
                experts.append(_mlp_from_arrays(
                    f"{key}.expert{k}", arrays, cfg.activation, activate_last=True
                ))
            members.append(PoUTrunk(ps, experts, p))
        else:
            raise DataError(f"{path}: unknown member kind {kind!r}")
    branch = _mlp_from_arrays("branch", arrays, cfg.activation, activate_last=False)
    bias = None
    if attrs.get("bias_present") == "1":
        bias = ad.Tensor(arrays["bias"], requires_grad=True)
    model = EnsembleModel(members, branch, bias)
    return model, config_text, attrs
