"""Desk-scale dataset generation and the sealed ODN1/ODM1 file format.

Built-in generators: a 1D antiderivative operator (analytic, for sanity
runs) and a 2D reaction-diffusion problem with a spatially discontinuous
reaction term, solved by an explicit finite-difference scheme on a
cell-centered grid with homogeneous Neumann boundaries via ghost-cell
reflection. The rd2d samples are solved in cache-sized chunks of about 32k
grid values (32 samples at n = 32), each held grid row outermost in scratch
allocated once per call, so a time step allocates no array and the
reaction runs on the contiguous rows where it is on; each finished chunk
is copied into the (N, n, n) output once. Every update is elementwise, in
the operand order of a plain np.pad ghost-cell stencil (kept in the tests
as the reference), so each sample is bit-identical to that stencil and to
a solve of the sample alone. A blow-up (|c| > 10 R, or a non-finite value)
names the first sample over the limit at the earliest step of the first
chunk that blows up. Externally produced datasets (e.g. Darcy, cavity
flow) are loaded through the same file format; they are never synthesized
here.

ODN1 datasets and ODM1 checkpoints share one sealed framing, read and
written here: an 8-byte magic and a u32 version, then fields (u32s,
u32-length-prefixed UTF-8 text, f64 arrays), then the CRC32 of all prior
bytes, all little-endian. ODN1's fields are:
    6 x u32   d_u, d_v, N_x, N_y, N, c
    f64[]     X (N_x x d_u), Y (N_y x d_v), U (N x N_x), V (N x N_y x c)
    text      metadata, "key=value" lines
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .evaluation import replacing, vector_field_magnitude

MAGIC = b"ODNSET01"
FORMAT_VERSION = 1


@dataclass
class OperatorDataset:
    """Paired input/output function samples with their sample locations."""

    name: str
    X: np.ndarray  # (N_x, d_u) input sample locations
    Y: np.ndarray  # (N_y, d_v) output sample locations
    U: np.ndarray  # (N, N_x) input-function samples
    V: np.ndarray  # (N, N_y) or (N, N_y, c) output-function samples
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.Y = np.ascontiguousarray(self.Y, dtype=np.float64)
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.V = np.ascontiguousarray(self.V, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ShapeError("X and Y must be 2-d location arrays")
        if self.U.ndim != 2:
            raise ShapeError("U must be (N, N_x)")
        if self.V.ndim not in (2, 3):
            raise ShapeError("V must be (N, N_y) or (N, N_y, c)")
        if 0 in self.X.shape + self.Y.shape + self.U.shape + self.V.shape:
            raise ShapeError(f"dataset has a zero dimension: X {self.X.shape}, "
                             f"Y {self.Y.shape}, U {self.U.shape}, V {self.V.shape}")
        if self.U.shape[0] != self.V.shape[0]:
            raise ShapeError(
                f"U has {self.U.shape[0]} samples but V has {self.V.shape[0]}"
            )
        if self.U.shape[1] != self.X.shape[0]:
            raise ShapeError(
                f"U columns ({self.U.shape[1]}) must match |X| ({self.X.shape[0]})"
            )
        if self.V.shape[1] != self.Y.shape[0]:
            raise ShapeError(
                f"V columns ({self.V.shape[1]}) must match |Y| ({self.Y.shape[0]})"
            )
        for arr, label in ((self.X, "X"), (self.Y, "Y"), (self.U, "U"), (self.V, "V")):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"dataset array {label} contains non-finite values")

    @property
    def n_samples(self):
        return self.U.shape[0]

    @property
    def n_x(self):
        return self.X.shape[0]

    @property
    def n_y(self):
        return self.Y.shape[0]

    @property
    def d_u(self):
        return self.X.shape[1]

    @property
    def d_v(self):
        return self.Y.shape[1]

    @property
    def n_components(self):
        return 1 if self.V.ndim == 2 else self.V.shape[2]

    def scalar_targets(self) -> np.ndarray:
        """(N, N_y) training targets; vector fields reduce to pointwise
        Euclidean magnitudes, matching the error protocol."""
        if self.V.ndim == 2:
            return self.V
        return vector_field_magnitude(self.V)


def _sample_seed(seed: int, i: int) -> np.random.Generator:
    # Per-sample child streams: independent of generation order.
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(i))))


def antiderivative_grid(grid) -> int:
    """``grid`` as gen_antiderivative's point count: at least 8."""
    if int(grid) < 8:
        raise ConfigError("antiderivative grid needs at least 8 points")
    return int(grid)


def gen_antiderivative(n_samples: int, n_modes: int = 5, grid: int = 64,
                       seed: int = 0) -> OperatorDataset:
    """Random sine-series inputs on [0, 1] paired with exact antiderivatives.

    u(x) = sum_k a_k sin(k pi x) with a_k ~ U(-1, 1);
    v(x) = sum_k a_k (1 - cos(k pi x)) / (k pi).
    """
    grid = antiderivative_grid(grid)
    x = np.linspace(0.0, 1.0, grid)
    k = np.arange(1, int(n_modes) + 1)
    sin_basis = np.sin(np.pi * np.outer(k, x))          # (modes, grid)
    int_basis = (1.0 - np.cos(np.pi * np.outer(k, x))) / (np.pi * k)[:, None]
    u = np.empty((n_samples, grid))
    v = np.empty((n_samples, grid))
    for i in range(n_samples):
        a = _sample_seed(seed, i).uniform(-1.0, 1.0, size=k.shape[0])
        u[i] = a @ sin_basis
        v[i] = a @ int_basis
    locs = x[:, None]
    meta = {
        "generator": "antiderivative",
        "seed": str(int(seed)),
        "n_modes": str(int(n_modes)),
        "grid": str(grid),
    }
    return OperatorDataset("antiderivative", locs, locs.copy(), u, v, meta)


# Most solver steps an RDParams may ask for: the bundled grid takes 57 and
# n = 64 about 230, so only a runaway nu, dt or t_final comes near it.
RD_MAX_STEPS = 10**6


@dataclass(frozen=True)
class RDParams:
    """Parameters of the 2D reaction-diffusion problem on [lo, hi]^2.

    The reaction k_on (R - c) c_amb - k_off c is switched off for
    y1 > switch (discontinuous coefficients); diffusion is uniform.
    dt=None picks the largest stable step that divides t_final.
    """

    nu: float = 0.1
    reaction_cap: float = 2.0  # throttle R
    k_on: float = 2.0
    k_off: float = 0.2
    switch: float = 1.0
    lo: float = 0.0
    hi: float = 2.0
    t_final: float = 0.5
    n: int = 32
    dt: float | None = None
    branch_grid: int = 8

    def __post_init__(self):
        if self.n < 4:
            raise ConfigError("rd2d grid n must be at least 4")
        if self.hi <= self.lo:
            raise ConfigError("rd2d domain must have hi > lo")
        if self.t_final <= 0.0:
            raise ConfigError("rd2d t_final must be positive")
        if not self.nu >= 0.0:  # NaN too
            raise ConfigError(f"rd2d nu must be >= 0, got {self.nu!r}")
        bound = self.stability_bound()
        if not bound > 0.0:
            raise ConfigError(f"rd2d nu={self.nu!r} leaves no stable step on grid n={self.n}: "
                              f"0.9 h^2 / (4 nu) = {bound!r}")
        if self.dt is not None:
            if self.dt <= 0.0:
                raise ConfigError("rd2d dt must be positive")
            if self.dt > bound:
                raise ConfigError(
                    f"rd2d dt={self.dt} violates the stability bound "
                    f"{bound:.6g} = 0.9 h^2 / (4 nu)"
                )
        steps = self.t_final / (self.dt or bound)  # NaN for an infinite t_final at nu = 0
        if not steps <= RD_MAX_STEPS:
            raise ConfigError(f"rd2d needs {steps:.3g} solver steps (t_final / dt, with dt at most "
                              f"0.9 h^2 / (4 nu)), more than {RD_MAX_STEPS}")

    @property
    def h(self):
        return (self.hi - self.lo) / self.n

    def stability_bound(self) -> float:
        if self.nu == 0.0:
            return np.inf
        return 0.9 * self.h * self.h / (4.0 * self.nu)

    def step_size(self) -> float:
        if self.dt is not None:
            return self.dt
        bound = self.stability_bound()
        if not np.isfinite(bound):
            return self.t_final / 100.0
        steps = int(np.ceil(self.t_final / bound))
        return self.t_final / steps

    def cell_centers_1d(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.h

    def grid_points(self) -> np.ndarray:
        c = self.cell_centers_1d()
        y1, y2 = np.meshgrid(c, c, indexing="ij")
        return np.stack([y1.reshape(-1), y2.reshape(-1)], axis=1)

    def branch_points(self) -> np.ndarray:
        m = int(self.branch_grid)
        hb = (self.hi - self.lo) / m
        c = self.lo + (np.arange(m) + 0.5) * hb
        x1, x2 = np.meshgrid(c, c, indexing="ij")
        return np.stack([x1.reshape(-1), x2.reshape(-1)], axis=1)


# Grid values solved together by one pass of the stencil: 32 samples at
# n = 32. A chunk's state, two scratch arrays and the chunk's part of the
# output, used as a third until the state is copied into it, then take
# about 1 MB, so each time step runs in a core's L2 cache.
RD_CHUNK_VALUES = 32 * 1024


def simulate_rd(params: RDParams, c0) -> np.ndarray:
    """Advance reaction-diffusion fields from constant ICs to t_final.

    ``c0`` is a scalar or a 1-d array of initial concentrations; the
    result is the (n, n) grid or the (m, n, n) stack of grids.

    Samples are solved in chunks of ``max(1, RD_CHUNK_VALUES // n**2)``,
    each held grid row outermost in three scratch arrays allocated once
    per call and the chunk's part of the output, so a step allocates no
    array and its working set stays in cache. Every update is elementwise,
    in the same operations and operand order as a plain ``np.pad``
    stencil, so each grid is bit-identical to a solve of its sample alone.

    A state with some ``|c| > 10 R``, or a non-finite one, raises
    NumericError. The message names the step and the first sample over
    the limit at the earliest step of the first chunk, in sample order,
    that blows up; later chunks are not solved.
    """
    c0 = np.asarray(c0, dtype=np.float64)
    if c0.ndim > 1:
        raise ShapeError(f"simulate_rd takes a scalar or 1-d c0, got shape {c0.shape}")
    flat = c0.reshape(-1)
    n = params.n
    chunk = max(1, RD_CHUNK_VALUES // (n * n))
    schedule = _rd_schedule(params)
    scratch = np.empty((3, min(chunk, flat.size) * n * n))
    # allocated after the scratch: in the other order the gen-infer
    # benchmark's peak RSS read about 1.1 MB higher (glibc heap layout)
    out = np.empty((flat.size, n, n))
    # a non-finite or blowing-up state is reported by NumericError alone
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, flat.size, chunk):
            c0_chunk = flat[start:start + chunk]
            _solve_rd(params, c0_chunk, out[start:start + chunk],
                      scratch[:, :c0_chunk.size * n * n], schedule, start)
    return out.reshape(c0.shape + (n, n))


def _rd_schedule(params: RDParams):
    """The spatial factor of the ambient field, and per step its size
    (the last one truncated onto t_final) and the ambient's time factor."""
    centers = params.cell_centers_1d()
    y1, y2 = np.meshgrid(centers, centers, indexing="ij")
    space = 1.0 + np.cos(2.0 * np.pi * y1) * np.cos(2.0 * np.pi * y2)
    dt = params.step_size()
    steps = int(np.ceil(params.t_final / dt - 1e-12))
    steps_and_decays = []
    t = 0.0
    for _ in range(steps):
        dt_k = min(dt, params.t_final - t)
        steps_and_decays.append((dt_k, np.exp(-np.pi * t)))
        t += dt_k
    return space, steps_and_decays


def _solve_rd(params: RDParams, c0: np.ndarray, out: np.ndarray, scratch: np.ndarray,
              schedule, first: int):
    """The explicit scheme from the constants ``c0`` into the contiguous
    (m, n, n) ``out``; ``scratch`` is three flat arrays of m n^2 values and
    ``first`` the index of c0[0] among all samples, for the blow-up
    message.

    The state ``c`` is (n, m, n), grid row outermost, so the rows where
    the reaction is on (y1 <= switch) are one contiguous prefix of ``r``
    rows, and the reaction is formed on that prefix alone. The other rows
    of ``react`` stay +0.0 and are added to ``nu * lap`` like the prefix.
    The stencil adds a signed zero there, which is +0.0 wherever c is
    -0.0, the one state whose update the sign of that zero can change; so
    the bits are the stencil's. ``out`` serves as scratch until the final
    state is copied into it.

    Zero-flux ghost cells reflect the edge cells, so the Laplacian is
    ((up + down) + left) + right - 4c. Each neighbour sum is one add over
    the flat chunk shifted by a row plane (up, down) or a cell (left,
    right); the edge planes and columns, where the shift reads past the
    grid or the next sample instead of the reflection, are then
    overwritten by edge adds.
    """
    m, n = c0.size, params.n
    plane = m * n
    c, lap, react = (a.reshape(n, m, n) for a in scratch)
    tmp = out.reshape(n, m, n)
    edge = tmp.reshape(-1)[:plane].reshape(n, m)  # one column of sums, used before tmp is
    c_flat, lap_flat = scratch[0], scratch[1]
    r = int(np.count_nonzero(params.cell_centers_1d() <= params.switch))
    rr = react[:r]
    inv_h2 = 1.0 / (params.h * params.h)
    cap = params.reaction_cap
    blow = 10.0 * cap
    space, steps_and_decays = schedule
    amb = np.empty((r, 1, n))
    c[...] = c0[None, :, None]
    react[r:] = 0.0
    for step, (dt_k, decay) in enumerate(steps_and_decays):
        np.add(c_flat[:-2 * plane], c_flat[2 * plane:], out=lap_flat[plane:-plane])  # up + down
        np.add(c[0], c[1], out=lap[0])
        np.add(c[-2], c[-1], out=lap[-1])
        np.add(lap[:, :, 0], c[:, :, 0], out=edge)  # + left
        np.add(lap_flat[1:], c_flat[:-1], out=lap_flat[1:])
        lap[:, :, 0] = edge
        np.add(lap[:, :, -1], c[:, :, -1], out=edge)  # + right
        np.add(lap_flat[:-1], c_flat[1:], out=lap_flat[:-1])
        lap[:, :, -1] = edge
        np.multiply(c, 4.0, out=tmp)
        lap -= tmp
        lap *= inv_h2
        # c + dt_k * ((k_on * (cap - c)) * amb - k_off * c + nu * lap)
        np.multiply(space[:r, None, :], decay, out=amb)
        np.subtract(cap, c[:r], out=rr)
        rr *= params.k_on
        rr *= amb
        np.multiply(c[:r], params.k_off, out=tmp[:r])
        rr -= tmp[:r]
        lap *= params.nu
        np.add(react, lap, out=lap)
        lap *= dt_k
        c += lap
        # negated so that a NaN state fails it as well
        if not max(c.max(), -c.min()) <= blow:
            bad = int(np.argmin(np.abs(c).max(axis=(0, 2)) <= blow))
            raise NumericError(
                f"rd2d solver blew up at step {step + 1} (|c| > {blow}); "
                f"first sample {first + bad} with c0={float(c0[bad])!r}"
            )
    out[...] = c.transpose(1, 0, 2)


def gen_reaction_diffusion_2d(params: RDParams, n_samples: int, seed: int = 0) -> OperatorDataset:
    """Constant random initial concentrations mapped to the t_final field.

    Each c0 comes from its own per-sample stream; all samples are then
    solved by one batched ``simulate_rd`` call."""
    big_y = params.grid_points()
    big_x = params.branch_points()
    c0 = np.array([_sample_seed(seed, i).uniform(0.0, 1.0) for i in range(n_samples)])
    u = np.repeat(c0[:, None], big_x.shape[0], axis=1)
    v = simulate_rd(params, c0).reshape(n_samples, big_y.shape[0])
    meta = {
        "generator": "rd2d",
        "seed": str(int(seed)),
        "grid": str(params.n),
        "branch_grid": str(params.branch_grid),
        "nu": repr(params.nu),
        "t_final": repr(params.t_final),
        "dt": repr(params.step_size()),
    }
    return OperatorDataset("rd2d", big_x, big_y, u, v, meta)


class _SealedWriter:
    """Collects a sealed file's fields; ``save`` adds the CRC32 trailer."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic]
        self.u32(version)

    def u32(self, *values: int):
        self._parts.append(struct.pack(f"<{len(values)}I", *values))

    def text(self, text: str):
        raw = text.encode("utf-8")
        self.u32(len(raw))
        self._parts.append(raw)

    def f64(self, arr):
        self._parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def kv(self, pairs: dict):
        """A text field of sorted ``key=value`` lines."""
        lines = []
        for key in sorted(pairs):
            k, v = str(key), str(pairs[key])
            if "=" in k or "\n" in k or "\n" in v:
                raise DataError(f"key/value not encodable as a line: {k!r}")
            lines.append(f"{k}={v}\n")
        self.text("".join(lines))

    def save(self, path):
        blob = b"".join(self._parts)
        with replacing(path) as fh:
            fh.write(blob)
            fh.write(struct.pack("<I", zlib.crc32(blob)))


class _SealedReader:
    """Reads a sealed file's fields in order once its magic, CRC32 and
    version check out; any misfit raises DataError. Arrays are copied
    once, out of a memoryview of the file."""

    def __init__(self, path, magic: bytes, version: int, fmt: str, kind: str):
        with open(path, "rb") as fh:
            blob = fh.read()
        self.path, self.fmt = path, fmt
        if blob[:len(magic)] != magic:
            raise DataError(f"{path}: bad magic, not an {fmt} {kind}")
        if len(blob) < len(magic) + 8:
            raise DataError(f"{path}: truncated {fmt} file ({len(blob)} bytes)")
        self._view = memoryview(blob)[:-4]
        if zlib.crc32(self._view) != int.from_bytes(blob[-4:], "little"):
            raise DataError(f"{path}: CRC32 mismatch, file is corrupted")
        self._at = len(magic)
        found = self.u32()
        if found != version:
            raise DataError(f"{path}: unsupported {fmt} version {found}")

    def _take(self, n: int) -> memoryview:
        if self._at + n > len(self._view):
            raise DataError(f"{self.path}: truncated {self.fmt} file")
        self._at += n
        return self._view[self._at - n:self._at]

    def u32(self, count: int = 0):
        """One u32, or a tuple of ``count`` of them."""
        values = struct.unpack(f"<{max(count, 1)}I", self._take(4 * max(count, 1)))
        return values if count else values[0]

    def text(self) -> str:
        try:
            return str(self._take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: an {self.fmt} text field is not UTF-8") from None

    def f64(self, shape) -> np.ndarray:
        raw = self._take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

    def kv(self) -> dict:
        # split on "\n" alone, the one terminator the writer bars from values
        return dict(line.partition("=")[::2] for line in self.text().split("\n") if line)

    def end(self):
        if self._at != len(self._view):
            raise DataError(f"{self.path}: {len(self._view) - self._at} bytes after "
                            f"the last {self.fmt} field")


def write_dataset(ds: OperatorDataset, path):
    """Write ODN1; bit-exact float64 round-trip, CRC-protected."""
    ds.validate()
    w = _SealedWriter(MAGIC, FORMAT_VERSION)
    w.u32(ds.d_u, ds.d_v, ds.n_x, ds.n_y, ds.n_samples, ds.n_components)
    for arr in (ds.X, ds.Y, ds.U, ds.V):
        w.f64(arr)
    w.kv({**ds.metadata, "name": ds.name})
    w.save(path)


def stored_crc(path) -> int:
    """The CRC32 a sealed (ODN1 or ODM1) file stores over all its prior
    bytes (its last four bytes); the readers verify it."""
    with open(path, "rb") as fh:
        fh.seek(-4, os.SEEK_END)
        return struct.unpack("<I", fh.read(4))[0]


def read_dataset(path) -> OperatorDataset:
    """Read ODN1, verifying magic, version, lengths, and checksum."""
    r = _SealedReader(path, MAGIC, FORMAT_VERSION, "ODN1", "dataset")
    d_u, d_v, n_x, n_y, n, c = r.u32(6)
    x, y, u = r.f64((n_x, d_u)), r.f64((n_y, d_v)), r.f64((n, n_x))
    v = r.f64((n, n_y) if c == 1 else (n, n_y, c))
    metadata = r.kv()
    r.end()
    return OperatorDataset(metadata.pop("name", "dataset"), x, y, u, v, metadata)
