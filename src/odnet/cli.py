"""Command-line orchestration: gen, train, eval, export-basis, inspect.

Exit codes: 0 success, 1 a ``--jobs`` worker process died (the seeds its
broken pool stopped run again one at a time; the line names the seeds
whose own worker died), 2 configuration error, 3 data/file error, 4
numeric failure (NaN loss or solver blowup), 5 out of memory (an
allocation numpy could not make), 130 interrupted. Every run writes a
manifest (config text, seed, versions, the BLAS thread variables of the
environment; for train, eval and export-basis also the dataset file, its
stored CRC32, sample count, generator and seed; for train also each POD
member's numerical rank) alongside its outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import os
import platform
import sys

import numpy as np

from . import __version__
from .checkpoint import (MAGIC as ODM1_MAGIC, collect_state, load_checkpoint, parameter_counts,
                         pod_ranks, read_checkpoint_raw, save_checkpoint)
from .data import MAGIC as ODN1_MAGIC, read_dataset, stored_crc, write_dataset
from .errors import ConfigError, DataError, NumericError, OdnetError
from .evaluation import evaluate_model, replacing, write_location_csv
from .runconfig import (GENERATOR_KEYS, _ints, build_model, data_generator, generate_dataset,
                        parse_config, split_indices)
from .training import OPTIMIZERS, train
from .trunks import export_basis


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _data_record(path, ds) -> dict:
    """Names the dataset a run used: the file, the CRC32 it stores, its
    sample count and the generator and seed from its metadata."""
    record = {"data_file": path, "data_crc32": f"{stored_crc(path):08x}",
              "data_samples": ds.n_samples}
    for key in ("generator", "seed"):
        if key in ds.metadata:
            record[f"data_{key}"] = ds.metadata[key]
    return record


def _write_manifest(path, config_text: str, seed, data: dict | None = None) -> None:
    fields = {"odnet_version": __version__, "numpy_version": np.__version__,
              "python_version": platform.python_version(),
              **{f"env.{var}": os.environ.get(var, "unset")
                 for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
              "seed": seed, **(data or {})}
    text = "".join(f"{key}={value}\n" for key, value in fields.items())
    with replacing(path) as fh:
        fh.write(f"{text}config:\n{config_text}".encode("utf-8"))


def _check_out_dirs(args, *dests):
    """Refuse, naming its flag, an output path whose directory is missing."""
    for dest in dests:
        path = getattr(args, dest)
        out_dir = os.path.dirname(path)
        if out_dir and not os.path.isdir(out_dir):
            raise DataError(f"--{dest.replace('_', '-')} {path}: no directory {out_dir}")


def _override(spec, **values):
    """``dataclasses.replace`` with the flags that were given; the spec's
    own validation runs again on the result."""
    return dataclasses.replace(spec, **{k: v for k, v in values.items() if v is not None})


def cmd_gen(args) -> int:
    cfg = parse_config(_read_text(args.config))
    flags = {"n": args.n, "seed": args.seed}
    for key, value in flags.items():
        if value is not None and key not in GENERATOR_KEYS[cfg.data.generator]:
            raise ConfigError(f"--{key}: generator={cfg.data.generator} takes no {key}")
    cfg = dataclasses.replace(cfg, data=_override(cfg.data, **flags))
    if os.path.exists(args.out) and not args.force:
        raise DataError(f"{args.out} exists; pass --force to overwrite")
    _check_out_dirs(args, "out")
    ds = generate_dataset(cfg.data)
    write_dataset(ds, args.out)
    _write_manifest(args.out + ".manifest.txt", cfg.text, cfg.data.seed)
    print(f"wrote {args.out}: N={ds.n_samples} N_x={ds.n_x} N_y={ds.n_y} "
          f"d_u={ds.d_u} d_v={ds.d_v}")
    return 0


def _train_one_seed(cfg, dataset_path: str, seed: int, out_prefix: str):
    """One independent training job; safe to run in a worker process."""
    cfg = dataclasses.replace(cfg, seeds=[seed])
    ds = read_dataset(dataset_path)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed)
    targets = ds.scalar_targets()
    ckpt = f"{out_prefix}-seed{seed}.odm"
    losscsv = f"{out_prefix}-seed{seed}.loss.csv"
    try:
        report = train(model, ds.U[train_idx], targets[train_idx], ds.Y, cfg.train)
    except NumericError as exc:
        if getattr(exc, "report", None) is not None:
            exc.report.to_csv(losscsv)
        raise
    save_checkpoint(model, cfg.text, ckpt, seed=seed)
    report.to_csv(losscsv)
    _write_manifest(f"{out_prefix}-seed{seed}.manifest.txt", cfg.text, seed,
                    {**_data_record(dataset_path, ds), **pod_ranks(collect_state(model)[1])})
    return seed, ckpt, report.losses[-1], report.mean_epoch_seconds(), model.parameter_hash()


def cmd_train(args) -> int:
    cfg = parse_config(_read_text(args.config))
    data_generator(cfg.data)  # refuse a [data] section that gen refuses
    cfg = dataclasses.replace(cfg, train=_override(
        cfg.train, epochs=args.epochs, lr0=args.lr0, optimizer=args.optimizer,
    ))
    seeds = args.seeds or cfg.seeds
    # the whole seed list is checked before the first run writes a file
    cfg = dataclasses.replace(cfg, seeds=seeds)
    _check_out_dirs(args, "out")
    jobs = min(args.jobs, len(seeds))  # a fork pool starts all its workers at once
    results, died = [], []

    def pooled(batch, workers):
        """Runs the seeds in one fork pool; returns those it did not finish."""
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {seed: pool.submit(_train_one_seed, cfg, args.data, seed, args.out)
                       for seed in batch}
            # wait inside the block (an interrupt in the pool's shutdown hangs the
            # exit); a dead worker fails every future the pool had not finished
            stopped = [seed for seed, f in futures.items()
                       if isinstance(f.exception(), concurrent.futures.BrokenExecutor)]
        results.extend(f.result() for seed, f in futures.items() if seed not in stopped)
        return stopped

    if jobs == 1:
        for seed in seeds:
            results.append(_train_one_seed(cfg, args.data, seed, args.out))
    else:
        # a seed the broken pool stopped runs again alone; only a seed whose
        # own worker dies again is reported
        died = [seed for seed in pooled(seeds, jobs) if pooled([seed], 1)]
    for seed, ckpt, final_loss, sec, phash in sorted(results):
        print(f"seed {seed}: final_loss={final_loss:.6g} "
              f"epoch_seconds={sec:.6g} params={phash} -> {ckpt}")
    if died:
        raise OdnetError(f"a worker process died; seed(s) {', '.join(map(str, died))} "
                         "did not finish")
    return 0


def _select_split(cfg, ds, which: str):
    train_idx, test_idx = split_indices(ds.n_samples, cfg.eval.test_count,
                                        cfg.eval.split_seed)
    if which == "train":
        return train_idx
    if which == "test":
        return test_idx
    return np.arange(ds.n_samples)


def cmd_eval(args) -> int:
    _check_out_dirs(args, "out", "mse_out")
    ds = read_dataset(args.data)
    model, config_text, attrs = load_checkpoint(args.checkpoint, ds)
    cfg = parse_config(config_text)
    idx = _select_split(cfg, ds, args.split)
    if idx.size == 0:
        raise DataError(f"split {args.split!r} selects no functions")
    report = evaluate_model(
        model, ds.U[idx], ds.scalar_targets()[idx], ds.Y,
        dataset_name=ds.name, model_name=os.path.basename(args.checkpoint),
    )
    if args.out:
        report.to_csv(args.out)
    if args.mse_out:
        report.spatial_mse_csv(args.mse_out, ds.Y)
    _write_manifest(
        (args.out or args.checkpoint) + ".eval-manifest.txt",
        config_text, attrs.get("seed", "?"), _data_record(args.data, ds),
    )
    print(report.summary_line())
    return 0


def cmd_export_basis(args) -> int:
    _check_out_dirs(args, "out")
    ds = read_dataset(args.data)
    model, config_text, attrs = load_checkpoint(args.checkpoint, ds)
    columns = args.columns
    if not columns:
        raise ConfigError("--columns must list at least one trunk column")
    try:
        values = export_basis(model, ds.Y, columns)
    except IndexError as exc:
        raise ConfigError(str(exc)) from None
    write_location_csv(args.out, ds.Y, [f"col{c}" for c in columns], values,
                       "rows of basis columns")
    _write_manifest(args.out + ".manifest.txt", config_text, attrs.get("seed", "?"),
                    _data_record(args.data, ds))
    print(f"wrote {args.out}: {len(columns)} column(s) over {ds.n_y} locations")
    return 0


def cmd_inspect(args) -> int:
    with open(args.path, "rb") as fh:
        magic = fh.read(len(ODN1_MAGIC))
    if magic == ODN1_MAGIC:
        ds = read_dataset(args.path)
        print(f"ODN1 dataset: N={ds.n_samples} N_x={ds.n_x} N_y={ds.n_y} "
              f"d_u={ds.d_u} d_v={ds.d_v} c={ds.n_components}")
        for k, v in sorted({"name": ds.name, **ds.metadata}.items()):
            print(f"  {k}={v}")
        return 0
    if magic == ODM1_MAGIC:
        config_text, attrs, arrays = read_checkpoint_raw(args.path)
        print(f"ODM1 checkpoint: {len(arrays)} arrays")
        for k in sorted(attrs):
            print(f"  {k}={attrs[k]}")
        total = {"total_values": sum(a.size for a in arrays.values())}
        for k, v in {**pod_ranks(arrays), **total, **parameter_counts(arrays)}.items():
            print(f"  {k}={v}")
        return 0
    raise DataError(f"{args.path}: unknown magic {magic!r}")


def _int_list(raw: str) -> list:
    """argparse type: comma- or space-separated integers."""
    return list(_ints(raw))


def _positive_int(raw: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is below 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odnet",
        description="Ensemble DeepONet toolkit: dataset generation, training, "
                    "evaluation, and basis export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dataset file from a config")
    g.add_argument("config")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=None, help="override sample count")
    g.add_argument("--seed", type=int, default=None, help="override generator seed")
    g.add_argument("--force", action="store_true", help="overwrite existing output")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train one checkpoint per seed")
    t.add_argument("config")
    t.add_argument("data")
    t.add_argument("--out", required=True, help="output prefix for checkpoints")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr0", type=float, default=None)
    t.add_argument("--optimizer", default=None, choices=OPTIMIZERS)
    t.add_argument("--seeds", type=_int_list, default="", help="comma-separated seed list")
    t.add_argument("--jobs", type=_positive_int, default=1, help="parallel seed processes")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("checkpoint")
    e.add_argument("data")
    e.add_argument("--split", default="test", choices=("train", "test", "all"))
    e.add_argument("--out", default="", help="per-function error CSV")
    e.add_argument("--mse-out", default="", help="spatial MSE CSV")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export-basis", help="dump trunk basis columns as CSV")
    x.add_argument("checkpoint")
    x.add_argument("data")
    x.add_argument("--columns", type=_int_list, required=True,
                   help="comma-separated column list")
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_export_basis)

    i = sub.add_parser("inspect", help="print header/metadata of ODN1/ODM1 files")
    i.add_argument("path")
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OdnetError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return 5
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
