"""Command-line surface and experiment orchestration.

Subcommands: validate, synth, analyze, train, evaluate, loeo, search.
Configuration is a flat ``key = value`` text file; command-line flags
override file values. All randomness flows from one global seed through
named derived streams, so reruns with identical config and seed produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Collection, Optional, Sequence

import numpy as np

from rumourmtl import analysis, baselines, evaluation, mtl, search as search_mod
from rumourmtl.artifacts import atomic_write, is_file_name, write_json
from rumourmtl.corpus import (
    DEFAULT_MAX_BRANCH_LEN,
    VERACITY_CLASSES,
    Corpus,
    CorpusError,
    GeneratorSpec,
    generate_synthetic,
    load_corpus,
    read_text,
    save_corpus,
)
from rumourmtl.mtl import HyperParams, MTLModel, derive_rng
from rumourmtl.text import EmbeddingTable, hash_embeddings, load_embeddings

MODEL_NAMES = ("majority", "nile", *mtl.MODEL_TASKS)


class UsageError(ValueError):
    """Configuration or input problems: exit status 1."""


# ---------------------------------------------------------------------------
# Flat key = value configuration

def parse_config_text(text: str, where: str = "<config>") -> dict[str, str]:
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{where}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in entries:
            raise UsageError(f"{where}:{lineno}: key {key!r} already set on line "
                             f"{entries[key][0]}")
        entries[key] = (lineno, value)
    return {key: value for key, (_, value) in entries.items()}


def load_config_file(path: str | Path, known: Collection[str]) -> dict[str, str]:
    """``path``'s key = value pairs; a UsageError names the first key not in ``known``."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    values = parse_config_text(read_text(path), where=str(path))
    if unknown := [key for key in values if key not in known]:
        raise UsageError(f"{path}: unknown config key {unknown[0]!r}")
    return values


def config_value(values: dict[str, str], key: str, cast: type, default=None):
    """``values[key]`` read by ``cast``, or ``default`` when ``key`` is
    absent; a UsageError naming the key when ``cast`` rejects the value."""
    if key not in values:
        return default
    try:
        return cast(values[key])
    except ValueError:
        raise UsageError(f"config key {key!r}: bad value {values[key]!r}") from None


_HP_KEYS = {f.name: type(f.default) for f in fields(HyperParams)}
#: Integer run keys and the least value of each.
_INT_KEYS = {"seed": 0, "embedding_dim": 1, "max_branch_len": 1}
_RUN_KEYS = {"corpus", "output_dir", "embeddings", "tasks", *_INT_KEYS, *_HP_KEYS}
#: The keys of a ``synth`` spec.
_SYNTH_KEYS = {"seed", "events", "threads_per_event", "depth_min", "depth_max", "coupling",
               "nonrumour_fraction", "replies_min", "replies_max", "tokens_per_post",
               *(f"prior_{c}" for c in VERACITY_CLASSES)}


@dataclass
class RunConfig:
    corpus: str
    output_dir: str = "out"
    seed: int = 0
    tasks: tuple[str, ...] = ("veracity",)
    embeddings: Optional[str] = None
    embedding_dim: int = 300
    max_branch_len: int = DEFAULT_MAX_BRANCH_LEN
    hp: HyperParams = HyperParams()

    @classmethod
    def from_values(cls, values: dict[str, str]) -> "RunConfig":
        if "corpus" not in values:
            raise UsageError("config is missing required key 'corpus'")
        if empty := [key for key in ("corpus", "output_dir") if values.get(key) == ""]:
            raise UsageError(f"config key {empty[0]!r} is empty")
        hp_kwargs = {key: config_value(values, key, cast)
                     for key, cast in _HP_KEYS.items() if key in values}
        kwargs = {key: config_value(values, key, int) for key in _INT_KEYS if key in values}
        # An empty ``embeddings`` means hash embeddings, like an absent one.
        kwargs.update((key, values[key]) for key in ("output_dir", "embeddings") if values.get(key))
        try:
            if "tasks" in values:
                kwargs["tasks"] = mtl.normalize_tasks(
                    t.strip() for t in values["tasks"].split(",") if t.strip())
            cfg = cls(corpus=values["corpus"], hp=HyperParams(**hp_kwargs), **kwargs)
        except ValueError as exc:
            raise UsageError(f"bad config value: {exc}") from None
        for key, low in _INT_KEYS.items():
            if getattr(cfg, key) < low:
                raise UsageError(f"config key {key!r} must be >= {low}, got {getattr(cfg, key)}")
        return cfg


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config, _RUN_KEYS)
    if args.output_dir == "":
        raise UsageError("--output-dir is empty")
    values.update((key, str(value)) for key, value in vars(args).items()
                  if key in _RUN_KEYS and value is not None)
    return RunConfig.from_values(values)


def _embedding_table(cfg: RunConfig) -> EmbeddingTable:
    if cfg.embeddings:
        try:
            return load_embeddings(cfg.embeddings)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad embeddings file: {exc}") from None
    return hash_embeddings(cfg.embedding_dim, seed=cfg.seed)


# ---------------------------------------------------------------------------
# The held-out fold shared by loeo and search

def _loeo_fold(cfg: RunConfig, corpus: Corpus, forest: Optional[mtl.Forest],
               instances: Sequence[mtl.TrainingInstance], model_name: str, event: str,
               seed: Optional[int] = None) -> Optional[evaluation.FoldResult]:
    """One (model, event) fold, module-level so that a process pool can run it: a
    neural model trains on the training split's share of the corpus ``forest``'s
    ``instances`` and predicts on ``forest.select`` of the labelled held-out threads."""
    if seed is None:
        seed = int(derive_rng(cfg.seed, f"fold:{event}").integers(2 ** 31))

    def fit_predict(train: Corpus, labeled: Corpus) -> tuple[list[str], list]:
        if model_name == "majority":
            preds = baselines.majority_predict(baselines.majority_fit(train), labeled)
        elif model_name == "nile":
            try:
                nile = baselines.nile_fit(train, seed=seed)
            except ValueError as exc:
                raise CorpusError(f"fold {event}: nile: {exc}") from None
            preds = baselines.nile_predict(nile, labeled)
        else:
            train_ids, held_out = {t.id for t in train.threads}, {t.id for t in labeled.threads}
            model = MTLModel(cfg.hp, mtl.MODEL_TASKS[model_name], forest.x.shape[1], seed)
            mtl.train(model, [inst for inst in instances if inst.thread_id in train_ids], seed)
            thread_preds = mtl.predict_threads(model, forest.select(
                [k for k, t in enumerate(forest.threads) if t.id in held_out]))
            return [p.veracity for p in thread_preds], [p.veracity_probs for p in thread_preds]
        return preds, [[float(c == p) for c in VERACITY_CLASSES] for p in preds]

    return evaluation.loeo_fold(corpus, event, fit_predict, VERACITY_CLASSES)


_worker_fold = None  # in a loeo pool worker: _loeo_fold bound by _init_loeo_worker


def _init_loeo_worker(cfg: RunConfig, corpus: Corpus, forest: Optional[mtl.Forest],
                      instances: Sequence[mtl.TrainingInstance]) -> None:
    global _worker_fold
    np.seterr("ignore")
    _worker_fold = partial(_loeo_fold, cfg, corpus, forest, instances)


def _run_worker_fold(model_name: str, event: str) -> Optional[evaluation.FoldResult]:
    return _worker_fold(model_name, event)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    by_event = Counter(t.event for t in corpus.threads)
    print(f"ok: {len(corpus)} threads, {len(by_event)} events")
    for event, n in sorted(by_event.items()):
        print(f"  {event}: {n} threads")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if not args.output:
        raise UsageError("-o/--output is empty")
    read = partial(config_value, load_config_file(args.spec, _SYNTH_KEYS))  # (key, cast, default)
    default = GeneratorSpec()
    try:
        spec = GeneratorSpec(
            events=read("events", int, default.events),
            threads_per_event=read("threads_per_event", int, default.threads_per_event),
            depth_range=(read("depth_min", int, default.depth_range[0]),
                         read("depth_max", int, default.depth_range[1])),
            veracity_priors=tuple(read(f"prior_{c}", float, p) for c, p
                                  in zip(VERACITY_CLASSES, default.veracity_priors)),
            nonrumour_fraction=read("nonrumour_fraction", float, default.nonrumour_fraction),
            coupling=read("coupling", float, default.coupling),
            replies_range=(read("replies_min", int, default.replies_range[0]),
                           read("replies_max", int, default.replies_range[1])),
            tokens_per_post=read("tokens_per_post", int, default.tokens_per_post),
        )
        seed = args.seed if args.seed is not None else read("seed", int, 0)
        corpus = generate_synthetic(spec, seed)
    except ValueError as exc:
        raise UsageError(f"{args.spec}: {exc}") from None
    save_corpus(corpus, args.output)
    print(f"wrote {len(corpus)} threads to {args.output}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    table = analysis.analyze_corpus(corpus)
    csv_text = analysis.stats_csv(table)
    if args.output:
        atomic_write(args.output, csv_text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    corpus = load_corpus(cfg.corpus)
    if all(t.veracity_label is None for t in corpus.threads):
        raise UsageError(f"corpus {cfg.corpus} has no veracity-labeled thread to train on")
    out_dir = Path(cfg.output_dir)
    forest = mtl.build_forest(corpus.threads, _embedding_table(cfg), cfg.max_branch_len)
    model = MTLModel(cfg.hp, cfg.tasks, forest.x.shape[1], cfg.seed)
    history = mtl.train(model, mtl.forest_instances(forest), cfg.seed)
    model_path = out_dir / "model.json"
    model.save(model_path)
    write_json(out_dir / "loss_history.json", {"epoch_loss": history})
    print(f"wrote {model_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    corpus = load_corpus(cfg.corpus)
    try:
        model = MTLModel.load(args.model)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad checkpoint {args.model}: {exc}") from None
    table = _embedding_table(cfg)
    if table.dimension != model.input_dim:
        raise UsageError(f"embedding dimension {table.dimension} does not match the "
                         f"input dimension {model.input_dim} of checkpoint {args.model}")
    out_dir = Path(cfg.output_dir)
    predictions = mtl.predict_threads(
        model, mtl.build_forest(corpus.threads, table, cfg.max_branch_len))
    mtl.dump_predictions(predictions, out_dir / "predictions.ndjson")
    labeled = [(p, t) for p, t in zip(predictions, corpus.threads)
               if t.veracity_label is not None]
    if labeled:
        metrics = evaluation.compute_metrics(
            [p.veracity for p, _ in labeled],
            [t.veracity_label for _, t in labeled], VERACITY_CLASSES)
        write_json(out_dir / "metrics.json", asdict(metrics))
    else:
        # No labelled thread, no metrics: an earlier run's file must not stand beside these.
        (out_dir / "metrics.json").unlink(missing_ok=True)
    print(f"wrote {out_dir / 'predictions.ndjson'}")
    return 0


def cmd_loeo(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    corpus = load_corpus(cfg.corpus)
    if len(corpus.events) < 2:
        raise UsageError("LOEO needs at least two events")
    model_names = tuple(m.strip() for m in args.models.split(",") if m.strip())
    if not model_names or len(set(model_names)) < len(model_names):
        raise UsageError(f"--models must name distinct models, got {args.models!r}")
    for name in model_names:
        if name not in MODEL_NAMES:
            raise UsageError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    names, events = zip(*[(name, event) for name in model_names for event in corpus.events])
    file_names = [f"predictions_{name}_{event}.ndjson" for name, event in zip(names, events)]
    if bad := [e for e, f in zip(events, file_names) if not is_file_name(f)]:
        raise UsageError(f"event {bad[0]!r} cannot be part of a file name")
    table = _embedding_table(cfg)  # read for every model: a bad file fails the baselines too
    # Every neural fold reads one Forest of the corpus; baselines need none.
    forest = (mtl.build_forest(corpus.threads, table, cfg.max_branch_len)
              if any(name in mtl.MODEL_TASKS for name in model_names) else None)
    shared = (cfg, corpus, forest, [] if forest is None else mtl.forest_instances(forest))
    if args.jobs > 1:  # the workers get ``shared`` once; a task is its (model, event)
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(names)),
                                 initializer=_init_loeo_worker, initargs=shared) as pool:
            outcomes = list(pool.map(_run_worker_fold, names, events))
    else:
        outcomes = list(map(partial(_loeo_fold, *shared), names, events))
    out_dir = Path(cfg.output_dir)
    fold_results: dict[str, list[evaluation.FoldResult]] = {name: [] for name in model_names}
    for name, fold, file_name in zip(names, outcomes, file_names):
        if fold is None:
            continue
        fold_results[name].append(fold)
        mtl.dump_predictions(
            [mtl.ThreadPrediction(tid, fold.event, pred, prob)
             for tid, pred, prob in zip(fold.thread_ids, fold.preds, fold.probs)],
            out_dir / file_name, model_name=name)
    pooled = {name: evaluation.pool_folds(folds, VERACITY_CLASSES)
              for name, folds in fold_results.items()}
    csv_doc, txt_doc = evaluation.emit_report(
        pooled, fold_results, VERACITY_CLASSES, detail_model=model_names[-1])
    atomic_write(out_dir / "report.csv", csv_doc)
    atomic_write(out_dir / "report.txt", txt_doc)
    print(f"wrote {out_dir / 'report.csv'}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    cfg = _load_run_config(args)
    corpus = load_corpus(cfg.corpus)
    if len(corpus.events) < 2:
        raise UsageError("search needs at least two events (one as development set)")
    dev_event = evaluation.dev_event(corpus)
    train_corpus, dev = evaluation.held_out_split(corpus, dev_event)
    if not dev.threads or all(t.veracity_label is None for t in train_corpus.threads):
        raise UsageError(f"search needs veracity-labeled threads both in the dev event "
                         f"{dev_event!r} and outside it")
    forest = mtl.build_forest(corpus.threads, _embedding_table(cfg), cfg.max_branch_len)
    instances = mtl.forest_instances(forest)
    model_name = next(name for name, tasks in mtl.MODEL_TASKS.items() if tasks == cfg.tasks)

    def evaluate_config(config: dict, trial_seed: int):
        trial_cfg = replace(cfg, hp=replace(cfg.hp, **config))
        metrics = _loeo_fold(trial_cfg, corpus, forest, instances, model_name, dev_event,
                             seed=trial_seed).metrics
        return {"veracity": metrics.macro_f}, metrics.accuracy

    out_dir = Path(cfg.output_dir)
    tpe_cfg = search_mod.TPEConfig(objective_mode=args.objective)
    try:
        best, _ = search_mod.run_search(
            search_mod.default_space(), evaluate_config, n_trials=args.trials, cfg=tpe_cfg,
            seed=cfg.seed, log_path=out_dir / "trials.ndjson")
    except RuntimeError as exc:  # every trial failed; trials.ndjson holds each error
        raise UsageError(str(exc)) from None
    write_json(out_dir / "best_config.json", best.to_json_obj())
    print(f"best objective {best.objective:.4f} at trial {best.number}")
    return 0


# ---------------------------------------------------------------------------
# Dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumourmtl",
        description="Multi-task branch-LSTM pipeline for rumour veracity classification.")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit errors as one-line JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus against the schema and invariants")
    p.add_argument("corpus", help="corpus directory or ndjson file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("spec", help="generator spec file (key = value)")
    p.add_argument("-o", "--output", required=True, help="output file or directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="label-distribution diagnostics per event and task")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    def run_parser(name: str, func, *overrides: str) -> argparse.ArgumentParser:
        """A subcommand over a run config; each of ``overrides`` ("tasks",
        "epochs") gets a flag that overrides that config key."""
        p = sub.add_parser(name, help=f"{name} according to a run config")
        p.add_argument("config", help="run config file (key = value)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        if "tasks" in overrides:
            p.add_argument("--tasks", default=None, help="comma-separated task set")
        if "epochs" in overrides:
            p.add_argument("--epochs", type=int, default=None)
        p.set_defaults(func=func)
        return p

    run_parser("train", cmd_train, "tasks", "epochs")
    # The model, its tasks included, comes from the checkpoint.
    run_parser("evaluate", cmd_evaluate).add_argument(
        "--model", required=True, help="checkpoint path")
    # Each model's tasks come from mtl.MODEL_TASKS.
    p = run_parser("loeo", cmd_loeo, "epochs")
    p.add_argument("--models", default="majority,mtl3",
                   help=f"comma-separated subset of {','.join(MODEL_NAMES)}")
    p.add_argument("--jobs", type=int, default=1, help="parallel folds")
    p = run_parser("search", cmd_search, "tasks", "epochs")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--objective", choices=("product", "accuracy"), default="product")
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # A finiteness check turns an overflow into exit 1; numpy's warnings
        # would break the one-line error. loeo's pool workers, which inherit
        # no errstate under spawn or forkserver, set it in their initializer.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, CorpusError) as exc:
        _report_error(args, str(exc))
        return 1
    except FloatingPointError as exc:
        _report_error(args, f"numerical overflow, check learning_rate and the embeddings: {exc}")
        return 1
    except OSError as exc:
        # Every read turns its OSError into a UsageError or CorpusError, so
        # what reaches here is an output that cannot be written.
        _report_error(args, f"cannot write output: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        _report_error(args, f"{type(exc).__name__}: {exc}")
        return 2


def _report_error(args: argparse.Namespace, message: str) -> None:
    if getattr(args, "json_errors", False):
        sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
