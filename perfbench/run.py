"""himie benchmark: training and evaluation throughput on three document shapes.

Run from the repository root:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with timings scaled to reference time (reference.py); with
`--trace 1` they are the per-layer ones, measured by wrapping the calls into
each himie module (see perfbench/README.md for what each metric is expected
to move).

One process, one document per step, one BLAS thread; the load is a closed loop
of repeated training jobs interleaved with repeated evaluation passes.
"""
import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# probes this process starts (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

_T_START = perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import scipy

    from himie import data, evaluate, model, synth, trainer
    from himie.autodiff import NumericError, ShapeError
    from himie.config import RunConfig
    from reference import HostSpeed
    from tracing import Patches, Tracer
except ImportError as exc:
    print(f"perfbench: cannot import the himie sources under {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)

_T_IMPORTED = perf_counter()


@dataclasses.dataclass(frozen=True)
class Workload:
    tokens_per_doc: tuple[int, int]
    frames_per_doc: tuple[int, int]
    docs: int            # size of the seeded corpus the timed phases run on
    quality_epochs: int  # epochs of the fixed quality job (final_loss, avg_f1)


# Doc counts give each training job about two seconds on a 2-core x86 box and
# average step cost over enough document sizes that seeds agree.
WORKLOADS = {
    "train_default": Workload((24, 48), (2, 4), docs=64, quality_epochs=4),
    "train_long_text": Workload((160, 200), (1, 2), docs=32, quality_epochs=2),
    "train_many_frames": Workload((24, 32), (12, 16), docs=24, quality_epochs=2),
}
# final_loss and avg_f1 spread 15-40 % (IQR over median) across generator
# seeds, wider than any regression bound, so they come from one fixed corpus
# per workload shape: the default 16-document size, generated from seed 0.
QUALITY_DOCS = 16
QUALITY_SEED = 0
SETUP_REPEATS = 5
TRAIN_SHARE = 0.6  # of the busy time in the window; evaluation passes get the rest

SETUP_LAYERS = ("setup.import_s", "synth.generate_s", "data.parse_corpus_s",
                "model.init_params_s")
TRAIN_LAYERS = ("encoders.encode_text", "encoders.encode_frames", "dffm.fuse_g_to_x",
                "dffm.fuse_x_to_g", "mmcm.construct", "heads.crf_nll",
                "autodiff.multi_head_attention")
EVAL_LAYERS = ("heads.crf_decode", "model.predict", "evaluate.score_document")
OP_KINDS = ("add", "mul", "matmul", "reshape", "transpose", "getitem", "logsumexp",
            "softmax", "layer_norm", "gelu", "tsum", "neg", "stack", "concat", "relu",
            "conv1d_seq", "avg_pool_to", "tabs", "sigmoid")
REGIMES = ("full", "no_text", "no_video")


def run_config(w: Workload, seed: int, docs: int, epochs: int) -> RunConfig:
    cfg = RunConfig(epochs=epochs, seed=seed)
    cfg.gen = dataclasses.replace(cfg.gen, docs=docs, tokens_per_doc=w.tokens_per_doc,
                                  frames_per_doc=w.frames_per_doc, seed=seed)
    cfg.validate()
    return cfg


def build_corpus(cfg: RunConfig) -> tuple[data.Corpus, dict[str, float]]:
    """Generate, assign regimes and round-trip through JSONL, as `himie gen` then `train` do."""
    t0 = perf_counter()
    corpus = synth.generate(cfg.gen)
    corpus = data.assign_modality_regime(corpus, cfg.regime_fractions, cfg.seed)
    t1 = perf_counter()
    text = data.serialize_corpus(corpus)
    t2 = perf_counter()
    corpus = data.parse_corpus(text)
    t3 = perf_counter()
    return corpus, {"synth.generate_s": t1 - t0, "data.parse_corpus_s": t3 - t2}


def setup_probe(w: Workload, seed: int) -> None:
    """Child process: everything before the first training step, then exit."""
    cfg = run_config(w, seed, w.docs, 1)
    _corpus, times = build_corpus(cfg)
    t0 = perf_counter()
    model.init_params(cfg.model, cfg.seed)
    times["model.init_params_s"] = perf_counter() - t0
    times["setup.import_s"] = _T_IMPORTED - _T_START
    print(json.dumps(times))


def measure_setup(workload: str, seed: int, host: HostSpeed) -> tuple[float, dict[str, float]]:
    """Median wall time of fresh set-up processes, and median time per set-up layer."""
    walls, layers = [], {k: [] for k in SETUP_LAYERS}
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        walls.append(perf_counter() - t0)
        host.sample()
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        for k in SETUP_LAYERS:
            layers[k].append(times[k])
    return statistics.median(walls), {k: statistics.median(v) for k, v in layers.items()}


class DocClock:
    """Wall time per document, from entering one himie call to leaving another.

    Samples are filed under `tag`, which the window sets to "traced" while a
    tracer is installed, so that traced and untraced work stay apart.
    """

    def __init__(self, start: tuple[object, str], end: tuple[object, str]):
        self._start, self._end = start, end
        self.tag = "plain"
        self.ms: dict[str, list[float]] = {"plain": [], "traced": []}
        self._t0 = 0.0

    def install(self, patches: Patches) -> None:
        begin, finish = getattr(*self._start), getattr(*self._end)

        def timed_begin(*args, **kwargs):
            self._t0 = perf_counter()
            return begin(*args, **kwargs)

        def timed_finish(*args, **kwargs):
            try:
                return finish(*args, **kwargs)
            finally:
                self.ms[self.tag].append(1000.0 * (perf_counter() - self._t0))
        patches.set(*self._start, timed_begin)
        patches.set(*self._end, timed_finish)

    def docs_per_s(self, tag: str = "plain") -> float | None:
        """Documents per second of timed work: sample count over summed time."""
        ms = self.ms[tag]
        return 1000.0 * len(ms) / sum(ms) if ms else None


def step_clock() -> DocClock:
    """A training step: `forward` through the end of the Adam update."""
    return DocClock((trainer, "forward"), (trainer, "adam_step"))


def prediction_clock() -> DocClock:
    """One document's evaluation: `predict` through the end of `score_document`."""
    return DocClock((evaluate, "predict"), (evaluate, "score_document"))


class Tally:
    """Attempted operations (training steps, predictions) and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def quality_job(w: Workload, tally: Tally) -> tuple[float | None, float | None]:
    """Fixed-corpus training plus the checkpoint and report determinism checks."""
    cfg = run_config(w, QUALITY_SEED, QUALITY_DOCS, w.quality_epochs)
    corpus, _ = build_corpus(cfg)
    n = len(corpus.documents)
    tally.attempted += cfg.epochs * n + 2 * n
    try:
        result = trainer.train(cfg, corpus)
    except (NumericError, ShapeError) as exc:
        tally.fail(f"quality training raised {exc!r}")
        return None, None
    if not all(np.isfinite(rec.total) for rec in result.log):
        tally.fail("quality training logged a non-finite loss")
    final_loss = statistics.fmean(rec.total for rec in result.log[-n:])  # last epoch

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"ckpt-{os.getpid()}.bin"
    try:
        trainer.save_checkpoint(str(path), result.params, cfg, result.step, result.rng_state)
        first = path.read_bytes()
        params, cfg2, step, rng_state = trainer.load_checkpoint(str(path))
        trainer.save_checkpoint(str(path), params, cfg2, step, rng_state)
        if path.read_bytes() != first:
            tally.fail("save -> load -> save changed the checkpoint bytes")
    finally:
        path.unlink(missing_ok=True)
    try:
        report = evaluate.evaluate(result.params, cfg, corpus)
        again = evaluate.evaluate(params, cfg2, corpus)
    except (NumericError, ShapeError) as exc:
        tally.fail(f"quality evaluation raised {exc!r}")
        return final_loss, None
    if evaluate.report_bytes(report) != evaluate.report_bytes(again):
        tally.fail("two evaluate calls gave different report bytes")
    return final_loss, report["avg"]


class Window:
    """Training jobs and evaluation passes, interleaved over one time window.

    Machine speed on a shared host drifts over tens of seconds, so both kinds
    of work are spread over the whole window rather than run one after the
    other. Every training job is the same one-epoch `trainer.train` call from a
    fresh `init_params`, so each document is stepped once per job; every
    evaluation pass scores the whole corpus with the first job's parameters.
    A reference-kernel sample (reference.py) follows each job and pass. With
    a tracer, every second training job and every evaluation pass is traced;
    the untraced jobs give the rate the tracing overhead is measured against.
    """

    def __init__(self, cfg: RunConfig, corpus, tally: Tally, tracer: Tracer | None,
                 host: HostSpeed):
        self.cfg, self.corpus, self.tally, self.tracer, self.host = cfg, corpus, tally, tracer, host
        self.steps, self.predictions = step_clock(), prediction_clock()
        self.params = None
        self._busy = {"train": 0.0, "eval": 0.0}
        self._attempts = {"train": 0, "eval": 0}
        self._losses: list[float] | None = None
        self._report: bytes | None = None

    def run(self, seconds: float) -> None:
        patches = Patches()
        self.steps.install(patches)
        self.predictions.install(patches)
        min_jobs = 1 if self.tracer is None else 2  # a traced run needs both kinds of job
        try:
            t_end = perf_counter() + seconds
            while (perf_counter() < t_end or self._attempts["train"] < min_jobs
                   or (self.params is not None and not self._attempts["eval"])):
                if self.params is None or \
                        self._busy["train"] <= TRAIN_SHARE * sum(self._busy.values()):
                    self._timed("train", self._train_job)
                else:
                    self._timed("eval", self._eval_pass)
                self.host.sample()
        finally:
            patches.undo()

    def _timed(self, kind: str, op) -> None:
        traced = self.tracer is not None and (kind == "eval" or self._attempts["train"] % 2 == 1)
        self._attempts[kind] += 1
        self.tally.attempted += len(self.corpus.documents)
        self.steps.tag = self.predictions.tag = "traced" if traced else "plain"
        if traced:
            self.tracer.install(kind)
        t0 = perf_counter()
        try:
            op()
        except (NumericError, ShapeError) as exc:
            self.tally.fail(f"{kind} raised {exc!r}")
        finally:
            if traced:
                self.tracer.uninstall()
            self._busy[kind] += perf_counter() - t0

    def _train_job(self) -> None:
        result = trainer.train(self.cfg, self.corpus)
        losses = [rec.total for rec in result.log]
        if not all(np.isfinite(x) for x in losses):
            self.tally.fail("a training step logged a non-finite loss")
        if self._losses is None:
            self._losses, self.params = losses, result.params
        elif losses != self._losses:
            self.tally.fail("two identical training jobs logged different losses")

    def _eval_pass(self) -> None:
        blob = evaluate.report_bytes(evaluate.evaluate(self.params, self.cfg, self.corpus))
        if self._report is None:
            self._report = blob
        elif blob != self._report:
            self.tally.fail("two evaluate calls gave different report bytes")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def wall_times(setup_s, window: Window) -> dict[str, float | None]:
    """End-to-end timings in wall-clock seconds, before scaling to reference time."""
    step_ms = window.steps.ms["plain"]
    return {
        "setup_s": setup_s,
        "train_docs_per_s": window.steps.docs_per_s(),
        "train_step_ms.p50": float(np.percentile(step_ms, 50)) if step_ms else None,
        "train_step_ms.p90": float(np.percentile(step_ms, 90)) if step_ms else None,
        "eval_docs_per_s": window.predictions.docs_per_s(),
    }


def end_to_end(wall: dict, host: HostSpeed, final_loss, avg_f1) -> dict:
    """Timings in reference time (see reference.py): rates divide by the scale, times multiply."""
    scale = host.to_reference()
    units = {"setup_s": "s", "train_docs_per_s": "1/s", "train_step_ms.p50": "ms",
             "train_step_ms.p90": "ms", "eval_docs_per_s": "1/s"}
    out = {}
    for name, value in wall.items():
        if value is not None:
            value = value / scale if units[name] == "1/s" else value * scale
        out[name] = (value, units[name])
    out["final_loss"] = (final_loss, "loss")
    out["avg_f1"] = (avg_f1, "f1")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(setup_layers, window: Window, tracer: Tracer, host: HostSpeed) -> dict:
    """Layer numbers in wall-clock time, with the run's reference-kernel time beside them."""
    out = {k: (v, "s") for k, v in setup_layers.items()}
    incl, own, calls = tracer.totals("train")
    steps = calls["model.forward"]
    per_step = 1000.0 / steps if steps else 0.0
    out["model.forward.ms_per_step"] = (incl["model.forward"] * per_step, "ms")
    out["autodiff.backward.ms_per_step"] = (incl["autodiff.backward"] * per_step, "ms")
    out["trainer.adam_step.ms_per_step"] = (incl["trainer.adam_step"] * per_step, "ms")
    for name in TRAIN_LAYERS:
        out[f"{name}.ms_per_doc"] = (incl[name] * per_step, "ms")
    out["autodiff.multi_head_attention.calls_per_doc"] = (
        calls["autodiff.multi_head_attention"] / steps if steps else 0.0, "count")
    out["heads.compute_losses.self_ms_per_doc"] = (own["heads.compute_losses"] * per_step, "ms")

    incl, _own, calls = tracer.totals("eval")
    preds = calls["model.predict"]
    for name in EVAL_LAYERS:
        out[f"{name}.ms_per_doc"] = (incl[name] * 1000.0 / preds if preds else 0.0, "ms")

    by_regime, kinds, n = tracer.nodes_by("train")
    out["autodiff.tape_nodes_per_doc"] = (sum(sum(v) for v in by_regime.values()) / max(n, 1),
                                          "count")
    for regime in REGIMES:
        counts = by_regime.get(regime, [])
        out[f"autodiff.tape_nodes_per_doc.{regime}"] = (
            statistics.fmean(counts) if counts else 0.0, "count")
    for kind in OP_KINDS:
        out[f"autodiff.tape_nodes_per_doc.op.{kind}"] = (kinds[kind] / max(n, 1), "count")
    other = sum(c for k, c in kinds.items() if k not in OP_KINDS)
    out["autodiff.tape_nodes_per_doc.op.other"] = (other / max(n, 1), "count")
    eval_regimes, _kinds, n_eval = tracer.nodes_by("eval")
    out["autodiff.tape_nodes_per_eval_doc"] = (
        sum(sum(v) for v in eval_regimes.values()) / max(n_eval, 1), "count")

    untraced, traced = window.steps.docs_per_s("plain"), window.steps.docs_per_s("traced")
    out["trace.train_docs_per_s.untraced"] = (untraced, "1/s")
    out["trace.train_docs_per_s.traced"] = (traced, "1/s")
    overhead = 100.0 * (untraced - traced) / untraced if untraced and traced else None
    out["trace.overhead_pct"] = (overhead, "%")
    out["host.reference_kernel_ms"] = (1000.0 * statistics.median(host.samples), "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(w, args.seed)
        return 0

    host = HostSpeed()
    setup_s, setup_layers = measure_setup(args.workload, args.seed, host)
    cfg = run_config(w, args.seed, w.docs, 1)
    corpus, _ = build_corpus(cfg)
    tally = Tally()
    final_loss, avg_f1 = quality_job(w, tally)

    tracer = Tracer() if args.trace else None
    window = Window(cfg, corpus, tally, tracer, host)
    window.run(args.seconds)
    wall = wall_times(setup_s, window)

    if tracer:
        metrics = per_layer(setup_layers, window, tracer, host)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end(wall, host, final_loss, avg_f1)
    missing = sorted(k for k, (v, _u) in metrics.items() if v is None)
    if missing:
        tally.fail(f"no measurement for {missing}")
    print(json.dumps({"environment": environment(), "workload": dataclasses.asdict(w),
                      "samples": {"train_steps": {k: len(v) for k, v in window.steps.ms.items()},
                                  "predictions": {k: len(v) for k, v in
                                                  window.predictions.ms.items()},
                                  "documents": len(corpus.documents),
                                  "setup_runs": SETUP_REPEATS,
                                  "reference_kernel_runs": len(host.samples)},
                      "wall_times": wall,
                      "reference_kernel_s": statistics.median(host.samples),
                      "problems": tally.problems}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
