#!/usr/bin/env python3
"""End-to-end benchmark of the sgforge batch pipeline.

    python3 bench/run.py --workload desk --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                 # every workload, each in its own process

One client drives a closed loop: each stage is one call into the public CLI
entry `sgforge.cli.run(argv)` on files in a scratch directory inside the
checkout, one stage after another. A pass runs every stage of the workload
once. The first pass is untimed: it writes the files later stages read,
warms caches and is checked in full. Then, until `--seconds` have elapsed,
the loop runs whichever timed stage, or cold start, has had the least time
so far. Each throughput is the stage's regions over its time, summed across
its calls; `setup_s` is the median time a fresh interpreter needs to handle
one record. BLAS runs on one thread.

`--trace 1` instead alternates untraced and traced passes of every stage and
reports per-layer metrics from spans recorded around the program's public
functions (see spans.py); the traced passes also give the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json. The lines before it give the run
environment, the input properties, every metric under the pipeline's own
stage names, and each correctness check. Any failed check makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN = 9  # cold starts a run makes at least
DESK_DEV_F_FLOOR = 0.90  # the A2 acceptance floor
N_MONITOR = 100  # held-out regions the train command scores each epoch


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and configs; `model` workloads train and parse, `score` does not."""

    model: bool
    n_regions: int
    n_train: int = 0
    model_config: dict = field(default_factory=dict)
    train_config: dict = field(default_factory=dict)


WORKLOADS = {
    "desk": WorkloadSpec(
        model=True, n_regions=1400, n_train=600, train_config={"epochs": 2},
    ),
    "long": WorkloadSpec(
        model=True, n_regions=600, n_train=300,
        model_config={"tokenizer_mode": "bpe", "d_model": 128, "d_ff": 512, "max_len": 64},
        train_config={"epochs": 1, "batch_size": 8, "learning_rate": 3e-3},
    ),
    "score": WorkloadSpec(model=False, n_regions=5000),
}


@dataclass
class Stage:
    command: str  # the CLI command; also the stage name in spans
    argv: list[str]
    regions: int  # regions handled by one call
    work: int  # regions counted for throughput (train: regions x epochs)
    out: str | None = None  # record file whose region ids must equal expect_ids
    expect_ids: list[int] | None = None


@dataclass
class Plan:
    spec: WorkloadSpec
    workdir: Path
    stages: list[Stage]
    inputs: dict  # input properties known from the records alone
    setup_argv: list[str] = field(default_factory=list)
    setup_out: str = ""


# --- inputs -------------------------------------------------------------------


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, sort_keys=True) + "\n")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def describe_records(records: list[dict], synonym_share: float) -> dict:
    """Input properties that need only the records; lengths are in words."""
    objects = [len(r["objects"]) for r in records]
    words = [len(r["phrase"].split()) for r in records]
    return {
        "regions": len(records),
        "objects_per_graph_mean": statistics.fmean(objects),
        "objects_per_graph_max": max(objects),
        "synonym_share": synonym_share,
        "nodes": sum(len(r["objects"]) + len(r["attributes"]) + len(r["relationships"])
                     for r in records),
        "tokenizer": "words",
        "max_len": None,
        "tokens_mean": statistics.fmean(words),
        "tokens_max": max(words),
    }


def prepare(name: str, seed: int, workdir: Path, cli) -> Plan:
    """Write the workload's input files and return its stage list. The plan
    keeps no records, so that the run's peak RSS is mostly the program's."""
    import corpora

    spec = WORKLOADS[name]
    w = workdir
    all_path = w / "regions.jsonl"
    synonym_share = 0.0
    if name == "desk":
        rc = _call(cli, ["gen", "--n", str(spec.n_regions), "--seed", str(seed),
                         "--out", str(all_path)])[0]
        if rc != 0:
            raise RuntimeError(f"sgforge gen exited {rc}")
        records = _read_jsonl(all_path)
    elif name == "long":
        records = corpora.long_corpus(seed, spec.n_regions, spec.n_train)
        _write_jsonl(all_path, records)
    else:
        records, lexicon, counts = corpora.score_corpus(seed, spec.n_regions)
        _write_jsonl(all_path, records)
        (w / "lexicon.json").write_text(json.dumps(lexicon, sort_keys=True))
        synonym_share = counts["synonym"] / counts["surface"]

    all_ids = [r["region_id"] for r in records]
    inputs = describe_records(records, synonym_share)
    conll = str(w / "targets.conll")
    oracle = str(w / "oracle.jsonl")
    n = len(records)
    if not spec.model:
        lex = str(w / "lexicon.json")
        _write_jsonl(w / "one.jsonl", records[:1])
        stages = [
            Stage("align", ["align", "--regions", str(all_path), "--lexicon", lex,
                            "--out", conll], n, n),
            Stage("convert", ["convert", "--in", conll, "--out", oracle], n, n,
                  oracle, all_ids),
        ]
        for mode in ("base", "limited"):
            stages.append(Stage("eval", [
                "eval", "--pred", oracle, "--ref", str(all_path), "--mode", mode,
                "--lexicon", lex, "--out", str(w / f"eval.oracle.{mode}.jsonl")], n, n))
        return Plan(spec, w, stages, inputs,
                    ["align", "--regions", str(w / "one.jsonl"), "--lexicon", lex,
                     "--out", str(w / "one.conll")], str(w / "one.conll"))

    train, held = records[: spec.n_train], records[spec.n_train :]
    held_path = w / "heldout.jsonl"
    _write_jsonl(held_path, held)
    (w / "split.json").write_text(json.dumps({
        "train_image_ids": sorted({r["image_id"] for r in train}),
        "eval_image_ids": sorted({r["image_id"] for r in held[:N_MONITOR]}),
    }))
    (w / "model.json").write_text(json.dumps(spec.model_config))
    (w / "train.json").write_text(json.dumps(spec.train_config))
    (w / "one.txt").write_text(held[0]["phrase"] + "\n")
    ckpt = str(w / "ckpt")
    pred = str(w / "pred.jsonl")
    epochs = spec.train_config.get("epochs", 4)
    held_ids = [r["region_id"] for r in held]
    stages = [
        Stage("align", ["align", "--regions", str(all_path), "--out", conll], n, n),
        Stage("train", ["train", "--conll", conll, "--regions", str(all_path),
                        "--split", str(w / "split.json"),
                        "--model-config", str(w / "model.json"),
                        "--train-config", str(w / "train.json"), "--out", ckpt],
              len(train), len(train) * epochs),
        Stage("parse", ["parse", "--ckpt", ckpt, "--regions", str(held_path), "--out", pred],
              len(held), len(held), pred, held_ids),
        Stage("convert", ["convert", "--in", conll, "--out", oracle], n, n, oracle, all_ids),
    ]
    for mode in ("base", "limited"):
        stages.append(Stage("eval", [
            "eval", "--pred", pred, "--ref", str(held_path), "--mode", mode,
            "--out", str(w / f"eval.pred.{mode}.jsonl")], len(held), len(held)))
        stages.append(Stage("eval", [
            "eval", "--pred", oracle, "--ref", str(all_path), "--mode", mode,
            "--out", str(w / f"eval.oracle.{mode}.jsonl")], n, n))
    return Plan(spec, w, stages, inputs,
                ["parse", "--ckpt", ckpt, "--input", str(w / "one.txt"),
                 "--out", str(w / "one.jsonl")], str(w / "one.jsonl"))


# --- stages -------------------------------------------------------------------


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception as e:  # a traceback is a failed stage, not a dead benchmark
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    seconds: dict[str, float]  # per command, summed over its calls
    work: dict[str, int]
    align_stdout: str = ""  # the align summary, for the input properties
    failed_stage: Stage | None = None
    error: str = ""
    attempted: int = 0


def run_stages(stages: list[Stage], cli, tracer=None) -> PassResult:
    res = PassResult({}, {})
    for stage in stages:
        res.attempted += stage.regions
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.stage = stage.command
            rc, out, err = tracer.run_span(f"cli.{stage.command}", _call, cli, stage.argv)
        else:
            rc, out, err = _call(cli, stage.argv)
        dt = time.perf_counter() - t0
        if rc != 0:
            res.failed_stage, res.error = stage, f"{stage.command} exited {rc}: {err.strip()}"
            return res
        res.seconds[stage.command] = res.seconds.get(stage.command, 0.0) + dt
        res.work[stage.command] = res.work.get(stage.command, 0) + stage.work
        if stage.command == "align":
            res.align_stdout = out
    return res


# --- checks ---------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _aggregate(path: str) -> dict:
    return json.loads(Path(path).read_text().splitlines()[-1])["aggregate"]


def quality(plan: Plan) -> dict[str, float]:
    w = plan.workdir
    q = {f"oracle_f_{m}": _aggregate(str(w / f"eval.oracle.{m}.jsonl"))["mean_f"]
         for m in ("base", "limited")}
    if plan.spec.model:
        q.update({f"dev_f_{m}": _aggregate(str(w / f"eval.pred.{m}.jsonl"))["mean_f"]
                  for m in ("base", "limited")})
    return q


def check_stages(plan: Plan, name: str, stages: list[Stage], res: PassResult,
                 checks: Checks, first_quality) -> tuple[dict, int]:
    """Output checks for one run of `stages`. Returns the quality figures,
    when an eval stage ran, and the number of regions a stage gave no output
    for."""
    if res.failed_stage is not None:
        checks.add("stages_exit_0", False, res.error)
        return {}, res.failed_stage.regions
    checks.add("stages_exit_0", True)
    missing = 0
    for stage in stages:
        if stage.out is None:
            continue
        ids = [r["region_id"] for r in _read_jsonl(Path(stage.out))]
        missing += len(set(stage.expect_ids) - set(ids))
        checks.add(f"{stage.command}_one_record_per_region", ids == stage.expect_ids,
                   f"{len(ids)} records for {len(stage.expect_ids)} regions")
    if not any(stage.command == "eval" for stage in stages):
        return {}, missing
    q = quality(plan)
    if first_quality is None:
        if name == "desk":
            checks.add("desk_oracle_f_is_1", q["oracle_f_base"] == 1.0 == q["oracle_f_limited"],
                       f"base {q['oracle_f_base']} limited {q['oracle_f_limited']}")
            checks.add("desk_dev_f_floor", q["dev_f_base"] >= DESK_DEV_F_FLOOR,
                       f"dev F {q['dev_f_base']:.4f} against {DESK_DEV_F_FLOOR}")
    else:
        checks.add("quality_repeats_exactly", q == first_quality, f"{q} vs {first_quality}")
    return q, missing


def check_checkpoint(plan: Plan, checks: Checks) -> None:
    """A checkpoint read back and written again must equal the file the
    train command produced, byte for byte."""
    from sgforge.train import load_checkpoint, save_checkpoint

    base = str(plan.workdir / "ckpt")
    again = str(plan.workdir / "ckpt.reread")
    save_checkpoint(load_checkpoint(base), again)
    same = all(Path(base + ext).read_bytes() == Path(again + ext).read_bytes()
               for ext in (".json", ".bin"))
    checks.add("checkpoint_bit_exact", same)


# --- set-up time ----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def cold_start(plan: Plan, checks: Checks) -> float:
    """Wall time of a fresh interpreter handling one record."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sgforge", *plan.setup_argv],
                          cwd=plan.workdir, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    checks.add("setup_one_record",
               proc.returncode == 0 and Path(plan.setup_out).read_text().strip() != "",
               proc.stderr.strip()[-300:])
    return seconds


# --- reporting ------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def input_properties(plan: Plan, align_stdout: str) -> dict:
    props = dict(plan.inputs)
    props["unaligned_share"] = json.loads(align_stdout)["unaligned_nodes"] / props["nodes"]
    if plan.spec.model:
        from sgforge.train import load_checkpoint

        ckpt = load_checkpoint(str(plan.workdir / "ckpt"))
        lengths = [len(ckpt.tokenizer.encode(r["phrase"])) - 1
                   for r in _read_jsonl(plan.workdir / "regions.jsonl")]
        props.update(tokenizer=ckpt.tokenizer.mode, max_len=ckpt.model_config.max_len,
                     tokens_mean=statistics.fmean(lengths), tokens_max=max(lengths))
    return props


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def pooled_rate(samples: list[tuple[str, int, float]], command: str) -> float:
    """Regions per second over every timed call of the command."""
    return (sum(work for c, work, _ in samples if c == command)
            / sum(dt for c, _, dt in samples if c == command))


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Current resident set; 0 where /proc is missing."""
    with contextlib.suppress(OSError), open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    return 0.0


def stage_report(run: Run, setup_s: float) -> list[tuple[str, float, str]]:
    """Every metric under the pipeline's own stage names."""
    rows = [("setup_s", setup_s, "s")]
    for command in timed_commands(run.model):
        rows.append((f"{command}_regions_per_s", pooled_rate(run.samples, command),
                     "regions/s"))
    for key in ("dev_f_base", "dev_f_limited", "oracle_f_base", "oracle_f_limited"):
        if key in run.quality:
            rows.append((key, run.quality[key], "mean F"))
    rows.append(("peak_rss_mb", run.peak_rss_mb, "MB"))
    rows.append(("harness_rss_mb", run.harness_rss_mb, "MB"))
    rows.append(("failed_frac", run.failed / run.attempted, "share"))
    return rows


# Score has no model, so the first two throughput slots of the gated metrics
# hold align and convert where the model workloads hold train and parse.
SLOTS = {
    "train_or_align_regions_per_s": ("train", "align"),
    "parse_or_convert_regions_per_s": ("parse", "convert"),
}


def timed_commands(model: bool) -> list[str]:
    """The stages whose throughput is gated: the slots' stages, then eval."""
    slots = [with_model if model else without for with_model, without in SLOTS.values()]
    return slots + ["eval"]


def end_to_end(rows: list[tuple[str, float, str]], model: bool) -> dict[str, float]:
    """The gated metrics, taken from the stage report's rows."""
    values = {key: value for key, value, _ in rows}
    for slot, (with_model, without) in SLOTS.items():
        values[slot] = values[f"{with_model if model else without}_regions_per_s"]
    return values


# --- tracing ----------------------------------------------------------------------


def _count_model_tokens(counts, result, args):
    counts["model.tokens"] += len(args[2]) - 1


def _count_encode(counts, result, args):
    counts["tokenizer.tokens"] += len(result.ids) - 1


def _count_align(counts, result, args):
    g = args[1]
    total = len(g.objects) + len(g.attributes) + len(g.relations)
    counts["align.nodes"] += total
    counts["align.nodes_aligned"] += total - len(result.unaligned_nodes)
    for node in result.unaligned_nodes:
        counts[f"align.unaligned.{node[0]}"] += 1


def _count_decode(counts, result, args):
    arcs = sum(1 for tok in args[0] if tok.node_type.name != "NONE")
    counts["tags.arcs"] += arcs
    counts["tags.arcs_attached"] += arcs - len({i for i, _ in result.dropped_arcs})
    for _, reason in result.dropped_arcs:
        counts[f"tags.dropped.{reason}"] += 1


def _count_ingest(counts, result, args):
    regions, errors = result
    counts["data.records"] += len(regions)
    counts["data.errors"] += len(errors)


def _count_spice(counts, result, args):
    counts["metrics.matches"] += result.matches
    counts["metrics.num_pred"] += result.num_pred
    counts["metrics.num_ref"] += result.num_ref


TRACE_TARGETS = [
    ("sgforge.model", "forward", "model.forward", _count_model_tokens),
    ("sgforge.model", "loss_and_grads", "model.loss_and_grads", _count_model_tokens),
    ("sgforge.model", "predict", "model.predict", None),
    ("sgforge.model", "read_tags", "model.read_tags", None),
    ("sgforge.model", "loss_from_outputs", "model.loss_from_outputs", None),
    ("sgforge.model", "gelu", "model.gelu", None),
    ("sgforge.model", "gelu_grad", "model.gelu_grad", None),
    ("sgforge.model", "softmax", "model.softmax", None),
    ("sgforge.train", "train", "train.train", None),
    ("sgforge.train", "adam_step", "train.adam_step", None),
    ("sgforge.train", "calibrate_lambda", "train.calibrate_lambda", None),
    ("sgforge.train", "save_checkpoint", "train.save_checkpoint", None),
    ("sgforge.train", "load_checkpoint", "train.load_checkpoint", None),
    ("sgforge.tokenizer", "Tokenizer.encode", "tokenizer.encode", _count_encode),
    ("sgforge.tokenizer", "Tokenizer.from_corpus", "tokenizer.from_corpus", None),
    ("sgforge.align", "align", "align.align", _count_align),
    ("sgforge.tags", "decode_tags_to_graph", "tags.decode_tags_to_graph", _count_decode),
    ("sgforge.tags", "read_conll", "tags.read_conll", None),
    ("sgforge.tags", "write_conll", "tags.write_conll", None),
    ("sgforge.data", "ingest", "data.ingest", _count_ingest),
    ("sgforge.graph", "build_graph", "graph.build_graph", None),
    ("sgforge.graph", "extract_tuples", "graph.extract_tuples", None),
    ("sgforge.metrics", "evaluate_corpus", "metrics.evaluate_corpus", None),
    ("sgforge.metrics", "spice_f1", "metrics.spice_f1", _count_spice),
]


def per_layer(spans, counts, q: dict) -> dict[str, float]:
    """One traced pass folded into per-layer figures, ratios next to their bases."""
    from spans import summarize

    m = dict(summarize(spans))
    m.update(counts)
    if counts.get("align.nodes"):
        m["align.aligned_frac"] = counts["align.nodes_aligned"] / counts["align.nodes"]
    if counts.get("tags.arcs"):
        m["tags.attached_frac"] = counts["tags.arcs_attached"] / counts["tags.arcs"]
    for key in ("dev_f_base", "dev_f_limited"):
        if key in q:
            m[f"model.{key}"] = q[key]
    return m


# --- entry points -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from sgforge import cli
    except ImportError as e:
        print(f"bench: cannot import sgforge from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: sgforge came from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    declared = load_declared()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        print("env " + json.dumps(environment(seed), sort_keys=True))
        plan = prepare(name, seed, workdir, cli)
        run = measure(name, plan, cli, seconds, trace)
        report(name, plan, run, trace, declared)
        return 0 if run.correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Run:
    """Everything one benchmark run collected."""

    model: bool
    harness_rss_mb: float  # RSS before the first stage: interpreter, imports, harness
    checks: Checks = field(default_factory=Checks)
    samples: list[tuple[str, int, float]] = field(default_factory=list)  # command, regions, s
    passes: list[PassResult] = field(default_factory=list)  # untraced passes of a traced run
    traced: list[tuple[PassResult, list, dict]] = field(default_factory=list)
    align_stdout: str = ""  # the first pass's align summary, for the input properties
    quality: dict | None = None
    setup_times: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # peak RSS over every stage
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return self.checks.ok and self.failed == 0

    def record(self, plan: Plan, name: str, stages: list[Stage], res: PassResult) -> bool:
        """Counts and checks one run of `stages`; False once any check failed."""
        self.attempted += res.attempted
        q, missing = check_stages(plan, name, stages, res, self.checks, self.quality)
        self.failed += missing
        self.quality = self.quality or q
        return self.checks.ok


def measure(name: str, plan: Plan, cli, seconds: float, trace: bool) -> Run:
    """An untimed first pass of every stage, then timed calls until `seconds`
    have elapsed since it began."""
    run = Run(plan.spec.model, rss_mb())
    t_end = time.perf_counter() + seconds
    first = run_stages(plan.stages, cli)
    run.align_stdout = first.align_stdout
    if not run.record(plan, name, plan.stages, first):
        return run
    (alternate_traced if trace else rotate)(run, name, plan, cli, t_end)
    if not run.checks.ok:
        return run
    run.peak_rss_mb = max_rss_mb()
    run.setup_times += [cold_start(plan, run.checks)
                        for _ in range(SETUP_MIN - len(run.setup_times))]
    if plan.spec.model:
        check_checkpoint(plan, run.checks)
    return run


def rotate(run: Run, name: str, plan: Plan, cli, t_end: float) -> None:
    """Runs whichever timed stage, or a cold start, has had the least time so
    far, until t_end and until each has run once. Each gated metric so gets
    an equal share of the run, spread over all of it: a shared machine can
    change speed within seconds."""
    groups = {c: [s for s in plan.stages if s.command == c]
              for c in timed_commands(plan.spec.model)}
    spent = dict.fromkeys([*groups, "setup"], 0.0)
    while run.checks.ok and (time.perf_counter() < t_end or not all(spent.values())):
        key = min(spent, key=spent.get)
        if key == "setup":
            run.setup_times.append(cold_start(plan, run.checks))
            spent[key] += run.setup_times[-1]
            continue
        res = run_stages(groups[key], cli)
        if run.record(plan, name, groups[key], res):
            run.samples.append((key, res.work[key], res.seconds[key]))
            spent[key] += res.seconds[key]


def alternate_traced(run: Run, name: str, plan: Plan, cli, t_end: float) -> None:
    """Untraced and traced passes of every stage alternate until t_end and
    until each kind has run once."""
    from spans import Tracer

    tracer = Tracer()
    while True:
        use_tracer = len(run.traced) < len(run.passes)
        if use_tracer:
            tracer.install(TRACE_TARGETS)
            try:
                res = run_stages(plan.stages, cli, tracer)
            finally:
                tracer.uninstall()
        else:
            res = run_stages(plan.stages, cli)
        if not run.record(plan, name, plan.stages, res):
            return
        if use_tracer:
            spans, counts = tracer.take()
            run.traced.append((res, spans, per_layer(spans, counts, run.quality)))
        else:
            run.passes.append(res)
            run.samples += [(c, res.work[c], res.seconds[c])
                            for c in timed_commands(plan.spec.model)]
        if time.perf_counter() >= t_end and run.traced:
            return


def trace_layers(name: str, run: Run) -> dict[str, float]:
    """Per-layer medians over traced passes, plus the tracing overhead; the
    spans of every traced pass go to .bench_out/spans-<workload>.jsonl."""
    from spans import write_spans

    layer = _median_layers([m for _, _, m in run.traced])
    untraced_s = statistics.median(sum(p.seconds.values()) for p in run.passes)
    traced_s = statistics.median(sum(r.seconds.values()) for r, _, _ in run.traced)
    layer.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                  "trace.overhead_frac": traced_s / untraced_s - 1.0})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    write_spans(str(out_dir / f"spans-{name}.jsonl"), [s for _, s, _ in run.traced])
    return layer


def _median_layers(per_pass: list[dict]) -> dict[str, float]:
    keys = set().union(*per_pass)
    return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}


def report(name: str, plan: Plan, run: Run, trace: bool, declared: dict) -> None:
    if run.checks.ok:
        props = input_properties(plan, run.align_stdout)
        if props["max_len"] is not None:
            run.checks.add("tokens_within_max_len", props["tokens_max"] <= props["max_len"],
                           f"{props['tokens_max']} tokens against max_len {props['max_len']}")
        print("inputs " + json.dumps(props, sort_keys=True))
    seen = set()
    for check, ok, detail in run.checks.results:
        if (check, ok) not in seen:
            seen.add((check, ok))
            print(f"check {check} {'ok' if ok else 'FAILED'}"
                  + (f" ({detail})" if detail and not ok else ""))

    metrics: dict[str, dict] = {}
    if run.checks.ok:
        rows = stage_report(run, statistics.median(run.setup_times))
        for key, value, unit in rows:
            print(f"metric {key} {value:.6g} {unit}")
        print("samples setup_s " + " ".join(f"{t:.5g}" for t in run.setup_times))
        for command in timed_commands(run.model):
            print(f"samples {command}_regions_per_s " + " ".join(
                f"{work / dt:.5g}" for c, work, dt in run.samples if c == command))
        if trace:
            values = trace_layers(name, run)
            for key in sorted(values):
                print(f"layer {key} {values[key]:.6g}")
            # a workload that never calls a function reports 0 for it
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in declared["per_layer"]}
        else:
            values = end_to_end(rows, plan.spec.model)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared["end_to_end"]}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in its own interpreter; the last line maps workload to
    its result object."""
    results = {}
    all_ok = True
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
        except subprocess.TimeoutExpired:
            print(f"bench: {name} did not finish within 900 s", file=sys.stderr)
            results[name], all_ok = None, False
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        all_ok = all_ok and proc.returncode == 0
    print(json.dumps(results))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
