"""metlit benchmark: seeded workloads through the real CLI, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of the workloads below, or `all`
to run every workload in turn. The program runs from `src/` as child
processes (`python3 -m metlit.cli ...`); it receives only the inputs that
`perfbench/gen.py` writes for the seed.

Each workload is a closed loop: one command chain at a time, from this one
process, with the BLAS pools pinned to one thread. A run repeats the chain
for about S seconds (at least twice) and reports medians: `pipeline_s` is
the wall time from spawning the first child to the exit of the last,
`pipeline_cpu_s` their user+sys time and `peak_rss_mb` their largest
`ru_maxrss`, all read with `os.wait4`. `setup_s` is the wall time of
`metlit --help` (import and parser, no work), probed twice after each
repetition. Every repetition is checked: exit status 0, exactly one JSON
object on stdout, every expected artifact present, artifacts byte-identical
to the first repetition, and a quality floor. A failed check counts towards
`error_rate` (failed / attempted, also the `failed` and `attempted` fields
of the result) and the run carries on.

With `--trace 0` the end-to-end metrics are reported. With `--trace 1`
repetitions alternate between the plain CLI and `perfbench/trace_child.py`,
which records spans around each layer's calls; the per-layer metrics come
from the traced repetitions, and `trace.overhead_s` is the difference
between the traced and plain medians.

Human-readable lines go to stdout first (metrics, checks, environment,
input hashes); the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, the metric names and units being those
in BENCHMARK.json. Work files go under `.bench_run/` and are removed at
the end, except the span dump of the last traced repetition,
`.bench_run/spans-<workload>-s<seed>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")

PROBES_PER_REP = 2        # timed `--help` children after each repetition
MIN_REPS = 2              # the byte-identity check needs a second repetition
ACCURACY_FLOOR = {"full": 0.8, "toy": 0.6}


@dataclass(frozen=True)
class Workload:
    commands: Callable    # (inputs dir, out dir, seed) -> list of argv lists
    artifacts: tuple      # files every repetition must leave in its out dir
    layers: frozenset     # layers the traced run must reach, and no others
    copy_in: tuple = ()   # inputs copied into the out dir before timing


# One training epoch and 10 SVM epochs keep a repetition near 7 s, so a run
# holds several; GloVe gets lr 0.1 because at lr 0.05 one epoch leaves the
# accuracy swinging from seed to seed.
def _zipf_pipeline(model: str, window: int, *extra: str):
    def commands(inputs, out, seed):
        return [[
            "pipeline",
            "--corpus", os.path.join(inputs, gen.CORPUS_FILE),
            "--labeled", os.path.join(inputs, gen.PHRASES_FILE),
            "--model", model, "--dim", "50", "--window", str(window),
            "--epochs", "1", *extra, "--svm-epochs", "10",
            "--seed", str(seed), "--out", out,
        ]]
    return commands


_SHARED = ("vocab.txt", "embeddings.txt", "sentence_vectors.txt",
           "ttest_report.tsv", "cv_report.tsv", "svm_model.txt")
_TAIL = {"cli", "sentvec", "stats", "classifier"}

WORKLOADS = {
    "cbow-zipf": Workload(
        commands=_zipf_pipeline("cbow", 5),
        artifacts=_SHARED,
        layers=frozenset(_TAIL | {"corpus", "cbow", "embeddings"}),
    ),
    "glove-zipf": Workload(
        commands=_zipf_pipeline("glove", 10, "--lr", "0.1"),
        artifacts=_SHARED + ("cooccurrence.bin",),
        layers=frozenset(_TAIL | {"corpus", "cooccur", "glove", "embeddings"}),
    ),
    "cv-eval": Workload(
        commands=lambda inputs, out, seed: [
            ["ttest", "--out", out],
            ["cv", "--seed", str(seed), "--out", out],
        ],
        artifacts=("ttest_report.tsv", "cv_report.tsv", "svm_model.txt"),
        layers=frozenset(_TAIL),
        copy_in=(gen.VECTORS_FILE,),
    ),
}


# ---------------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one closed loop, no extra threads: pin the BLAS pools to one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str


def run_child(argv: list, stdout_path: str, env: dict) -> Child:
    """Spawn one child, wait for it with `os.wait4` and return its usage."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, text)


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "metlit.cli", *args]


def traced_argv(args: list, spans_path: str) -> list:
    return [sys.executable, TRACE_CHILD, spans_path, *args]


# ---------------------------------------------------------------- checks

@dataclass
class Rep:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    accuracy: float | None = None
    hashes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_summary(stdout: str):
    """The CLI's stdout must be exactly one JSON object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != 1:
        return None
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def planted_dims_significant(report_path: str, planted: int) -> bool:
    """The dimensions the generator shifted must test significant."""
    with open(report_path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    verdict = {row[0]: row[4] for row in rows if len(row) == 5}
    return all(verdict.get(str(d)) == "true" for d in range(planted))


def check_rep(rep: Rep, children: list, workload: Workload, out: str,
              reference: dict | None, size: str, traced: bool) -> None:
    for k, child in enumerate(children):
        if child.code != 0:
            rep.errors.append(f"command {k} exited with status {child.code}")
        summary = parse_summary(child.stdout)
        if summary is None:
            rep.errors.append(f"command {k} did not print exactly one JSON object")
            summary = {}
    for name in workload.artifacts:
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            rep.errors.append(f"artifact missing: {name}")
            continue
        rep.hashes[name] = sha256_file(path)
        if reference is not None and reference.get(name) != rep.hashes[name]:
            rep.errors.append(f"artifact differs from the first repetition: {name}")
    cv = summary.get("cv", summary)  # the last command's summary holds the cv result
    rep.accuracy = cv.get("mean_accuracy")
    if not isinstance(rep.accuracy, (int, float)):
        rep.errors.append("cv summary has no mean_accuracy")
        rep.accuracy = None
    elif rep.accuracy < ACCURACY_FLOOR[size]:
        rep.errors.append(f"cv accuracy {rep.accuracy:.3f} below {ACCURACY_FLOOR[size]}")
    # a copied-in input is the generated sentence-vector file, whose shifted
    # dimensions any correct t-test must flag
    if workload.copy_in and "ttest_report.tsv" in rep.hashes:
        planted = gen.SIZES[size].planted
        if not planted_dims_significant(os.path.join(out, "ttest_report.tsv"), planted):
            rep.errors.append("a planted dimension did not test significant")
    if traced and not rep.spans:
        rep.errors.append("traced repetition recorded no spans")
    elif traced:
        reached = layers_reached(rep.spans)
        if reached != workload.layers:
            rep.errors.append(
                f"traced layers {sorted(reached)} != expected {sorted(workload.layers)}")


# ---------------------------------------------------------------- spans

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layers_reached(spans: list) -> set:
    reached = {layer_of(s["name"]) for s in spans}
    reached.update(layer_of(n) for s in spans for n in s["inner"])
    return reached


def self_times(spans: list) -> dict:
    """Self time per layer: span duration minus its children and inner calls."""
    own = [s["end"] - s["start"] - sum(sec for _, sec in s["inner"].values())
           for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    layers: dict = {}
    for s, seconds in zip(spans, own):
        for name, sec in [(s["name"], seconds)] + [(n, v[1]) for n, v in s["inner"].items()]:
            layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + sec
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list, wall: float) -> tuple:
    """Per-layer metrics and self-time shares of one traced repetition."""
    dur: dict = {}     # span name -> summed duration
    total: dict = {}   # "span name:count" -> summed over calls
    last: dict = {}    # "span name:count" -> value at the latest call
    encode = [0, 0.0]  # Vocabulary.encode calls and seconds
    full_fit = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        for key, value in s["counts"].items():
            slot = f"{s['name']}:{key}"
            total[slot] = total.get(slot, 0) + value
            last[slot] = value
        calls, seconds = s["inner"].get("corpus.encode", (0, 0.0))
        encode = [encode[0] + calls, encode[1] + seconds]
        if s["name"] == "classifier.train_svm" and spans[s["parent"]]["name"] == "cli.main":
            full_fit += d

    def t(name):
        return dur.get(name, 0.0)

    def c(slot):
        return total.get(slot, 0)

    tokens = c("corpus.read_corpus_lines:tokens")
    cbow_windows = c("cbow.train_cbow:windows")
    glove_pairs = c("glove.train_glove:pairs")
    steps = c("classifier.train_svm:steps")
    table_bytes = last.get("cooccur.save_table:bytes", last.get("cooccur.load_table:bytes", 0))
    emb_bytes = last.get("embeddings.save_embeddings:bytes",
                         last.get("embeddings.load_embeddings:bytes", 0))
    selfs = self_times(spans)
    m = {
        "corpus.read_s": t("corpus.read_corpus_lines"),
        "corpus.vocab_s": t("corpus.build_vocabulary"),
        "corpus.encode_s": encode[1],
        "corpus.encode_calls": encode[0],
        "corpus.tokens": tokens,
        "corpus.tokens_per_s": _ratio(tokens, t("corpus.read_corpus_lines")),
        "cooccur.build_s": t("cooccur.build_cooccurrence"),
        "cooccur.tokens_per_s": _ratio(c("cooccur.build_cooccurrence:tokens"),
                                       t("cooccur.build_cooccurrence")),
        "cooccur.entries": last.get("cooccur.build_cooccurrence:entries", 0),
        "cooccur.save_s": t("cooccur.save_table"),
        "cooccur.load_s": t("cooccur.load_table"),
        "cooccur.save_mb_per_s": _ratio(c("cooccur.save_table:bytes") / 1e6,
                                        t("cooccur.save_table")),
        "cooccur.load_mb_per_s": _ratio(c("cooccur.load_table:bytes") / 1e6,
                                        t("cooccur.load_table")),
        "cooccur.table_bytes": table_bytes,
        "cbow.train_s": t("cbow.train_cbow"),
        "cbow.windows": cbow_windows,
        "cbow.windows_per_s": _ratio(cbow_windows, t("cbow.train_cbow")),
        "cbow.step_us": _ratio(t("cbow.train_cbow") * 1e6, cbow_windows),
        "cbow.final_loss": last.get("cbow.train_cbow:final_loss", 0),
        "glove.train_s": t("glove.train_glove"),
        "glove.pairs": glove_pairs,
        "glove.pairs_per_s": _ratio(glove_pairs, t("glove.train_glove")),
        "glove.step_us": _ratio(t("glove.train_glove") * 1e6, glove_pairs),
        "glove.final_loss": last.get("glove.train_glove:final_loss", 0),
        "embeddings.save_s": t("embeddings.save_embeddings"),
        "embeddings.load_s": t("embeddings.load_embeddings"),
        "embeddings.bytes": emb_bytes,
        "sentvec.embed_s": t("sentvec.embed_dataset"),
        "sentvec.save_s": t("sentvec.save_sentence_vectors"),
        "sentvec.load_s": t("sentvec.load_sentence_vectors"),
        "sentvec.coverage": last.get("sentvec.embed_dataset:coverage", 0),
        "sentvec.excluded": last.get("sentvec.embed_dataset:excluded", 0),
        "stats.ttest_s": t("stats.group_ttest"),
        "stats.tests": c("stats.group_ttest:tests"),
        "classifier.cv_s": t("classifier.cross_validate"),
        "classifier.full_fit_s": full_fit,
        "classifier.pegasos_steps": steps,
        "classifier.steps_per_s": _ratio(
            steps, t("classifier.cross_validate") + full_fit),
        "cli.self_s": selfs.get("cli", 0.0),
        "trace.pipeline_s": wall,
        "trace.self_sum_s": sum(selfs.values()),
    }
    shares = {layer: _ratio(sec, sum(selfs.values())) for layer, sec in selfs.items()}
    return m, shares


# ---------------------------------------------------------------- running

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    def __init__(self, name: str, seed: int, size: str, corrupt_rep: int | None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.size = size
        self.corrupt_rep = corrupt_rep
        self.env = child_env()
        self.dir = os.path.join(WORK, f"{name}-s{seed}")
        self.inputs = os.path.join(self.dir, "inputs")
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reps = 0

    def setup(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        return gen.generate(self.seed, self.inputs, self.size)

    def setup_probe(self) -> float:
        """Wall time of `metlit --help`: import plus parser, no work."""
        child = run_child(cli_argv(["--help"]), os.path.join(self.dir, "help.out"), self.env)
        self.attempted += 1
        if child.code != 0 or "usage: metlit" not in child.stdout:
            self.failed += 1
            print(f"check failed: `metlit --help` exited {child.code}")
        return child.wall

    def rep(self, traced: bool) -> Rep:
        """One repetition of the workload's command chain, then its checks."""
        index = self.reps
        self.reps += 1
        out = os.path.join(self.dir, f"rep{index}")
        os.makedirs(out)
        for name in self.workload.copy_in:
            shutil.copy(os.path.join(self.inputs, name), out)
        rep = Rep()
        children = []
        commands = self.workload.commands(self.inputs, out, self.seed)
        start = time.perf_counter()
        for k, args in enumerate(commands):
            stdout_path = os.path.join(out, f"cmd{k}.out")
            if traced:
                argv = traced_argv(args, os.path.join(out, f"cmd{k}.spans.json"))
            else:
                argv = cli_argv(args)
            children.append(run_child(argv, stdout_path, self.env))
        rep.wall = time.perf_counter() - start
        rep.cpu = sum(c.cpu for c in children)
        rep.peak_rss_mb = max(c.maxrss_kb for c in children) / 1024.0
        if traced:
            for k in range(len(commands)):
                path = os.path.join(out, f"cmd{k}.spans.json")
                if os.path.isfile(path):
                    with open(path, encoding="utf-8") as fh:
                        spans = json.load(fh)["spans"]
                    base = len(rep.spans)
                    for s in spans:
                        if s["parent"] is not None:
                            s["parent"] += base
                    rep.spans.extend(spans)
        if index == self.corrupt_rep:
            # self-test hook: damage one artifact so the checks must notice
            with open(os.path.join(out, self.workload.artifacts[-1]), "ab") as fh:
                fh.write(b"\0")
        self.attempted += 1
        check_rep(rep, children, self.workload, out, self.reference, self.size, traced)
        if self.reference is None:
            self.reference = rep.hashes
        if rep.errors:
            self.failed += 1
            for error in rep.errors:
                print(f"check failed: {self.name} rep {index}: {error}")
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def measure(self, seconds: float, traced: bool) -> tuple:
        """Repeat until the next repetition would overrun `seconds`.

        Set-up probes run between repetitions, so that they sample the
        same stretch of machine time as the repetitions do.
        """
        self.setup_probe()  # warms the file cache and bytecode; not counted
        groups, setup = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            group = [self.rep(traced=False)]
            if traced:
                group.append(self.rep(traced=True))
            groups.append(group)
            if not traced:
                setup.extend(self.setup_probe() for _ in range(PROBES_PER_REP))
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            # a chain slower than the whole budget runs once, so that the
            # run still ends in bounded time
            if elapsed + took > seconds and (len(groups) >= MIN_REPS or elapsed >= seconds):
                return groups, setup


def end_to_end(runner: Runner, setup: list, reps: list) -> dict:
    """Samples of each end-to-end metric: one per repetition or probe."""
    return {
        "pipeline_s": [r.wall for r in reps],
        "pipeline_cpu_s": [r.cpu for r in reps],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
        "setup_s": setup,
        "cv_accuracy": [r.accuracy for r in reps if r.accuracy is not None] or [0.0],
    }


def per_layer(runner: Runner, groups: list, names: list) -> dict:
    """Samples of each per-layer metric: one per traced repetition."""
    traced = [g[1] for g in groups if g[1].spans]
    if not traced:  # already counted as failed; report zeros, not a crash
        return {name: [0.0] for name in names}
    rows = [layer_metrics(r.spans, r.wall) for r in traced]
    samples = {name: [m[name] for m, _ in rows] for name in rows[0][0]}
    plain = statistics.median(g[0].wall for g in groups)
    samples["trace.overhead_s"] = [statistics.median(samples["trace.pipeline_s"]) - plain]
    shares = {layer: statistics.median(s.get(layer, 0.0) for _, s in rows)
              for layer in rows[0][1]}
    print(f"{runner.name} traced {statistics.median(samples['trace.pipeline_s']):.4f} s, "
          f"plain {plain:.4f} s; self times sum to "
          f"{statistics.median(samples['trace.self_sum_s']):.4f} s")
    print(f"{runner.name} self-time share: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"{runner.name} step_us figures are computed: train span / work count")
    dump = os.path.join(WORK, f"spans-{runner.name}-s{runner.seed}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"workload": runner.name, "seed": runner.seed,
                   "spans": traced[-1].spans}, fh)
    print(f"{runner.name} spans of the last traced repetition: {dump}")
    return samples


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        from threadpoolctl import threadpool_info
        pools = threadpool_info()
    except ImportError:
        pools = "threadpoolctl not installed"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads_env": {v: child_env()[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threadpools": pools,
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(name: str, args, units: dict) -> tuple:
    runner = Runner(name, args.seed, args.size, args.corrupt_rep)
    hashes = runner.setup()
    print(f"{name} inputs (seed {args.seed}, {args.size}): {json.dumps(hashes)}")
    try:
        groups, setup = runner.measure(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    if args.trace:
        samples = per_layer(runner, groups, list(units))
    else:
        samples = end_to_end(runner, setup, [g[0] for g in groups])
    metrics = {}
    for metric, values in samples.items():
        metrics[metric] = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"{name} {metric} {metrics[metric]:.6g} {units[metric]} "
              f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{name} error_rate {_ratio(runner.failed, runner.attempted):.6g} fraction "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    return metrics, runner.attempted, runner.failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; `toy` is for the smoke check")
    parser.add_argument("--corrupt-rep", type=int, default=None,
                        help=argparse.SUPPRESS)  # smoke check: damage this repetition
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "metlit", "cli.py")):
        print(f"error: no metlit source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result = {}
    for name in names:
        metrics, a, f = run_workload(name, args, units)
        attempted += a
        failed += f
        missing = set(units) - set(metrics)
        if missing:
            print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in units:
            result[prefix + metric] = {"value": metrics[metric], "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
