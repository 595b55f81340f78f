"""citegauge benchmark: one command, three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {paper,fulltext,forest} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is run from ``src/``.

Each run generates its workload from ``--seed`` (``perfbench/gen.py``) into
``.perfbench-work/<workload>/``. The program receives only the corpus
directory and ``pairs.tsv``; the planted marker counts stay outside.

``--trace 0`` measures end to end, with tracing off. It times fresh processes
that import citegauge and load the dataset (``setup_s``). It then runs the
workload's CLI command in fresh processes, one after another (a closed loop
with one client): at least twice, then again while the next run should end
within ``--seconds``. Each timed process is pinned to as many CPUs as the
workload has threads, and the speed of the CPU it runs on is sampled while
it runs (``SpeedMeter``); ``wall_s`` and ``setup_s`` are medians of the
measured seconds rescaled to one reference speed. The medians of the
measured seconds are printed too. ``f1_exact_share`` comes from
``features.csv``: the first timed run's when the workload runs
``features``, else that of an untimed ``features`` warm-up.

``--trace 1`` runs ``perfbench/trace.py`` twice, each in a fresh process: one
untraced in-process pass of the CLI command and one traced pass. It reports
the per-layer metrics of the traced pass plus the difference of the two pass
times as the tracing overhead. It runs one pass each, whatever ``--seconds`` says.

Every run of the program is checked (``perfbench/check.py``); the last stdout
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status 2, with no result, when ``src/citegauge`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from check import check_artifacts, f1_exact_share
from gen import GenConfig, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench-work")  # relative to ROOT, which is every child's cwd

SETUP_PROBES = 11
PROCESS_TIMEOUT_S = 150.0

# Printed, not in the JSON result.
EXTRA_UNITS = {"map": "-", "failed_share": "ratio"}


@dataclass(frozen=True)
class Workload:
    command: str  # "features" or "evaluate"
    gen: GenConfig
    threads: int = 1
    trees: int = 100
    folds: int = 10


# Sizes are fitted to a 2-core machine: each workload's command takes 7 to 14 s,
# so two to four timed runs fit in a 30-second window.
WORKLOADS = {
    "paper": Workload(
        command="evaluate",
        gen=GenConfig(),
    ),
    "fulltext": Workload(
        command="features",
        gen=GenConfig(citing=20, pairs_per_citing=20, cited_pool=300, bib_size=80,
                      keyed=False, numeric_share=0.0, parenthetical_share=0.5,
                      filler_markers=150),
    ),
    "forest": Workload(
        command="evaluate",
        gen=GenConfig(citing=640, pairs_per_citing=1, cited_pool=400, body_words=300,
                      bib_size=10, numeric_share=1.0, parenthetical_share=0.0,
                      filler_markers=8),
        threads=2,
    ),
}

SETUP_SNIPPET = (
    "import sys\n"
    "from citegauge import filter_valid_pairs, load_corpus, load_pairs\n"
    "corpus = load_corpus(sys.argv[1])\n"
    "pairs, stats, _ = load_pairs(sys.argv[2], corpus)\n"
    "print(len(filter_valid_pairs(pairs, corpus, stats)))\n"
)


@dataclass
class Run:
    what: str
    exit_code: int
    seconds: float
    rss_mb: float
    log: Path
    problems: list[str] = field(default_factory=list)
    scaled_s: float = 0.0  # ``seconds`` at the reference machine speed, see SpeedMeter

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def load_spec() -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


class SpeedMeter:
    """Samples the speed of the CPU a program run is on, while it runs.

    The shared host's speed drifts by up to a half within seconds and across
    minutes, and a process's CPU time drifts with its wall time, so the
    slowdown is not descheduling. A fixed job, owned by the benchmark and
    independent of the program, runs in this process every ``PERIOD_S`` on
    the CPU the run last ran on. Its mean time over the run is the machine's
    speed during that run; a run's ``scaled_s`` is its seconds times
    ``REFERENCE_S`` over that mean. The job takes about 1 % of one CPU.

    Each CPU slows on its own, so the job must run where the program runs:
    on repeated runs of one ``forest`` input, taking the run's CPUs in turn
    tracked its wall time worse than not scaling at all. The job is a plain
    interpreter loop, because citegauge spends most of its time in the
    interpreter: it tracked every workload's wall time better than a job of
    regex scans and small numpy calls, or one of scattered memory reads.
    """

    PERIOD_S = 0.05
    # Typical job time while a program runs, on the 2-core Xeon (KVM guest)
    # the bounds were set on, so scaled and measured seconds are close there.
    REFERENCE_S = 0.00045

    @staticmethod
    def sample(cpu: int) -> float:
        """Seconds the job takes now on ``cpu``; leaves this process pinned there."""
        os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        total, slots = 0, {}
        for i in range(3000):
            total += i * i % 7
            slots[i & 63] = total
        return time.perf_counter() - started

    @staticmethod
    def cpu_of(pid: int, cpus: list[int]) -> int:
        """The CPU that process ``pid`` last ran on, if one of ``cpus``."""
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        except (OSError, ValueError, IndexError):
            return cpus[0]
        return cpu if cpu in cpus else cpus[0]


def spawn(what: str, argv: list[str], log: Path, cpus: list[int] | None = None) -> Run:
    """Run one fresh process from ROOT to completion, with its output in ``log``.

    Wall time runs from just before the spawn until the process is reaped;
    the peak RSS is this child's own (``os.wait4``), not a maximum over all
    children ever run. A process still running after PROCESS_TIMEOUT_S is
    killed and counts as failed. With ``cpus`` the process is pinned to those
    CPUs, and the speed of the one it runs on is sampled (``SpeedMeter``).
    """
    everywhere = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)  # the child inherits it
    speeds: list[float] = []
    try:
        with open(ROOT / log, "wb") as handle:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=handle,
                                    stderr=subprocess.STDOUT)
            pidfd = os.pidfd_open(proc.pid)
            ended = False
            try:
                period = SpeedMeter.PERIOD_S if cpus else PROCESS_TIMEOUT_S
                while time.perf_counter() - started <= PROCESS_TIMEOUT_S:
                    if select.select([pidfd], [], [], period)[0]:
                        ended = True
                        break
                    if cpus:
                        speeds.append(SpeedMeter.sample(SpeedMeter.cpu_of(proc.pid, cpus)))
            finally:
                if not ended:  # timed out, or sampling failed
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                os.close(pidfd)
            seconds = time.perf_counter() - started
        if cpus and not speeds:  # ended within one period
            speeds.append(SpeedMeter.sample(cpus[0]))
    finally:
        os.sched_setaffinity(0, everywhere)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(what, proc.returncode, seconds, usage.ru_maxrss / 1024, log)
    if speeds:
        run.scaled_s = seconds * SpeedMeter.REFERENCE_S / statistics.mean(speeds)
    if run.exit_code != 0:
        run.problems.append(f"exit code {run.exit_code}, see {log}")
    return run


def last_line(run: Run) -> str:
    lines = (ROOT / run.log).read_text(encoding="utf-8", errors="replace").splitlines()
    return lines[-1] if lines else ""


def metadata_line() -> str:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return (f"meta: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy} src_lines={src_lines}")


class DigestStore:
    """Artifact digests by program sources and generated inputs, kept across
    invocations in this checkout, so every run is compared with the first run
    of the same code and seed."""

    def __init__(self, data: Path):
        self.path = ROOT / WORK / "digests.json"
        digest = hashlib.sha256()
        sources = sorted((ROOT / "src").rglob("*.py"))
        inputs = [ROOT / data / "pairs.tsv", *sorted((ROOT / data / "corpus").glob("*.json"))]
        for path in sources + inputs:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
        self.prefix = digest.hexdigest()
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def check(self, kind: str, run: Run, digest: str) -> None:
        first = self.known.setdefault(f"{self.prefix}:{kind}", digest)
        if digest != first:
            run.problems.append("artifacts differ from the first run of this code and seed")
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def _cli(workload: Workload, data: Path, command: str) -> list[str]:
    return [sys.executable, "-m", "citegauge", command,
            "--corpus", str(data / "corpus"), "--pairs", str(data / "pairs.tsv"),
            "--output", str(data / "out"), "--threads", str(workload.threads),
            "--trees", str(workload.trees), "--folds", str(workload.folds)]


def measure(name: str, workload: Workload, seconds: float) -> tuple[list[Run], dict]:
    """Untraced end-to-end runs; returns every run made and the metric values."""
    data = WORK / name
    planted = json.loads((ROOT / data / "planted.json").read_text())["f1"]
    expect = len(planted)
    store = DigestStore(data)
    runs: list[Run] = []
    # A single-threaded process runs on one CPU; pinning it there makes the
    # sampled speed that CPU's.
    cpus = sorted(os.sched_getaffinity(0))
    run_cpus = cpus[-workload.threads:]

    for i in range(SETUP_PROBES):
        argv = [sys.executable, "-c", SETUP_SNIPPET,
                str(data / "corpus"), str(data / "pairs.tsv")]
        setup = spawn("setup", argv, data / f"setup{i}.log", cpus[-1:])
        if setup.exit_code == 0 and last_line(setup) != str(expect):
            setup.problems.append(f"setup found {last_line(setup)!r} valid pairs, expected {expect}")
        runs.append(setup)

    def run_command(command: str, label: str) -> Run:
        shutil.rmtree(ROOT / data / "out", ignore_errors=True)
        run = spawn(label, _cli(workload, data, command), data / f"{label}.log", run_cpus)
        if run.exit_code == 0:
            problems, digest = check_artifacts(command, ROOT / data / "out", expect)
            run.problems += problems
            store.check(f"cli-{command}", run, digest)
        runs.append(run)
        return run

    def f1_share(run: Run) -> float:
        return 0.0 if run.failed else f1_exact_share(ROOT / data / "out" / "features.csv", planted)

    # f1 comes from a features.csv: an untimed warm-up's, or the first timed
    # run's when the workload itself runs `features`.
    share = None if workload.command == "features" else f1_share(run_command("features", "warmup"))

    # At least two timed runs, then more while the next one should still end
    # inside the window.
    timed: list[Run] = []
    window = time.perf_counter()
    while len(timed) < 2 or time.perf_counter() - window + timed[-1].seconds <= seconds:
        timed.append(run_command(workload.command, f"run{len(timed)}"))
        if share is None:
            share = f1_share(timed[0])

    setups = [r for r in runs if r.what == "setup"]
    values = {
        "wall_s": statistics.median(r.scaled_s for r in timed),
        "setup_s": statistics.median(r.scaled_s for r in setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in timed),
        "f1_exact_share": share,
    }
    report = ROOT / data / "out" / "report.json"
    if workload.command == "evaluate" and not timed[-1].failed:
        values["map"] = json.loads(report.read_text())["map_score"]
    print(f"timed runs: {len(timed)} in {time.perf_counter() - window:.1f} s; "
          "seconds each, measured/scaled: "
          + " ".join(f"{r.seconds:.3f}/{r.scaled_s:.3f}" for r in timed))
    print(f"measured medians: wall {statistics.median(r.seconds for r in timed):.4f} s, "
          f"setup {statistics.median(r.seconds for r in setups):.4f} s")
    return runs, values


def trace(name: str, workload: Workload) -> tuple[list[Run], dict]:
    """One untraced and one traced in-process pass, each in a fresh process.

    Both run the CLI command's own function on the CLI's output path, so their
    artifacts must equal those of the CLI runs of the same code and seed."""
    data = WORK / name
    expect = len(json.loads((ROOT / data / "planted.json").read_text())["f1"])
    store = DigestStore(data)
    base = [sys.executable, str(HERE / "trace.py"), "--command", workload.command,
            "--corpus", str(data / "corpus"), "--pairs", str(data / "pairs.tsv"),
            "--output", str(data / "out"), "--expect-pairs", str(expect),
            "--threads", str(workload.threads), "--trees", str(workload.trees),
            "--folds", str(workload.folds)]
    runs, results = [], []
    for label, extra in (("untraced", []), ("traced", ["--spans", str(data / "spans.json")])):
        run = spawn(label, base + extra, data / f"{label}.log")
        runs.append(run)
        if run.exit_code != 0:
            return runs, {}
        result = json.loads(last_line(run))
        run.problems += result["problems"]
        store.check(f"cli-{workload.command}", run, result["digest"])
        results.append(result)

    untraced, traced = results
    values = dict(traced["layers"]["values"])
    values["trace.untraced_s"] = untraced["seconds"]
    values["trace.traced_s"] = traced["seconds"]
    values["trace.overhead_s"] = traced["seconds"] - untraced["seconds"]
    for absent in traced["layers"]["absent"]:
        print(f"absent: {absent} (no longer in the program; its layer reads zero)")
    print(f"spans: {data / 'spans.json'}")
    return runs, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="citegauge benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "citegauge" / "__init__.py").is_file():
        print(f"error: no citegauge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    generate(workload.gen, args.seed, ROOT / WORK / args.workload)
    print(f"workload {args.workload} seed {args.seed}: {workload.gen.pairs} pairs, "
          f"generated in {time.perf_counter() - started:.2f} s")
    print(metadata_line())

    end_to_end, per_layer = load_spec()
    if args.trace:
        runs, values = trace(args.workload, workload)
        units = per_layer
    else:
        runs, values = measure(args.workload, workload, args.seconds)
        units = end_to_end

    failed = [r for r in runs if r.failed]
    for run in failed:
        print(f"FAILED {run.what}: {'; '.join(run.problems)}")
    correct = not failed and set(units) <= set(values)
    values["failed_share"] = len(failed) / len(runs)
    for metric, unit in {**units, **EXTRA_UNITS}.items():
        if metric in values:
            print(f"{metric:36s} {values[metric]:>14.6g} {unit}")
        elif metric == "map" and not args.trace:
            print(f"{metric:36s} {'n/a':>14s} -  (the workload runs `features`: no report)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m: {"value": values.get(m, 0.0), "unit": unit} for m, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
