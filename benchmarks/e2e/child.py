"""One cold campaign in a fresh process: set-up, timed run, output checks.

``python child.py '<request json>'`` prints one JSON record as its last
line.  The request names a workload, the scenario count, the seed that
orders the corpus, whether to trace, and a scratch directory (stores,
JSONL stream).

*Set-up* is everything a ``repro campaign`` user pays before the first
scenario: importing ``repro`` and numpy, generating and ordering the spec
list, building the runner and opening the sinks.  The *timed run* is exactly
``CampaignRunner(config).run(specs, sink=...)`` — the program receives
only generated inputs, one closed-loop client.
"""

import time

_PROCESS_START = time.perf_counter()

import collections  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent


class Recorder:
    """The benchmark's own result sink: what the output checks need."""

    def __init__(self):
        self.rows = []

    def accept(self, result) -> None:
        self.rows.append((
            result.scenario_id, result.classification, result.safe,
            result.elapsed_s, result.is_disagreement,
            sum(pair.pair == "gpv~batch" for pair in result.pairwise)))

    def close(self) -> None:
        pass


class SpeedProbe:
    """Samples how fast this machine runs Python while the campaign runs.

    The sandbox shares its host: one campaign's wall *and* CPU time swing
    by a quarter for seconds to minutes at a time, whatever the program
    does.  A thread times one fixed piece of work (integer arithmetic,
    dict and tuple churn, sorting and ``repr`` — the mix a campaign is
    made of; ``REFERENCE_S`` when nothing contends) every ``PERIOD_S``.
    ``speed`` is the machine's mean speed over the samples, 1.0 being a
    machine that does the work in ``REFERENCE_S``; the parent multiplies
    every time it reports by it (``run.py``; the README has the measured
    effect).  The probe takes about 1 % of the campaign's time, on both
    sides of any comparison alike.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 0.001

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def once() -> float:
        started = time.perf_counter()
        total = 0
        for value in range(8_000):
            total += value * value % 7
        table = {}
        for value in range(900):
            key = (value % 37, value % 11)
            table[key] = table.get(key, ()) + (value,)
        sorted(table.items(), key=lambda item: len(item[1]))
        rows = [(value, str(value), (value % 5, value % 3))
                for value in range(250)]
        repr(sorted(rows, key=lambda row: row[2]))
        return time.perf_counter() - started

    def _sample(self) -> None:
        self.samples.append(self.once())
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(self.once())

    @property
    def speed(self) -> float:
        # Work done is the integral of speed over time, so speeds average,
        # not durations.
        return self.REFERENCE_S * sum(
            1 / sample for sample in self.samples) / len(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children (pool
    workers are joined inside ``run()``, so they are reaped by its end)."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _known_answers() -> dict[str, bool]:
    doc = json.loads((HERE / "expected" / "gadgets.json").read_text())
    return doc["safe"]


def failed_scenarios(specs, rows, error_class: str) -> dict[str, list[int]]:
    """Scenario ids that failed an output check, by check."""
    expected = _known_answers()
    by_id = {row[0]: row for row in rows}
    failures = {"missing": [], "error": [], "disagreement": [],
                "known_answer": []}
    for spec in specs:
        row = by_id.get(spec.scenario_id)
        if row is None:
            failures["missing"].append(spec.scenario_id)
            continue
        _, classification, safe, _, disagreement, _ = row
        if classification == error_class:
            failures["error"].append(spec.scenario_id)
        if disagreement:
            failures["disagreement"].append(spec.scenario_id)
        # The paper's answers hold for the hand-written gadgets only:
        # a perturbed ranking is a different instance.
        gadget = spec.param("gadget")
        if spec.family == "gadget" and gadget in expected \
                and not spec.param("perturb") \
                and bool(safe) != expected[gadget]:
            failures["known_answer"].append(spec.scenario_id)
    return failures


def main(request: dict) -> dict:
    import numpy  # noqa: F401 - part of the set-up a campaign user pays
    from repro.campaigns import (
        ERROR,
        CampaignConfig,
        CampaignRunner,
        JsonlResultSink,
        ScenarioGenerator,
        TeeSink,
    )
    from repro.exec.batch import batch_phase_stats, kernel_cache_stats

    from workloads import CORPUS_SEED, WORKLOADS, ordered

    workload = WORKLOADS[request["workload"]]
    scratch = pathlib.Path(request["scratch"])
    tracer = None
    if request["trace"]:
        from shims import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        specs = ordered(
            ScenarioGenerator(CORPUS_SEED, families=workload.families,
                              profile=workload.profile
                              ).generate(request["count"]),
            workload.families, request["seed"])
        stores = {}
        if workload.warm_stores:
            stores = {"verdict_cache_path": str(scratch / "verdicts.sqlite"),
                      "kernel_cache_path": str(scratch / "kernels.sqlite")}
        runner = CampaignRunner(CampaignConfig(
            jobs=workload.jobs, chunk_size=8, backends=workload.backends,
            keep_results=False, **stores))
        recorder = Recorder()
        sink = recorder
        if workload.jsonl:
            sink = TeeSink([JsonlResultSink(str(scratch / "results.jsonl")),
                            recorder])
        setup_s = time.perf_counter() - _PROCESS_START

        with SpeedProbe() as probe:
            cpu_before = _cpu_seconds()
            run_start = time.perf_counter()
            report = runner.run(specs, sink=sink)
            run_end = time.perf_counter()
            cpu_s = _cpu_seconds() - cpu_before
        sink.close()
    finally:
        if tracer is not None:
            tracer.remove()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        rss_kb = max(rss_kb,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rows = recorder.rows
    record = {
        "count": len(specs),
        "setup_s": setup_s,
        "wall_s": run_end - run_start,
        "cpu_s": cpu_s,
        "rss_mb": rss_kb / 1024,
        "speed": probe.speed,
        "probe_samples": len(probe.samples),
        "elapsed_ms": [1e3 * row[3] for row in rows],
        "failures": failed_scenarios(specs, rows, ERROR),
        # Cache-hit fields are left out: they legitimately vary with jobs.
        "digest": {"total_scenarios": report.total_scenarios,
                   "class_counts": report.class_counts,
                   "family_counts": report.family_counts,
                   "pair_counts": report.pair_counts},
    }
    if tracer is not None:
        from ledger import dominant_layer, layer_metrics
        kernel_store = scratch / "kernels.sqlite"
        record["layers"] = layer_metrics(
            tracer.spans, run_start=run_start, run_end=run_end,
            scenarios=len(specs), batch_pairs=sum(row[5] for row in rows),
            batch_stats={**kernel_cache_stats(), **batch_phase_stats()},
            store_file_mb=(kernel_store.stat().st_size / 2**20
                           if kernel_store.exists() else 0.0))
        record["dominant"] = dominant_layer(tracer.spans, run_start)
        record["span_calls"] = collections.Counter(
            span[0] for span in tracer.spans)
        if request.get("spans_file"):
            _write_spans(tracer.spans, run_start, request["spans_file"])
    return record


def _write_spans(spans, run_start: float, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, parent, start, end, scenario, note) in \
                enumerate(spans):
            out.write(json.dumps({
                "span": index, "name": name, "parent": parent,
                "start": start - run_start, "end": end - run_start,
                "scenario_id": scenario, "note": note}))
            out.write("\n")


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
