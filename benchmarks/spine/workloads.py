"""The four workloads: set-up, timed operations, correctness checks.

Every workload is a closed loop with one caller: the next operation
starts when the previous answer has been checked.  ``measure()``
time-boxes the loop (``time_box``) — it starts another operation only while the
previous one's duration still fits before the deadline — so a slower
host measures fewer samples, not a longer run.  Only the public surface
is driven (``repro.Session``, ``repro.streaming``, ``repro.service``,
``StanfordForwardingError``); no engine selection is passed anywhere,
so the default ``EngineConfig`` is what gets measured.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro import Session
from repro.scenarios.stanford import StanfordForwardingError
from repro.service import DiagnosisServer, SocketServiceClient
from repro.streaming import ScenarioStreamSource, StreamMonitor

from . import schema

__all__ = ["Samples", "WORKLOADS", "timed", "make", "setup",
           "median_setup", "end_to_end"]


class Samples:
    """What one measured pass of a workload produced."""

    def __init__(self):
        self.diagnose: List[float] = []   # latencies of correct diagnoses
        self.repair: List[float] = []     # latencies of correct repairs
        self.diagnose_wall = 0.0          # wall the diagnoses were served in
        self.diagnoses = 0                # diagnoses completed in that wall
        self.attempted = 0
        self.failed = 0
        self.child_rss_mb = 0.0


def timed(op: Callable[[], object]):
    """(seconds, result) of one operation, after a full collection."""
    gc.collect()
    start = time.perf_counter()
    result = op()
    return time.perf_counter() - start, result


def time_box(deadline: float, minimum: int):
    """Iterate while one more operation still fits before ``deadline``.

    The loop body is the operation: it runs at least ``minimum`` times,
    then again only while the previous body's duration would still end
    in time — so a run overshoots its box by less than one operation.
    """
    done = 0
    last = 0.0
    while done < minimum or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        yield
        last = time.perf_counter() - start
        done += 1


def scratch_dir() -> str:
    """A fresh directory under the benchmark's own ``out/``."""
    schema.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=schema.OUT_DIR)


class _OfflineWorkload:
    """A long-lived Session diagnosed and repaired over and over.

    ``diagnose_share`` of the time box goes to ``diagnose()``, the rest
    to ``repair()``.  A result is correct when it succeeded, names the
    expected delta, and is byte-identical (``canonical_json()``) to the
    first result of the same operation.
    """

    name = ""
    diagnose_share = 0.5
    min_diagnoses = 5
    min_repairs = 1
    warmups = 1
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.session: Optional[Session] = None
        self._canonical: Dict[bool, str] = {}

    def build(self) -> None:
        """Construct the scenario and ``self.session``."""
        raise NotImplementedError

    def delta_ok(self, report) -> bool:
        raise NotImplementedError

    def warm(self) -> None:
        self._canonical.clear()
        for _ in range(self.warmups):
            self.session.diagnose()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def check(self, report, repair: bool) -> bool:
        if not report.success or not self.delta_ok(report):
            return False
        if repair and (report.repair or {}).get("status") != "ok":
            return False
        canonical = report.canonical_json()
        return self._canonical.setdefault(repair, canonical) == canonical

    def measure(self) -> Samples:
        samples = Samples()
        session = self.session
        seconds = self.seconds
        start = time.perf_counter()

        def one(op, repair: bool, into: List[float]) -> None:
            elapsed, report = timed(op)
            samples.attempted += 1
            if self.check(report, repair):
                into.append(elapsed)
            else:
                samples.failed += 1
            if not repair:
                samples.diagnose_wall += elapsed
                samples.diagnoses += 1

        for _ in time_box(start + seconds * self.diagnose_share,
                          self.min_diagnoses):
            one(session.diagnose, False, samples.diagnose)
        for _ in time_box(start + seconds, self.min_repairs):
            one(session.repair, True, samples.repair)
        return samples


class Sdn4Offline(_OfflineWorkload):
    name = schema.SDN4
    diagnose_share = 0.45
    min_repairs = 3
    warmups = 3

    def build(self) -> None:
        packets = 20 if self.smoke else 300
        self.session = Session(
            "SDN4", minimize=True,
            scenario_params={"background_packets": packets},
        ).setup()

    def delta_ok(self, report) -> bool:
        return len(report.changes) == 2


class StanfordScaled(_OfflineWorkload):
    """Stanford is not in ``ALL_SCENARIOS``: explicit-mode Session.

    One warm-up diagnosis and no warm-up repair: a repair costs ~11 s
    here, so the first timed repair is also the process's first, which
    is what a one-shot ``diffprov repair`` pays.
    """

    name = schema.STANFORD
    diagnose_share = 0.4
    setup_repeats = 1

    def build(self) -> None:
        params = (
            dict(entries_per_router=300, acl_rules=20, background_packets=10)
            if self.smoke else
            dict(entries_per_router=28000, acl_rules=1000,
                 background_packets=40)
        )
        scenario = StanfordForwardingError(**params).setup()
        self.scenario = scenario
        self.session = Session(
            program=scenario.program,
            good=scenario.good_execution,
            bad=scenario.bad_execution,
            good_event=scenario.good_event,
            bad_event=scenario.bad_event,
            good_time=scenario.good_time,
            bad_time=scenario.bad_time,
            minimize=True,
        )

    def delta_ok(self, report) -> bool:
        expected = self.scenario.expected_fault
        return [change.remove for change in report.changes] == [(expected,)]


class TapSource:
    """A stream source that stamps the clock at every line it hands over.

    The monitor diagnoses an incident before it pulls the next line, so
    the gap after an incident-opening probe is detection -> record
    emitted, as an operator tailing the monitor's output sees it.
    """

    def __init__(self, source):
        self.source = source
        self.program = source.program
        self.seqs = [event.seq for event in source.events()]
        self.pulled: List[float] = []

    def lines(self):
        clock = time.perf_counter
        stamp = self.pulled.append
        for line in self.source.lines():
            stamp(clock())
            yield line
        stamp(clock())

    def gap_after(self) -> Dict[int, float]:
        """seq -> seconds until the monitor asked for the next line."""
        pulled = self.pulled
        return {
            seq: pulled[index + 1] - pulled[index]
            for index, seq in enumerate(self.seqs)
        }


class FlapStream:
    """FLAP-S monitored twice: diagnose-only, then with ``repair=True``.

    A monitor run cannot be stopped from outside, so the time box sets
    the input size instead: flaps scale linearly with ``seconds`` (at
    ~20 ms per incident and ~26 ms with repair, 34 + 12 flaps per second
    of box fill it on the reference host).  ``--seed`` is the stream
    seed.  The monitor is ``repro.streaming.StreamMonitor`` with its
    defaults — what ``Session.monitor()`` constructs — driven directly
    because the tap has to sit between the source and the monitor.
    """

    name = schema.FLAP
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.seconds = seconds
        self.flaps = max(20, int(34 * seconds))
        self.repair_flaps = max(10, int(12 * seconds))
        self.sources: Dict[int, object] = {}

    def source(self, flaps: int):
        source = ScenarioStreamSource.for_name(
            "FLAP-S", flaps=flaps, stream_seed=self.seed
        )
        source.events()  # forces the emulator run that records the stream
        return source

    def build(self) -> None:
        self.sources = {
            flaps: self.source(flaps)
            for flaps in (self.flaps, self.repair_flaps)
        }

    def warm(self) -> None:
        # One short monitored stream with repair on, so both passes
        # start with every code path imported and exercised.
        StreamMonitor(self.source(10), repair=True).run()

    def close(self) -> None:
        self.sources = {}

    def monitor(self, flaps: int, repair: bool):
        """(monitor, tap, run() wall) of one pass over ``flaps`` flaps."""
        tap = TapSource(self.sources[flaps])
        monitor = StreamMonitor(tap, repair=repair)
        wall, _ = timed(monitor.run)
        return monitor, tap, wall

    @staticmethod
    def record_ok(record: dict, repair: bool) -> bool:
        report = record.get("report")
        if record.get("kind") != "diagnosis" or "degraded" in record:
            return False
        if not report or not report["success"] or not report["changes"]:
            return False
        if repair and (report.get("repair") or {}).get("status") != "ok":
            return False
        return True

    def latencies(self, monitor, tap, flaps: int, repair: bool,
                  samples: Samples) -> List[float]:
        """Per-incident latencies of the correct records; counts the rest."""
        gaps = tap.gap_after()
        good = [
            gaps[record["probe_seqs"][0]] for record in monitor.records
            if self.record_ok(record, repair)
        ]
        summary = monitor.summary()
        complete = (
            summary.diagnoses == flaps == summary.incidents
            and summary.degraded + summary.shed == 0
        )
        samples.attempted += flaps
        wrong = abs(flaps - len(good))
        samples.failed += wrong if wrong or complete else 1
        return good

    def measure(self) -> Samples:
        samples = Samples()
        monitor, tap, wall = self.monitor(self.flaps, repair=False)
        samples.diagnose = self.latencies(
            monitor, tap, self.flaps, False, samples
        )
        samples.diagnose_wall = wall
        samples.diagnoses = monitor.summary().diagnoses
        monitor, tap, _ = self.monitor(self.repair_flaps, repair=True)
        samples.repair = self.latencies(
            monitor, tap, self.repair_flaps, True, samples
        )
        return samples


# (scenario, options); every fifth request asks for repair plans.
SERVICE_MIX = (
    ("SDN1", {"minimize": True}),
    ("SDN4", {"minimize": True}),
    ("MR1-D", {"minimize": True}),
    ("DNS", {"minimize": True}),
    ("SDN1", {"minimize": True, "repair": True}),
)


class ServiceMix:
    """One NDJSON client against a one-worker server on loopback.

    Client and server share this process's event loop; the worker is
    the only child process.  With ``nproc`` = 2 that already occupies
    both cores, which is why ``workers`` stays 1.  ``--seed`` shuffles
    the request order inside every cycle of the mix.
    """

    name = schema.SERVICE
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.seconds = seconds
        self.loop = None
        self.server = None
        self.client = None
        self.journal_dir = None
        self._canonical: Dict[tuple, str] = {}

    def build(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.rng = random.Random(self.seed)
        self.journal_dir = scratch_dir()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = DiagnosisServer(workers=1, journal_dir=self.journal_dir)
        host, port = await self.server.serve()
        self.client = await SocketServiceClient(host, port).connect()

    def warm(self) -> None:
        self._canonical.clear()
        self.loop.run_until_complete(self.cycle(Samples()))

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = None
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    async def _stop(self) -> None:
        await self.client.close()
        await self.server.shutdown()

    def response_ok(self, key: tuple, response: dict) -> bool:
        if response.get("status") != "ok":
            return False
        report = response["report"]
        if not report["success"] or not report["changes"]:
            return False
        if key[1] and (report.get("repair") or {}).get("status") != "ok":
            return False
        canonical = report["canonical"]
        return self._canonical.setdefault(key, canonical) == canonical

    async def request(self, scenario: str, options: dict):
        """(round-trip seconds, response) of one request."""
        gc.collect()
        start = time.perf_counter()
        response = await self.client.diagnose(scenario, options=options)
        return time.perf_counter() - start, response

    async def cycle(self, samples: Samples, on_request=None) -> None:
        """One pass over the mix, in an order drawn from the seed."""
        for scenario, options in self.rng.sample(SERVICE_MIX, len(SERVICE_MIX)):
            repair = bool(options.get("repair"))
            elapsed, response = await self.request(scenario, options)
            if on_request is not None:
                on_request(scenario, repair, elapsed)
            samples.attempted += 1
            if not self.response_ok((scenario, repair), response):
                samples.failed += 1
            elif repair:
                samples.repair.append(elapsed)
            else:
                samples.diagnose.append(elapsed)
            if not repair:
                samples.diagnose_wall += elapsed
                samples.diagnoses += 1

    async def worker_rss_mb(self) -> float:
        """High-water RSS of the worker, read while it is still alive."""
        stats = (await self.client.stats())["stats"]
        peak = 0.0
        for shard in stats["fleet"]["shards"]:
            try:
                with open(f"/proc/{shard['pid']}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024.0)
            except OSError:
                pass  # no procfs: RUSAGE_CHILDREN is the fallback
        return peak

    async def _measure(self) -> Samples:
        samples = Samples()
        for _ in time_box(time.perf_counter() + self.seconds, 2):
            await self.cycle(samples)
        samples.child_rss_mb = await self.worker_rss_mb()
        return samples

    def measure(self) -> Samples:
        return self.loop.run_until_complete(self._measure())


WORKLOADS = {
    cls.name: cls for cls in (Sdn4Offline, StanfordScaled, FlapStream,
                              ServiceMix)
}


def make(name: str, seed: int, seconds: float, smoke: bool = False):
    return WORKLOADS[name](seed, seconds, smoke)


def setup(workload) -> None:
    workload.build()
    workload.warm()


def median_setup(workload, first: float) -> float:
    """Median of ``first`` and the workload's remaining set-up repeats.

    The repeats run *after* the measured pass and are torn down again:
    rebuilding before it leaves a differently shaped heap behind and
    made every SDN4 diagnosis ~12 % slower, so the measured operations
    see exactly one set-up, as a user's process does.  Stanford's 16 s
    build is paid once (``setup_repeats`` = 1).
    """
    times = [first]
    for _ in range(workload.setup_repeats - 1):
        times.append(timed(lambda: setup(workload))[0])
        workload.close()
    return schema.median(times)


def end_to_end(name: str, setup_s: float, samples: Samples) -> Dict[str, float]:
    """The six end-to-end numbers of one pass (README.md defines them).

    Call before ``median_setup``: peak RSS is the measured pass's.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "diagnose_p50_s": schema.median(samples.diagnose),
        "diagnose_tail_s": schema.percentile(
            samples.diagnose, schema.TAIL_PERCENTILE[name]
        ),
        "diagnoses_per_s": samples.diagnoses / samples.diagnose_wall,
        # A full collection in the worker (~40 ms) lands on about half
        # of service-mix's repair requests: two modes of equal weight,
        # whose median flips between them with the seed (0.058-0.105 s
        # over eight seeds, the mean 0.074-0.096 s).
        "repair_p50_s": (
            statistics.fmean if name == schema.SERVICE else schema.median
        )(samples.repair),
        "peak_rss_mb": usage + max(children, samples.child_rss_mb),
    }
