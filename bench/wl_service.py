"""``service_mix``: a real ``repro serve`` process under a closed loop.

Two client threads (callers of ``repro submit --wait`` each wait for
their reply, so the loop is closed) drive a ``python -m repro.cli
serve`` subprocess with its defaults (one campaign slot, serial
shards).  One iteration: submit a campaign nobody submitted before,
wait for it, submit it again (must be answered from the existing job),
fetch its event stream.  Nine in ten campaigns are *tiny* (the service
itself is the cost), every tenth is *medium* (the fleet kernel shows).

The warm-up's jobs are a fixed sequence per seed and give the run its
``result_digest``; how many jobs the timed window completes depends on
the host, so the window's jobs are checked but not digested.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from harness import (
    ROOT,
    Measurement,
    NoTrace,
    Workload,
    canonical,
    percentile,
)
from repro.fleet import CampaignRunner, spec_from_dict, spec_to_dict
from repro.service import TERMINAL_STATES, ServiceClient, ServiceTimeout
from repro.service.queue import JobQueue
from wl_fleet import campaign_spec

CLIENTS = 2
TINY_GROUPS = 24
MEDIUM_GROUPS = 500
JOB_SHARDS = 2
#: Every tenth iteration of a client submits a medium campaign (every
#: third under ``--quick``, whose window holds only a few iterations).
MEDIUM_EVERY = 10
QUICK_MEDIUM_EVERY = 3
WAIT_TIMEOUT = 30.0
POLL = 0.005


class ServiceMix(Workload):
    name = "service_mix"
    # Submit-to-done is mostly the dispatcher's poll and HTTP round
    # trips: waits, which host speed does not stretch.
    reference = None

    def setup(self) -> None:
        self.data_dir = self.fresh_dir("service-data")
        self.log_path = os.path.join(self.data_dir, "serve.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--data-dir", self.data_dir, "--port", "0", "--status-interval", "0"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.perf_counter() + 60.0
        self.url = None
        while self.url is None:
            with open(self.log_path) as handle:
                for line in handle:
                    if "listening on " in line:
                        self.url = line.split("listening on ", 1)[1].split()[0]
            if self.url is None:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.teardown()
                    raise RuntimeError(f"repro serve did not start; see {self.log_path}")
                time.sleep(0.01)
        #: Next iteration number per client; never reused, so every
        #: window submits campaigns the server has not seen.
        self.next_iter = [0] * CLIENTS

    def teardown(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.log.close()
        self.proc = None

    # -- one iteration --------------------------------------------------------

    @property
    def period(self) -> int:
        """Iterations per client that hold exactly one medium job; also
        the least a window runs, so no window is without one."""
        return QUICK_MEDIUM_EVERY if self.quick else MEDIUM_EVERY

    def _is_medium(self, iteration: int) -> bool:
        return iteration % self.period == self.period // 2

    def _spec(self, client: int, iteration: int) -> dict:
        groups = MEDIUM_GROUPS if self._is_medium(iteration) else TINY_GROUPS
        if self.quick:
            groups = min(groups, 4 * TINY_GROUPS)
        seed = (self.seed * 1_000_003 + client * 100_000 + iteration) % (2**31)
        return spec_to_dict(campaign_spec(groups, seed, shards=JOB_SHARDS))

    def _wait(self, api: ServiceClient, job_id: str, marks: dict) -> dict:
        """``ServiceClient.wait(poll=POLL)``, spelled out so as to note
        the first poll that sees the job claimed, and to count polls."""
        deadline = time.perf_counter() + WAIT_TIMEOUT
        marks["polls"] = 0
        while True:
            status, payload = api.job(job_id)
            marks["polls"] += 1
            if status != 200:
                raise RuntimeError(f"GET /campaigns/{job_id} -> {status}")
            job = payload["job"]
            now = time.perf_counter()
            if job["state"] != "queued":
                marks.setdefault("claimed", now)
            if job["state"] in TERMINAL_STATES:
                return job
            if now >= deadline:
                raise ServiceTimeout(f"job {job_id} still {job['state']}")
            time.sleep(POLL)

    def _iteration(self, m, tracer, api, client: int, iteration: int, lock, jobs):
        spec = self._spec(client, iteration)
        kind = "medium" if self._is_medium(iteration) else "tiny"
        marks: dict = {}
        problems = []
        with tracer.span(f"service.job.{kind}", client=client, iteration=iteration):
            posted = time.perf_counter()
            try:
                with tracer.span("service.api.submit"):
                    status, payload = api.submit(spec)
                accepted = time.perf_counter()
                if status != 201:
                    raise RuntimeError(f"submit -> {status}: {payload}")
                job_id = payload["job"]["id"]
                with tracer.span("service.client.wait"):
                    job = self._wait(api, job_id, marks)
                done = time.perf_counter()
                if job["state"] != "done":
                    problems.append(f"job {job_id[:12]} ended {job['state']}")
                with tracer.span("service.api.duplicate_submit"):
                    status, again = api.submit(spec)
                answered = time.perf_counter()
                if (
                    status != 200
                    or again["job"]["id"] != job_id
                    or again["job"]["attempts"] != job["attempts"]
                ):
                    problems.append(f"duplicate submit -> {status}, not the same job")
                with tracer.span("service.api.events"):
                    status, streamed = api.events(job_id)
                if status != 200:
                    problems.append(f"events -> {status}")
            except (ServiceTimeout, RuntimeError, OSError) as exc:
                # Recorded at the wait timeout so a hang cannot read as fast.
                problems.append(repr(exc))
                done, accepted, answered = posted + WAIT_TIMEOUT, posted, posted
                marks = {"claimed": posted, "polls": 0}
                job = streamed = None
        with lock:
            m.check(not problems, f"client {client} iteration {iteration}: {problems}")
            m.add(f"{kind}_s", done - posted)
            m.add(f"{kind}_wait_s", marks["claimed"] - posted)
            m.add(f"{kind}_run_s", done - marks["claimed"])
            m.add("post_s", accepted - posted)
            m.add("dup_s", answered - done)
            m.add("polls", marks["polls"])
            jobs.append((client, iteration, kind, spec, job, streamed))

    def _window(self, seconds: float, tracer) -> tuple:
        m = Measurement()
        jobs: list = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client_loop(client: int) -> None:
            api = ServiceClient(self.url, client=f"bench-{client}")
            done = 0
            while done < self.period or time.perf_counter() < deadline:
                iteration = self.next_iter[client]
                self.next_iter[client] += 1
                self._iteration(m, tracer, api, client, iteration, lock, jobs)
                done += 1

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, args=(client,))
            for client in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        # main: what the caller of a tiny job waits, which is the
        # dispatcher's poll.  alt: jobs of either size completed per
        # second by the two clients together.  With one campaign slot
        # that is the reciprocal of the latencies, medium jobs included
        # -- whose own median is no use here: a medium job waits one
        # dispatcher tick or two at the toss of a coin, the fleet kernel
        # inside it follows the host's speed, and there are twenty-odd
        # of them per run.
        if m.samples.get("tiny_s"):
            m.add("main_per_s", 1.0 / statistics.median(m.samples["tiny_s"]))
        if jobs:
            m.add("alt_per_s", len(jobs) / elapsed)
        return m, jobs

    def warmup(self) -> Measurement:
        m, jobs = self._window(0.0, NoTrace())
        api = ServiceClient(self.url)
        outputs = {}
        for client, iteration, kind, spec, job, streamed in sorted(
            jobs, key=lambda row: row[:2]
        ):
            if job is None or job["state"] != "done":
                continue
            outputs[f"{client}/{iteration}"] = job["result"]["metrics"]
            events_path = os.path.join(
                self.data_dir, "campaigns", job["id"], "obs", "events.jsonl"
            )
            with open(events_path, "rb") as handle:
                m.check(
                    handle.read() == streamed,
                    f"job {job['id'][:12]}: streamed events differ from events.jsonl",
                )
            if kind == "medium":
                direct = CampaignRunner(spec_from_dict(spec)).run().metrics_dict()
                m.check(
                    canonical(direct) == canonical(job["result"]["metrics"]),
                    f"job {job['id'][:12]}: service metrics differ from a direct run",
                )
        self._check_drained(m, api)
        m.outputs = outputs
        m.counts = {"service.reference_jobs": len(outputs)}
        return m

    def _check_drained(self, m: Measurement, api: ServiceClient) -> None:
        status, payload = api.jobs()
        active = [
            job["id"][:12] for job in payload.get("jobs", ())
            if job["state"] in ("queued", "running")
        ]
        m.check(status == 200 and not active, f"queue not drained: {active}")

    def measure(self, seconds: float, tracer) -> Measurement:
        m, jobs = self._window(seconds, tracer)
        self._check_drained(m, ServiceClient(self.url))
        for _, _, _, _, job, _ in jobs:
            if job is not None and job["state"] == "done":
                result = job["result"]
                m.check(
                    result["shards_completed"] == result["shards_total"] == JOB_SHARDS,
                    f"job {job['id'][:12]}: {result['shards_completed']} shards",
                )
        return m

    # -- per-layer probes -----------------------------------------------------

    def layer_metrics(self, plain: Measurement, traced: Measurement) -> dict:
        ms = 1e3
        tiny = plain.samples.get("tiny_s", []) + traced.samples.get("tiny_s", [])
        values = {
            "service.submit_done_p50_ms": statistics.median(plain.samples["tiny_s"]) * ms,
            "service.submit_done_p90_ms": percentile(tiny, 0.90) * ms,
            "service.submit_done_medium_p50_ms": plain.median("medium_s") * ms,
            "service.dup_submit_p50_ms": plain.median("dup_s") * ms,
            "service.jobs_per_s": plain.median("alt_per_s"),
            "service.api.submit_p50_ms": plain.median("post_s") * ms,
            "service.scheduler.queue_wait_p50_ms": plain.median("tiny_wait_s") * ms,
            "service.scheduler.run_p50_ms": plain.median("tiny_run_s") * ms,
            "service.scheduler.run_medium_p50_ms": plain.median("medium_run_s") * ms,
            "service.client.polls_per_job": statistics.fmean(plain.samples["polls"]),
        }
        api = ServiceClient(self.url, client="bench-probe")
        n = 20 if self.quick else 200

        spec = self._spec(CLIENTS, self.period // 2)
        direct = []
        for _ in range(3):
            start = time.perf_counter()
            CampaignRunner(spec_from_dict(spec)).run()
            direct.append(time.perf_counter() - start)
        values["service.direct_medium_ms"] = statistics.median(direct) * ms

        # A 64-shard job's event log, fetched over and over.
        big = spec_to_dict(
            campaign_spec(64, (self.seed * 1_000_003 + 999_983) % (2**31), shards=64)
        )
        _, payload = api.submit(big)
        job = api.wait(payload["job"]["id"], timeout=WAIT_TIMEOUT, poll=POLL)
        samples = []
        for _ in range(max(1, n // 4)):
            start = time.perf_counter()
            api.job(job["id"])
            samples.append(time.perf_counter() - start)
        values["service.api.status_p50_ms"] = statistics.median(samples) * ms
        start = time.perf_counter()
        fetched = sum(len(api.events(job["id"])[1]) for _ in range(max(1, n // 4)))
        values["service.api.events_mb_per_s"] = fetched / 1e6 / (time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(n):
            api.health()
        values["service.api.health_rps"] = n / (time.perf_counter() - start)

        # The queue alone, in this process: no HTTP, no scheduler.
        queue = JobQueue(self.fresh_dir("queue-probe"))
        specs = [self._spec(CLIENTS + 1, self.period * i) for i in range(n)]
        start = time.perf_counter()
        for spec in specs:
            queue.submit(spec, client="bench")
        values["service.queue.submit_s"] = (time.perf_counter() - start) / n
        start = time.perf_counter()
        for _ in range(n):
            queue.finish(queue.claim_next().id, "done")
        values["service.queue.claim_finish_s"] = (time.perf_counter() - start) / n
        return values

