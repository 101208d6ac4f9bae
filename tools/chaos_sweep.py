"""Deterministic chaos sweep over the serving fault hooks.

Every resilience mechanism in :mod:`repro.serve` exists because some
process, clock, or client misbehaves; this sweep drives all of them at
once, seeded, and checks the two promises the whole layer makes:

* **Every admitted request terminates** — with a definite answer
  (bit-identical to ``load_index(path).query_batch(...)``) or a *typed*
  error (:class:`~repro.serve.DeadlineExceeded` /
  :class:`~repro.serve.ServerError`).  No request may hang, vanish, or
  die with an untyped exception.
* **The server returns to ready** — after each fault iteration a clean
  follow-up query must answer exactly (or, for the retry-exhaustion
  scenario that is *defined* to break the server, the broken state must
  fail fast with a typed error).  At the end of the sweep, no worker or
  helper process may survive.

Scenarios (picked per-iteration by a seeded RNG, all of them driven
through the one-shot ``REPRO_SERVE_FAULT`` / ``REPRO_WAL_FAULT``
environment hooks plus the hang injection):

==============  =====================================================
clean           no fault; answers must be bit-identical
worker-die      one worker exits mid-query; supervision restarts and
                re-dispatches — the caller never sees it
die-twice       original worker *and* its replacement die: the retry
                budget exhausts, ``ServerError`` surfaces, and the
                server is broken-by-design (must fail fast afterward)
sleep-recover   a worker stalls briefly, then answers — no deadline,
                so the answer must simply arrive, exact
hang-retry      a worker hangs forever past ``query_timeout``; the
                watchdog SIGKILLs it and re-dispatches: exact answer
hang-deadline   same hang under a per-request deadline: the watchdog
                kills at the deadline, no budget is left to re-dispatch,
                so ``DeadlineExceeded`` within 2x the budget, worker
                restarted lazily, next query exact
queue-expire    a slow worker holds FIFO dispatch while short-deadline
                requests wait: they must fail typed *in the queue*
wal-kill        a child process serving ``--mutable`` is killed at a
                seeded WAL fault point (pre-append / torn / post-fsync
                on a record, mid-group with a partially fsynced commit
                group, between-segment right after a rotation seals a
                segment); every *acked* mutation must survive recovery
                — unacked ones may or may not, which is the contract
==============  =====================================================

Serving workers are always forked (:mod:`repro.serve.server` has no
other start method), which keeps hundreds of supervision restarts
cheap.  The wal-kill victim is not a worker: it is a spawned stand-in
for a whole ``repro serve`` process, crashed and then recovered.

Usage::

    PYTHONPATH=src python tools/chaos_sweep.py            # 200 iterations
    PYTHONPATH=src python tools/chaos_sweep.py --smoke    # one per scenario

Writes ``BENCH_chaos.json`` (smoke runs write
``BENCH_chaos.smoke.json`` so they never clobber a recorded full run);
``tools/check_bench_gates.py`` turns the report's invariant flags into
CI gates.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_chaos.json")

SCENARIOS = (
    "clean",
    "worker-die",
    "die-twice",
    "sleep-recover",
    "hang-retry",
    "hang-deadline",
    "queue-expire",
    "wal-kill",
)

#: hang-deadline must answer its typed error within this multiple of the
#: request budget — the watchdog bound the whole layer advertises.
DEADLINE_SLACK = 2.0

#: WAL fault points the wal-kill scenario draws from.  The first three
#: kill around one record's append; mid-group dies with only a prefix
#: of a commit group fsynced (no ticket in the group was acked);
#: between-segment dies right after rotation makes the fresh segment
#: header durable.  Smoke mode runs every point once.
WAL_KILL_POINTS = (
    "pre-append",
    "torn",
    "post-fsync",
    "mid-group",
    "between-segment",
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _same(results, expected) -> bool:
    return len(results) == len(expected) and all(
        r.ids == e.ids and r.distances == e.distances
        for r, e in zip(results, expected)
    )


def _build_environment(tmp: str, seed: int):
    """One sharded snapshot + queries + in-process reference answers."""
    from repro import ShardedDBLSH
    from repro.data.generators import gaussian_mixture
    from repro.io import load_index, save_index

    data = gaussian_mixture(700, 12, n_clusters=5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    queries = data[rng.choice(700, 6, replace=False)] + 0.02
    path = os.path.join(tmp, "chaos.npz")
    save_index(
        ShardedDBLSH(shards=2, c=1.5, l_spaces=3, k_per_space=6, t=32,
                     seed=0, auto_initial_radius=True).fit(data),
        path,
    )
    expected = load_index(path).query_batch(queries, k=5)
    return path, data, queries, expected


class _Sweep:
    """One seeded sweep run: iteration loop, invariants, report."""

    def __init__(self, path, queries, expected, rng: random.Random) -> None:
        self.path = path
        self.queries = queries
        self.expected = expected
        self.rng = rng
        self.seen_pids: set = set()
        self.undetermined: list = []
        self.mismatches: list = []
        self.not_ready: list = []
        self.overruns: list = []
        self.wal_failures: list = []
        self.scenario_runs: dict = {name: 0 for name in SCENARIOS}
        self.watchdog_kills = 0
        self.deadline_hits = 0
        self.restarts = 0
        self.wal_kills = 0
        #: Smoke mode flips this on: wal-kill then covers every fault
        #: point in one iteration instead of sampling one.
        self.all_wal_points = False

    # -- plumbing ----------------------------------------------------

    def _server(self, **kwargs):
        from repro.serve import SnapshotServer

        return SnapshotServer(self.path, **kwargs)

    def _track(self, server) -> None:
        self.seen_pids.update(server.worker_pids)

    def _query(self, server, tag: str, timeout=None, expect: str = "ok"):
        """One guarded request; classifies its outcome against ``expect``.

        Every path through here *terminates the request* — answer,
        ``DeadlineExceeded``, or ``ServerError``.  Anything else (an
        untyped exception) is recorded as an undetermined request, the
        exact failure the sweep exists to catch.
        """
        from repro.serve import DeadlineExceeded, ServerError

        try:
            if timeout is not None:
                results = server.query_batch(self.queries, k=5,
                                             timeout=timeout)
            else:
                results = server.query_batch(self.queries, k=5)
        except DeadlineExceeded:
            outcome = "deadline"
        except ServerError:
            outcome = "server-error"
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            self.undetermined.append(f"{tag}: untyped {type(exc).__name__}: {exc}")
            return "untyped"
        else:
            outcome = "ok"
            if not _same(results, self.expected):
                self.mismatches.append(f"{tag}: answers diverged from reference")
        if expect != "any" and outcome != expect:
            self.undetermined.append(
                f"{tag}: expected {expect}, got {outcome}")
        return outcome

    def _check_ready(self, server, tag: str, broken_by_design: bool) -> None:
        """Post-fault probe: exact answers again, or fast typed failure."""
        from repro.serve import ServerError

        if broken_by_design:
            started = time.monotonic()
            try:
                server.query_batch(self.queries, k=5)
            except ServerError:
                if time.monotonic() - started > 5.0:
                    self.not_ready.append(
                        f"{tag}: broken server failed slow, not fast")
            except Exception as exc:  # noqa: BLE001
                self.not_ready.append(
                    f"{tag}: broken server raised untyped "
                    f"{type(exc).__name__}")
            else:
                self.not_ready.append(
                    f"{tag}: retry-exhausted server answered instead of "
                    f"refusing")
            return
        if self._query(server, f"{tag}/ready-probe", expect="ok") != "ok":
            self.not_ready.append(f"{tag}: post-fault probe did not answer")
        status = server.status()
        if not status["serving"] or status["broken"] is not None:
            self.not_ready.append(
                f"{tag}: status not serving after recovery ({status['state']})")

    def _harvest(self, server) -> None:
        self._track(server)
        status = server.status()
        self.watchdog_kills += status["hang_kills"]
        self.deadline_hits += status["deadline_hits"]
        self.restarts += status["restarts"]

    # -- scenarios ---------------------------------------------------

    def run_iteration(self, index: int) -> str:
        scenario = self.rng.choice(SCENARIOS)
        self.scenario_runs[scenario] += 1
        tag = f"iter{index}/{scenario}"
        if scenario == "wal-kill":
            self._run_wal_kill(tag)
            return scenario
        shard = self.rng.randrange(2)
        fault = {
            "clean": None,
            "worker-die": f"die-on-query:{shard}:0",
            "die-twice": f"die-on-query:{shard}:0,die-on-query:{shard}:1",
            "sleep-recover": f"sleep-on-query:{shard}:0:0.3",
            "hang-retry": f"hang-on-query:{shard}:0",
            "hang-deadline": f"hang-on-query:{shard}:0",
            "queue-expire": f"sleep-on-query:{shard}:0:0.6",
        }[scenario]
        kwargs = {"query_timeout": 1.0 if scenario == "hang-retry" else 120.0}
        if fault is not None:
            os.environ["REPRO_SERVE_FAULT"] = fault
        try:
            with self._server(**kwargs) as server:
                self._track(server)
                if scenario == "hang-deadline":
                    budget = 1.0
                    started = time.monotonic()
                    self._query(server, tag, timeout=budget,
                                expect="deadline")
                    elapsed = time.monotonic() - started
                    if elapsed > budget * DEADLINE_SLACK:
                        self.overruns.append(
                            f"{tag}: typed failure took {elapsed:.2f}s "
                            f"(> {DEADLINE_SLACK:g}x the {budget:g}s budget)")
                elif scenario == "queue-expire":
                    self._run_queue_expire(server, tag)
                elif scenario == "die-twice":
                    self._query(server, tag, expect="server-error")
                else:
                    self._query(server, tag, expect="ok")
                os.environ.pop("REPRO_SERVE_FAULT", None)
                self._check_ready(server, tag,
                                  broken_by_design=(scenario == "die-twice"))
                self._harvest(server)
        finally:
            os.environ.pop("REPRO_SERVE_FAULT", None)
        return scenario

    def _run_queue_expire(self, server, tag: str) -> None:
        """A slow head-of-line request plus short-deadline waiters."""
        outcomes = {}

        def head():
            outcomes["head"] = self._query(server, f"{tag}/head", expect="ok")

        def waiter(name):
            outcomes[name] = self._query(server, f"{tag}/{name}",
                                         timeout=0.2, expect="deadline")

        head_thread = threading.Thread(target=head)
        head_thread.start()
        time.sleep(0.15)  # let the head own dispatch before the waiters queue
        waiters = [threading.Thread(target=waiter, args=(f"waiter{i}",))
                   for i in range(2)]
        for thread in waiters:
            thread.start()
        for thread in [head_thread, *waiters]:
            thread.join(timeout=30.0)
            if thread.is_alive():
                self.undetermined.append(
                    f"{tag}: a request thread never terminated")

    def _run_wal_kill(self, tag: str) -> None:
        """Kill a mutable serve at a WAL fault; acked rows must survive.

        Full mode draws one point per iteration; smoke mode (the
        deterministic one-pass sweep) runs every point once so the
        group-commit and rotation crash windows are always covered.
        """
        points = (
            WAL_KILL_POINTS if self.all_wal_points
            else (self.rng.choice(WAL_KILL_POINTS),)
        )
        for point in points:
            self._run_wal_kill_point(f"{tag}:{point}", point,
                                     self.rng.randrange(2, 5))

    def _run_wal_kill_point(self, tag: str, point: str, nth: int) -> None:
        from repro.serve import MutableSnapshotServer

        self.wal_kills += 1
        with tempfile.TemporaryDirectory(prefix="repro-chaos-wal-") as tmp:
            wal = os.path.join(tmp, "chaos.wal")
            ctx = multiprocessing.get_context("spawn")
            parent_conn, child_conn = ctx.Pipe()
            child = ctx.Process(
                target=_wal_victim,
                args=(self.path, wal, child_conn, f"{point}:{nth}"),
            )
            child.start()
            # Drop the parent's copy of the child end, or the pipe never
            # EOFs when the armed fault kills the victim mid-append.
            child_conn.close()
            self.seen_pids.add(child.pid)
            acked = []
            while True:
                if not parent_conn.poll(60.0):
                    self.wal_failures.append(f"{tag}: victim went silent")
                    child.kill()
                    break
                try:
                    message = parent_conn.recv()
                except EOFError:
                    break  # the armed fault killed the victim mid-append
                acked.append(message)
            child.join(timeout=30.0)
            if child.exitcode != 9:
                self.wal_failures.append(
                    f"{tag}: victim exited {child.exitcode}, not the "
                    f"fault hook's os._exit(9)")
            # Recovery: every acked id must answer as its own nearest
            # neighbor; the unacked in-flight append may or may not
            # survive (torn tails are truncated), which is the contract.
            with MutableSnapshotServer(self.path, wal_path=wal) as recovered:
                self._track(recovered)
                for uid, vector in acked:
                    result = recovered.query_batch(
                        np.asarray([vector]), k=1)[0]
                    if not result.ids or result.ids[0] != uid:
                        self.wal_failures.append(
                            f"{tag}: acked insert {uid} ({point}:{nth}) "
                            f"lost across recovery")
                self._track(recovered)

    # -- report ------------------------------------------------------

    def orphans(self) -> list:
        deadline = time.monotonic() + 10.0
        while (any(_alive(pid) for pid in self.seen_pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        return sorted(pid for pid in self.seen_pids if _alive(pid))


def _wal_victim(snapshot, wal, conn, fault_spec) -> None:
    """Child: insert far-away points, acking each, until the WAL fault
    hook (armed via the inherited environment) kills the process.

    ``mid-group`` inserts from concurrent threads behind a slow injected
    fsync (``REPRO_WAL_SLOW_FSYNC_MS``), so records pile up while one
    group syncs and the dying flush group really holds several;
    ``between-segment`` shrinks the segment size so the faulted
    rotation happens within a handful of inserts.  Either way an ack
    is sent only after the server acked the insert, so the parent's
    ledger is exactly the durable-contract set.
    """
    from repro.serve import MutableSnapshotServer

    os.environ["REPRO_WAL_FAULT"] = fault_spec
    point = fault_spec.split(":", 1)[0]
    rng = np.random.default_rng(int(fault_spec.rsplit(":", 1)[-1]))
    kwargs = {}
    if point == "between-segment":
        kwargs["segment_bytes"] = 256  # rotate every record or two
    if point == "mid-group":
        os.environ["REPRO_WAL_SLOW_FSYNC_MS"] = "25"  # slow sync: real groups
    with MutableSnapshotServer(snapshot, wal_path=wal, **kwargs) as server:
        if point == "mid-group":
            lock = threading.Lock()

            def writer(worker: int) -> None:
                # Per-thread generator: np.random.Generator is not
                # thread-safe, and the vectors only need to be far apart.
                wrng = np.random.default_rng(1000 + worker)
                for i in range(16):
                    vector = wrng.normal(100.0 + 1000.0 * worker + 10.0 * i,
                                         0.01, size=12)
                    uid = server.insert(vector)
                    with lock:
                        conn.send((uid, vector.tolist()))

            threads = [
                threading.Thread(target=writer, args=(worker,), daemon=True)
                for worker in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for i in range(32):
                vector = rng.normal(100.0 + 10.0 * i, 0.01, size=12)
                uid = server.insert(vector)
                conn.send((uid, vector.tolist()))
    os._exit(7)  # the fault never fired: wrong exitcode fails the gate


def run_sweep(iterations: int, seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path, _, queries, expected = _build_environment(tmp, seed=seed)
        sweep = _Sweep(path, queries, expected, rng)
        sweep.all_wal_points = smoke
        if smoke:
            # One deterministic pass over every scenario: cheap, covers
            # each fault class once.
            for index, scenario in enumerate(SCENARIOS):
                sweep.rng = _Fixed(scenario, rng)
                sweep.run_iteration(index)
                print(f"[{index + 1}/{len(SCENARIOS)}] {scenario}", flush=True)
        else:
            for index in range(iterations):
                scenario = sweep.run_iteration(index)
                print(f"[{index + 1}/{iterations}] {scenario}", flush=True)
        orphans = sweep.orphans()
    return {
        "config": {
            "iterations": len(SCENARIOS) if smoke else iterations,
            "seed": seed,
            "smoke": smoke,
            "elapsed_seconds": round(time.time() - started, 2),
        },
        "scenarios": sweep.scenario_runs,
        "invariants": {
            "all_requests_terminated": not sweep.undetermined,
            "undetermined_requests": sweep.undetermined,
            "answers_bit_identical": not sweep.mismatches,
            "mismatches": sweep.mismatches,
            "server_ready_after_each_iteration": not sweep.not_ready,
            "not_ready": sweep.not_ready,
            "deadline_overruns": sweep.overruns,
            "acked_mutations_survived": not sweep.wal_failures,
            "wal_failures": sweep.wal_failures,
            "zero_orphans": not orphans,
            "orphan_pids": orphans,
        },
        "counters": {
            "watchdog_kills": sweep.watchdog_kills,
            "deadline_hits": sweep.deadline_hits,
            "supervision_restarts": sweep.restarts,
            "wal_kills": sweep.wal_kills,
        },
    }


class _Fixed:
    """Smoke-mode RNG: pins the scenario, defers everything else."""

    def __init__(self, scenario: str, rng: random.Random) -> None:
        self._scenario = scenario
        self._rng = rng

    def choice(self, seq):
        if seq is SCENARIOS:
            return self._scenario
        return self._rng.choice(seq)

    def randrange(self, *bounds):
        return self._rng.randrange(*bounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=200,
                        help="seeded fault iterations (full mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration per scenario; writes the "
                             ".smoke.json variant")
    parser.add_argument("--out", default=None, help="report path override")
    args = parser.parse_args(argv)
    report = run_sweep(args.iterations, args.seed, args.smoke)
    out = args.out or (DEFAULT_OUT.replace(".json", ".smoke.json")
                       if args.smoke else DEFAULT_OUT)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    invariants = report["invariants"]
    broken = [name for name in ("all_requests_terminated",
                                "answers_bit_identical",
                                "server_ready_after_each_iteration",
                                "acked_mutations_survived",
                                "zero_orphans")
              if not invariants[name]]
    broken += [f"deadline overrun: {o}" for o in invariants["deadline_overruns"]]
    print(f"wrote {out}")
    if broken:
        print(f"CHAOS INVARIANTS VIOLATED: {broken}", file=sys.stderr)
        return 1
    print(f"chaos sweep OK: {report['config']['iterations']} iteration(s), "
          f"{report['counters']['watchdog_kills']} watchdog kill(s), "
          f"{report['counters']['supervision_restarts']} restart(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
