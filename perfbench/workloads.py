"""The three workloads: inputs, closed loops, output checks, metrics.

Each workload class builds its inputs from the seed in ``__init__``,
makes a fresh system in :meth:`setup` (timed three times by the runner),
drives it in :meth:`run` for a measured time or a fixed number of
rounds, and in :meth:`finish` checks every recorded output against
:mod:`oracle` and computes the end-to-end metrics.  Checks never run
inside a timed call.
"""

from __future__ import annotations

import resource
import statistics
from collections import deque
from time import perf_counter

import numpy as np

from oracle import ALPHA, KINDS, Pool, close, super_optimal

C = 1000.0
#: Relative tolerance for the program's utility and bound against ours.
REL = 1e-7
#: Relative slack on feasibility (per-server load, per-thread cap).
FEAS = 1e-9


#: Steps of the three-dimensional R-sequence (1/g, 1/g², 1/g³ with g³ = g + 1).
_STEPS = 1.0 / 1.3247179572447460 ** np.arange(1, 4)


def thread_specs(rng, n, kinds, share):
    """``n`` utility specs, each worth about 1 at an allocation of ``share``.

    Families are dealt round-robin.  Worth (0.8–1.2), cap (250–1000) and
    shape follow a low-discrepancy sequence from a seeded starting point,
    so every window of consecutive entries (the residents at any moment)
    holds the same mix and its total utility stays steady from seed to
    seed and window to window.
    """
    specs = []
    for k, u in enumerate(np.mod(rng.random(3) + np.outer(np.arange(1, n + 1), _STEPS), 1.0)):
        kind = kinds[k % len(kinds)]
        worth = 0.8 + 0.4 * u[0]
        cap = (0.25 + 0.75 * u[1]) * C
        if kind == "log":
            b = (0.16 + 1.44 * u[2]) * share
            a = worth / np.log1p(share / b)
        elif kind == "sat":
            b = (0.32 + 2.88 * u[2]) * share
            a = worth * (share + b) / share
        elif kind == "pow":
            b = 0.3 + 0.5 * u[2]
            a = worth / share**b
        else:
            b = (0.6 + 1.3 * u[2]) * share
            a = worth / min(share, b)
        specs.append((kind, float(a), float(b), float(cap)))
    return specs


def to_utility(spec):
    from repro.utility.functions import (
        CappedLinearUtility,
        LogUtility,
        PowerUtility,
        SaturatingUtility,
    )

    kind, a, b, cap = spec
    cls = {"log": LogUtility, "sat": SaturatingUtility, "pow": PowerUtility,
           "capped": CappedLinearUtility}[kind]
    return cls(a, b, cap)


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Collects failed output checks (at most a few messages per kind)."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}

    def expect(self, ok: bool, kind: str, message) -> None:
        if not ok:
            msgs = self.failures.setdefault(kind, [])
            if len(msgs) < 3:
                msgs.append(message() if callable(message) else str(message))

    @property
    def ok(self) -> bool:
        return not self.failures


def check_shard_rows(checks, rows, where):
    """Feasibility, certificate and agreement checks for recorded shard states.

    Each row: ``(specs, servers, allocations, n_servers, capacity,
    reported_utility, reported_bound, certified_current)``.  Returns our
    own ``(utilities, bounds)`` per row.
    """
    pool = Pool.from_specs([r[0] for r in rows])
    width = pool.cap.shape[1]
    alloc = np.zeros((len(rows), width))
    for t, r in enumerate(rows):
        alloc[t, : len(r[2])] = r[2]
    utility = pool.value(alloc).sum(axis=1)
    bound = super_optimal(pool, [r[3] for r in rows], [r[4] for r in rows])
    for t, (specs, servers, allocs, m, cap, rep_u, rep_b, current) in enumerate(rows):
        tag = f"{where} {t}"
        caps = pool.cap[t, : len(allocs)]
        loads = np.bincount(servers, weights=allocs, minlength=m) if len(allocs) else np.zeros(m)
        checks.expect(len(servers) == 0 or (servers.min() >= 0 and servers.max() < m),
                      "server index in range", tag)
        checks.expect(float(loads.max()) <= cap * (1 + FEAS), "per-server load <= C",
                      lambda: f"{tag}: load {loads.max()!r} > {cap}")
        checks.expect(bool(np.all(allocs >= -FEAS * cap))
                      and bool(np.all(allocs <= caps * (1 + FEAS) + FEAS)), "0 <= c_i <= cap_i", tag)
        checks.expect(utility[t] >= ALPHA * bound[t] * (1 - FEAS), "utility >= alpha * F_hat",
                      lambda: f"{tag}: {utility[t]!r} < alpha * {bound[t]!r}")
        checks.expect(current, "certificate is for the current state", tag)
        checks.expect(rep_b is not None and close(rep_b, bound[t], REL), "reported bound == own F_hat",
                      lambda: f"{tag}: reported {rep_b!r}, own {bound[t]!r}")
        checks.expect(rep_u is not None and close(rep_u, utility[t], REL), "reported utility == own",
                      lambda: f"{tag}: reported {rep_u!r}, own {utility[t]!r}")
    return utility, bound


def shard_row(svc, specs_by_id):
    """Record one shard's post-step state (untimed)."""
    state = svc.state
    ids = state.thread_ids
    asg = state.assignment() if ids else None
    servers = asg.servers.copy() if asg is not None else np.zeros(0, dtype=np.int64)
    allocs = asg.allocations.copy() if asg is not None else np.zeros(0)
    reported_u = (svc.last_ratio * svc.last_bound) if svc.last_bound is not None else None
    return (
        [specs_by_id[t] for t in ids], servers, allocs, state.n_servers, state.capacity,
        reported_u, svc.last_bound, svc.last_certified_version == state.version,
    ), ids


class ColdSolves:
    """Cold Algorithm-2 and price-discovery solves of the resident instance.

    Sampled every few rounds through the run (outside the timed client
    calls), so the medians see the same machine as the serving metrics.
    """

    def __init__(self, checks):
        self.checks = checks
        self.times = {"alg2": [], "price_discovery": []}

    def sample(self, specs, n_servers):
        from repro.core.problem import AAProblem
        from repro.engine import run_solver

        problem = AAProblem([to_utility(s) for s in specs], n_servers=n_servers, capacity=C)
        pool = Pool.from_specs([specs])
        bound = float(super_optimal(pool, n_servers, C)[0])
        for name, samples in self.times.items():
            t0 = perf_counter()
            asg = run_solver(name, problem).assignment
            samples.append(perf_counter() - t0)
            loads = np.bincount(asg.servers, weights=asg.allocations, minlength=n_servers)
            own = float(pool.value(asg.allocations[None, :]).sum())
            self.checks.expect(float(loads.max()) <= C * (1 + FEAS), "per-server load <= C",
                               f"cold {name}")
            self.checks.expect(own >= ALPHA * bound * (1 - FEAS), "utility >= alpha * F_hat",
                               f"cold {name}")

    def medians(self):
        return statistics.median(self.times["alg2"]), statistics.median(self.times["price_discovery"])


class Workload:
    """Shared closed-loop bookkeeping."""

    wire = False

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.checks = Checks()
        self.failed = 0
        self.attempted = 0
        #: armed -> [requests, seconds] of the timed calls, for trace.overhead
        self.legs = {False: [0, 0.0], True: [0, 0.0]}
        self._armed_round = False
        self._coin = np.random.default_rng([seed, 7])

    def start_round(self) -> None:
        """When traced, arm the coming round with probability 1/2.

        A seeded coin rather than strict alternation, so that periodic
        events (replans, status queries, capacity updates) fall on both
        sides alike; armed and unarmed rounds interleave, so both see the
        same machine state.
        """
        self._armed_round = self.tracer is not None and bool(self._coin.random() < 0.5)

    def timed_call(self, fn, *args, root="call", requests=None):
        """One measured client call; armed for tracing in an armed round."""
        tracer = self.tracer
        n = len(args) if requests is None else requests
        if not self._armed_round:
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
        else:
            tracer.counts["calls"] += 1
            tracer.counts["requests"] += n
            tracer.armed = True
            try:
                t0 = perf_counter()
                out = tracer.call(root, fn, *args)
                dt = perf_counter() - t0
            finally:
                tracer.armed = False
        leg = self.legs[self._armed_round]
        leg[0] += n
        leg[1] += dt
        return out, dt

    def setup_ok(self, responses) -> None:
        self.checks.expect(all(r.ok for r in responses), "set-up requests succeed",
                           lambda: [r.error for r in responses if not r.ok][:3])

    def tally(self, responses) -> None:
        self.attempted += len(responses)
        self.failed += sum(1 for r in responses if not r.ok)

    def close(self, system) -> None:
        pass


class Serving(Workload):
    """Residents drawn from a seeded catalogue; thread ``t<n>`` gets entry ``n``."""

    kinds: tuple
    population: int
    catalogue_size: int
    n_servers: int
    stream: int

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng([seed, self.stream])
        self.catalogue = thread_specs(rng, self.catalogue_size, self.kinds,
                                      self.n_servers * C / self.population)
        self.utilities = [to_utility(s) for s in self.catalogue]
        self.specs_by_id = {}

    def _submit(self, n):
        from repro.service import SubmitThread

        tid = f"t{n}"
        self.specs_by_id[tid] = self.catalogue[n % self.catalogue_size]
        return SubmitThread(tid, self.utilities[n % self.catalogue_size])


class ServeChurn(Serving):
    """One 4-server shard behind the in-process transport, 64 residents."""

    name = "serve-churn"
    tail_q = 97
    kinds = ("log", "sat", "pow", "capped")
    population = 64
    catalogue_size = 96
    n_servers = 4
    stream = 1
    cold_every = 8

    def setup(self):
        from repro.service import AllocationService, ClusterState, InProcessTransport

        service = AllocationService(ClusterState(4, C))
        bus = InProcessTransport(service)
        self.setup_ok(bus.request(*[self._submit(n) for n in range(self.population)]))
        return {"service": service, "bus": bus, "next": self.population,
                "live": deque(f"t{n}" for n in range(self.population)),
                "cycles": [], "rows": [], "cold": ColdSolves(self.checks)}

    def _record(self, system):
        svc = system["service"]
        row, ids = shard_row(svc, self.specs_by_id)
        self.checks.expect(set(ids) == set(system["live"]), "residents == acknowledged",
                           lambda: f"step {len(system['rows'])}")
        system["rows"].append(row)

    def run(self, system, seconds=None, rounds=None):
        """Churn cycles (one submit call, then one remove call)."""
        from repro.service import RemoveThread

        bus, live = system["bus"], system["live"]
        measured = 0.0
        cycles = 0
        while (rounds is None and measured < seconds) or (rounds is not None and cycles < rounds):
            self.start_round()
            n = system["next"]
            system["next"] += 1
            cycle = 0.0
            for request in (self._submit(n), RemoveThread(live[0])):
                responses, dt = self.timed_call(bus.request, request)
                cycle += dt
                self.tally(responses)
                if responses[0].ok:
                    if request.op == "submit":
                        live.append(request.thread_id)
                    else:
                        live.popleft()
                self._record(system)
            system["cycles"].append(cycle)
            measured += cycle
            cycles += 1
            if cycles % self.cold_every == 0:
                system["cold"].sample(system["rows"][-1][0], 4)
        return measured

    def finish(self, system, measured):
        checks = self.checks
        cycles = system["cycles"]
        requests = 2 * len(cycles)
        utility, bound = check_shard_rows(checks, system["rows"], "step")
        alg2_s, prices_s = system["cold"].medians()
        return {
            "requests_per_s": requests / measured,
            "latency_p50_ms": percentile(cycles, 50) * 1e3,
            "latency_tail_ms": percentile(cycles, self.tail_q) * 1e3,
            "final_utility": float(utility[-1]),
            "trials_per_s": len(system["rows"]) / measured,
            "large_alg2_s": alg2_s,
            "large_prices_s": prices_s,
            "alg2_ratio_mean": float(np.mean(utility / bound)),
        }


class FleetTcp(Serving):
    """A 3-shard fleet behind the TCP server, one client, 48 residents."""

    name = "fleet-tcp"
    tail_q = 95
    wire = True
    kinds = ("log", "sat")
    population = 48
    catalogue_size = 72
    shards = 3
    n_servers = 4 * shards
    stream = 2
    removes = 3
    cold_every = 4

    def setup(self):
        from repro.service import (
            AllocationService,
            ClusterState,
            FleetCoordinator,
            InProcessTransport,
        )
        from repro.service.transport import Client, TcpServer

        services = [AllocationService(ClusterState(4, C)) for _ in range(self.shards)]
        coordinator = FleetCoordinator([InProcessTransport(s) for s in services])
        server = TcpServer(coordinator).start()
        client = Client(server.host, server.port)
        self.setup_ok(client.request(*[self._submit(n) for n in range(self.population)]))
        return {"services": services, "coordinator": coordinator, "server": server,
                "client": client, "next": self.population, "burst": 0,
                "live": deque(f"t{n}" for n in range(self.population)),
                "latency": [], "requests": 0, "rows": [], "statuses": [],
                "steps0": self._steps(services), "query_rng": np.random.default_rng([self.seed, 3]),
                "cold": ColdSolves(self.checks)}

    @staticmethod
    def _steps(services):
        from repro.observability import SERVICE_STEPS

        return sum(s.counters[SERVICE_STEPS] for s in services)

    def close(self, system):
        system["client"].close()
        system["server"].stop()

    def _burst(self, system):
        from repro.service import QueryAssignment, RemoveThread, UpdateCapacity

        system["burst"] += 1
        b = system["burst"]
        live = system["live"]
        gone = [live[i] for i in range(self.removes)]
        staying = list(live)[self.removes:]
        n = system["next"]
        system["next"] += self.removes
        requests = []
        for i, tid in enumerate(gone):
            requests += [RemoveThread(tid), self._submit(n + i)]
        picks = system["query_rng"].choice(len(staying), 2, replace=False)
        requests += [QueryAssignment(staying[int(i)]) for i in picks]
        if b % 10 == 0:
            requests.append(QueryAssignment())
        if b % 50 == 0:
            requests.append(UpdateCapacity(1100.0 if (b // 50) % 2 else C))
        return requests

    def run(self, system, seconds=None, rounds=None):
        """Closed-loop bursts; a timed run ends with the fleet back at C = 1000."""
        client, live = system["client"], system["live"]
        measured = 0.0
        bursts = 0
        while True:
            if rounds is not None and bursts >= rounds:
                break
            if rounds is None and measured >= seconds and (system["burst"] // 50) % 2 == 0:
                break
            self.start_round()
            requests = self._burst(system)
            responses, dt = self.timed_call(client.request, *requests)
            measured += dt
            bursts += 1
            system["latency"].append(dt)
            system["requests"] += len(requests)
            self.tally(responses)
            for req, resp in zip(requests, responses):
                if req.op == "remove" and resp.ok:
                    live.remove(req.thread_id)
                elif req.op == "submit" and resp.ok:
                    live.append(req.thread_id)
            self._record(system, requests, responses)
            if bursts % self.cold_every == 0:
                specs = [spec for row in system["rows"][-1] for spec in row[0]]
                system["cold"].sample(specs, self.n_servers)
        return measured

    def _record(self, system, requests, responses):
        coordinator, checks = system["coordinator"], self.checks
        rows, seen = [], {}
        for k, svc in enumerate(system["services"]):
            row, ids = shard_row(svc, self.specs_by_id)
            rows.append(row)
            checks.expect(svc.gap.stats()["ok"], "shard gap monitor ok", f"shard {k}")
            for i, tid in enumerate(ids):
                checks.expect(tid not in seen, "each thread on exactly one shard", tid)
                seen[tid] = (k, int(row[1][i]), float(row[2][i]))
                checks.expect(coordinator.locate(tid) == k, "location map == residency", tid)
        checks.expect(set(seen) == set(system["live"]), "residents == acknowledged",
                      lambda: f"burst {system['burst']}")
        for req, resp in zip(requests, responses):
            if req.op == "query" and req.thread_id is not None and resp.ok:
                got = (resp.data.get("shard"), resp.data["server"], resp.data["allocation"])
                checks.expect(got == seen.get(req.thread_id), "id lookup == snapshot",
                              lambda: f"{req.thread_id}: {got} vs {seen.get(req.thread_id)}")
            elif req.op == "query" and resp.ok:
                system["statuses"].append((len(system["rows"]), resp.data["total_utility"],
                                           resp.data["n_threads"]))
        system["rows"].append(rows)

    def finish(self, system, measured):
        checks = self.checks
        flat = [row for rows in system["rows"] for row in rows]
        utility, bound = check_shard_rows(checks, flat, "burst-shard")
        utility = utility.reshape(-1, self.shards).sum(axis=1)
        bound = bound.reshape(-1, self.shards).sum(axis=1)
        for burst, reported, n_threads in system["statuses"]:
            checks.expect(close(reported, utility[burst], REL), "status utility == own", burst)
            checks.expect(n_threads == self.population, "status thread count", burst)
        alg2_s, prices_s = system["cold"].medians()
        latency = system["latency"]
        return {
            "requests_per_s": system["requests"] / measured,
            "latency_p50_ms": percentile(latency, 50) * 1e3,
            "latency_tail_ms": percentile(latency, self.tail_q) * 1e3,
            "final_utility": float(utility[-1]),
            "trials_per_s": (self._steps(system["services"]) - system["steps0"]) / measured,
            "large_alg2_s": alg2_s,
            "large_prices_s": prices_s,
            "alg2_ratio_mean": float(np.mean(utility / bound)),
        }


def quad_pool(batch, shape):
    """The oracle's view of a program ``QuadSplineBatch`` (its anchors)."""
    return Pool(np.full(shape, KINDS.index("quad")), batch.v.reshape(shape),
                batch.w.reshape(shape), batch.caps.reshape(shape))


class SolveBatch(Workload):
    """A Section VII figure point on the batch backend, then n = 10^5 solves."""

    name = "solve-batch"
    tail_q = 90
    points_per_round = 10
    trials = 250
    m, beta = 8, 5.0
    large_m, large_beta = 12500, 8.0

    def __init__(self, seed):
        super().__init__(seed)
        from repro.workloads.generators import PowerLawDistribution

        self.dist = PowerLawDistribution(alpha=2.0)

    def _point(self, seed_seq, trials):
        from repro.experiments.harness import run_point_arrays

        return run_point_arrays(self.dist, self.m, self.beta, C, trials=trials,
                                seed=seed_seq, backend="batch")

    def setup(self):
        from repro.workloads.generators import UniformDistribution, make_problem

        problem = make_problem(UniformDistribution(), self.large_m, self.large_beta, C,
                               seed=np.random.SeedSequence([self.seed, 4]))
        self._point(np.random.SeedSequence([self.seed, 5]), 8)
        return {"problem": problem, "round": 0, "points": [], "point_s": [],
                "alg2_s": [], "prices_s": [], "large": []}

    def run(self, system, seconds=None, rounds=None):
        from repro.engine import run_solver

        problem = system["problem"]
        if "pool" not in system:
            system["pool"] = quad_pool(problem.utilities, (1, problem.n_threads))
        measured = 0.0
        done = 0
        while (rounds is None and measured < seconds) or (rounds is not None and done < rounds):
            self.start_round()
            r = system["round"]
            system["round"] += 1
            for k in range(self.points_per_round):
                seed_seq = np.random.SeedSequence([self.seed, 6, r, k])
                (names, table), dt = self.timed_call(
                    self._point, seed_seq, self.trials, root="call.point", requests=self.trials)
                measured += dt
                system["point_s"].append(dt)
                system["points"].append((seed_seq.entropy, names, table))
                self.attempted += self.trials
            outcome = {}
            for solver, key in (("alg2", "alg2_s"), ("price_discovery", "prices_s")):
                run, dt = self.timed_call(run_solver, solver, problem, root=f"call.{key[:-2]}",
                                          requests=1)
                measured += dt
                system[key].append(dt)
                self.attempted += 1
                outcome[solver] = self._large_outcome(problem, system["pool"], run.assignment)
            system["large"].append(outcome)
            done += 1
        return measured

    def _large_outcome(self, problem, pool, asg):
        """Feasibility now; own and reported utility kept for the F̂ check."""
        checks = self.checks
        m = problem.n_servers
        loads = np.bincount(asg.servers, weights=asg.allocations, minlength=m)
        caps = problem.utilities.caps
        checks.expect(float(loads.max()) <= C * (1 + FEAS), "per-server load <= C", "n=1e5")
        checks.expect(bool(np.all(asg.allocations >= -FEAS * C))
                      and bool(np.all(asg.allocations <= caps * (1 + FEAS))), "0 <= c_i <= cap_i", "n=1e5")
        own = float(pool.value(asg.allocations[None, :]).sum())
        return own, asg.total_utility(problem)

    def finish(self, system, measured):
        from repro import solve
        from repro.experiments.harness import ALG2, SO, run_trial
        from repro.utils.rng import spawn_seed_sequences
        from repro.workloads.generators import make_problem, paper_utilities_batch

        checks = self.checks
        n = int(round(self.m * self.beta))
        ratios = []
        points = system["points"]
        for p, (entropy, names, table) in enumerate(points):
            children = spawn_seed_sequences(np.random.SeedSequence(entropy), self.trials)
            u = paper_utilities_batch(self.dist, n, C, [np.random.default_rng(s) for s in children])
            shape = (self.trials, n)
            so = super_optimal(quad_pool(u, shape), self.m, C)
            col = {name: i for i, name in enumerate(names)}
            alg2 = table[:, col[ALG2]]
            checks.expect(bool(np.all(alg2 >= ALPHA * so * (1 - FEAS))), "trial >= alpha * SO", p)
            checks.expect(bool(np.all(table[:, 1:] <= (so * (1 + REL))[:, None])), "trial <= SO", p)
            checks.expect(bool(np.all(np.abs(table[:, col[SO]] - so) <= REL * so)),
                          "reported SO == own SO", p)
            ratios.append(alg2 / table[:, col[SO]])
            if p in (0, len(points) - 1):
                for t in (0, self.trials // 2, self.trials - 1):
                    rng = np.random.default_rng(children[t])
                    problem = make_problem(self.dist, self.m, self.beta, C, seed=rng)
                    sol = solve(problem, "alg2")
                    record = run_trial(problem, rng)
                    same = (sol.total_utility == table[t, col[ALG2]]
                            and sol.super_optimal_utility == table[t, col[SO]]
                            and all(record.utilities[k] == table[t, i] for k, i in col.items()))
                    checks.expect(same, "scalar re-solve == batch, bit for bit", (p, t))
        bound = float(super_optimal(system["pool"], self.large_m, C)[0])
        for outcome in system["large"]:
            for solver, (own, reported) in outcome.items():
                checks.expect(own >= ALPHA * bound * (1 - FEAS), "utility >= alpha * F_hat", solver)
                checks.expect(close(own, reported, REL), "reported utility == own", solver)
            checks.expect(outcome["price_discovery"][0] >= 0.99 * outcome["alg2"][0],
                          "price discovery >= 0.99 * alg2 at n = 1e5", outcome)
        trials = len(points) * self.trials
        rounds = len(system["large"])
        return {
            "requests_per_s": (trials + 2 * rounds) / measured,
            "latency_p50_ms": percentile(system["point_s"], 50) * 1e3,
            "latency_tail_ms": percentile(system["point_s"], self.tail_q) * 1e3,
            "final_utility": system["large"][-1]["alg2"][0],
            "trials_per_s": trials / sum(system["point_s"]),
            "large_alg2_s": statistics.median(system["alg2_s"]),
            "large_prices_s": statistics.median(system["prices_s"]),
            "alg2_ratio_mean": float(np.mean(np.concatenate(ratios))),
        }


WORKLOADS = {w.name: w for w in (ServeChurn, FleetTcp, SolveBatch)}
