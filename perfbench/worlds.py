"""The three seeded worlds and their query mixes.

A *world spec* is a small JSON document derived from the workload name and
the seed: topology shape, sweeper cadence and the seeded on/off background
traffic.  It is the only thing the server process receives besides the
HTTP requests.  The load generator derives the request pool from the same
seed and reads link capacities from the same spec for its answer checks.

Workloads (why each exists is recorded in ``perfbench/spec.json``):

* ``tree64-churn`` -- the 64-host two-level tree of
  ``benchmarks/bench_ablation_scale.py``'s ``build_tree`` swept 0.05 s
  after each sweep ends (1 simulated second a sweep; see
  ``SWEEP_INTERVAL_S``), so about one epoch is published per query and
  nearly every query lands on a fresh epoch; mostly one fixed 30-flow
  all-to-all HISTORY query over six hosts, plus a FUTURE flow query, a
  flat ``get_graph`` and ``node_info`` on the same hosts.
* ``leafspine1024-mixed`` -- 1024-host leaf-spine swept in real time;
  Zipf-popular host sets drive a graph / flow_info / node mix.
* ``fed8-cross`` -- the 8-shard federation swept in real time; mostly
  cross-shard flow_info, some intra-shard, some cross-shard graphs.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random

WORKLOADS = ("tree64-churn", "leafspine1024-mixed", "fed8-cross")

#: Levels every bandwidth / CPU answer carries, in the order they must rise.
LEVELS = ("min", "q1", "median", "q3", "max")

#: Distinct host sets per mixed-workload pool: large enough that the
#: routing and graph caches only partly hit.
POOL_SIZE = 256
ZIPF_S = 1.1

#: Wall seconds the tree64-churn sweeper waits after each sweep (``repro
#: serve`` waits 0.02 s).  A sweep costs 20-30 ms of CPU on a 2-vCPU
#: virtual machine.  After a 0.02 s wait the sweep is about 60% of each
#: epoch, so the epoch rate follows the host's speed, which drifts by 20%
#: and more over minutes on a shared host, and runs of the same code
#: spread past the rate's bound.  After 0.05 s the sweep is about a third
#: of an epoch: host drift moves the rate about 40% less, and a sweep
#: twice as slow still costs about a quarter of the epochs.
SWEEP_INTERVAL_S = 0.05


def world_spec(workload: str, seed: int) -> dict:
    """The server-side description of *workload*'s world under *seed*."""
    rng = random.Random(f"{workload}/world/{seed}")
    if workload == "tree64-churn":
        from benchmarks.bench_ablation_scale import build_tree

        topology, hosts = build_tree(64, hosts_per_router=4)
        shape = {"kind": "tree", "hosts_per_router": 4, "topology": describe(topology)}
        cadence = {"sweep_interval": SWEEP_INTERVAL_S, "sim_step": 1.0}
        traffic = _onoff(rng, hosts, 6, (20e6, 60e6))
    elif workload == "leafspine1024-mixed":
        shape = {"kind": "leafspine", "leaves": 64, "spines": 16, "hosts_per_leaf": 16}
        cadence = {"sweep_interval": 1.0, "sim_step": 1.0}
        traffic = _onoff(rng, leafspine_hosts(64, 16), 64, (200e6, 600e6))
    elif workload == "fed8-cross":
        shape = {
            "kind": "federation",
            "shards": 8,
            "leaves": 8,
            "spines": 2,
            "hosts_per_leaf": 8,
        }
        cadence = {"sweep_interval": 1.0, "sim_step": 1.0}
        traffic = _onoff(rng, _fed_hosts_flat(shape), 8, (200e6, 600e6))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {
        "workload": workload,
        "seed": seed,
        "world": shape,
        "poll_interval": 1.0,
        "warmup": 10.0,
        **cadence,
        "traffic": traffic,
    }


def _onoff(rng: random.Random, hosts: list[str], count: int, rates) -> list[dict]:
    sources = []
    for _ in range(count):
        src, dst = rng.sample(hosts, 2)
        sources.append(
            {
                "src": src,
                "dst": dst,
                "rate_bps": round(rng.uniform(*rates)),
                "mean_on": round(rng.uniform(1.0, 4.0), 3),
                "mean_off": round(rng.uniform(1.0, 4.0), 3),
                "seed": rng.getrandbits(32),
            }
        )
    return sources


# -- host naming (mirrors the topology builders) -------------------------------


def leafspine_hosts(leaves: int, hosts_per_leaf: int) -> list[str]:
    return [f"leaf{j}-h{m}" for j in range(leaves) for m in range(hosts_per_leaf)]


def _fed_hosts_flat(shape: dict) -> list[str]:
    return [h for hosts in fed_hosts(shape).values() for h in hosts]


def fed_hosts(shape: dict) -> dict[str, tuple[str, ...]]:
    """Shard -> hosts, read from the federation plan itself."""
    from repro.federation.topology import build_federation

    plan = build_federation(
        shards=shape["shards"],
        leaves=shape["leaves"],
        spines=shape["spines"],
        hosts_per_leaf=shape["hosts_per_leaf"],
    )
    return {shard: tuple(plan.hosts[shard]) for shard in plan.shards}


def describe(topology) -> dict:
    """A topology as JSON: nodes and links in insertion order."""
    return {
        "name": topology.name,
        "nodes": [[n.name, "host" if n.is_compute else "router"] for n in topology.nodes],
        "links": [[k.name, k.a, k.b, k.capacity, k.latency] for k in topology.links],
    }


def tree_hosts(shape: dict) -> list[str]:
    return [name for name, kind in shape["topology"]["nodes"] if kind == "host"]


# -- server side ---------------------------------------------------------------


def build_topology(shape: dict):
    """The topology object of a non-federated world shape."""
    if shape["kind"] == "tree":
        from repro.net import TopologyBuilder

        described = shape["topology"]
        builder = TopologyBuilder(described["name"])
        for name, kind in described["nodes"]:
            builder.host(name) if kind == "host" else builder.router(name)
        for name, a, b, capacity, latency in described["links"]:
            builder.link(a, b, capacity, latency, name=name)
        return builder.build()
    if shape["kind"] == "leafspine":
        from repro.net import leaf_spine

        return leaf_spine(shape["leaves"], shape["spines"], shape["hosts_per_leaf"])
    raise ValueError(f"no flat topology for world kind {shape['kind']!r}")


def build_service(spec: dict, front_end: dict):
    """Build the world and its query service (not started)."""
    from repro.traffic.sources import OnOffSource

    shape = spec["world"]
    cadence = dict(sweep_interval=spec["sweep_interval"], sim_step=spec["sim_step"])
    if shape["kind"] == "federation":
        from repro.federation import FederationService, FederationWorld

        world = FederationWorld.build(
            poll_interval=spec["poll_interval"],
            shards=shape["shards"],
            leaves=shape["leaves"],
            spines=shape["spines"],
            hosts_per_leaf=shape["hosts_per_leaf"],
        )
        service = FederationService(world, **cadence, **front_end)
    else:
        from repro.service import RemosService
        from repro.testbed import World

        world = World.from_topology(build_topology(shape), poll_interval=spec["poll_interval"])
        service = RemosService.from_world(world, **cadence, **front_end)
    for source in spec["traffic"]:
        OnOffSource(
            world.net,
            source["src"],
            source["dst"],
            source["rate_bps"],
            mean_on=source["mean_on"],
            mean_off=source["mean_off"],
            rng=source["seed"],
        )
    return service


# -- generator side ------------------------------------------------------------


def access_capacity(spec: dict) -> dict[str, float]:
    """Host -> capacity (bit/s) of its access link, from the same spec."""
    shape = spec["world"]
    if shape["kind"] == "federation":
        from repro.federation.topology import build_federation

        topology = build_federation(
            shards=shape["shards"],
            leaves=shape["leaves"],
            spines=shape["spines"],
            hosts_per_leaf=shape["hosts_per_leaf"],
        ).topology
    else:
        topology = build_topology(shape)
    return {
        node.name: min(link.capacity for link in topology.links_at(node.name))
        for node in topology.compute_nodes
    }


class Query:
    """One request the generator can send, with what its answer must hold."""

    __slots__ = ("kind", "method", "path", "body", "hosts", "flows")

    def __init__(self, kind, method, path, body=None, hosts=(), flows=()):
        self.kind = kind  # "flow_info" | "graph" | "node"
        self.method = method
        self.path = path
        self.body = body
        self.hosts = tuple(hosts)
        self.flows = tuple(flows)  # ((src, dst), ...) in answer order


def _flow_query(hosts, timeframe: dict) -> Query:
    flows = [(s, d) for s in hosts for d in hosts if s != d]
    body = json.dumps(
        {
            "variable": [{"src": s, "dst": d} for s, d in flows],
            "timeframe": timeframe,
        }
    ).encode()
    return Query("flow_info", "POST", "/flow_info", body, hosts, flows)


def _graph_query(hosts) -> Query:
    return Query("graph", "GET", "/graph?nodes=" + ",".join(hosts), None, hosts)


def _node_query(host: str) -> Query:
    return Query("node", "GET", f"/node/{host}", None, (host,))


HISTORY = {"kind": "history", "window": 10.0}
CURRENT = {"kind": "current"}
FUTURE = {"kind": "future", "horizon": 10.0, "window": 60.0}


class Mix:
    """A seeded request stream: ``deal(n)`` returns the next *n* queries.

    Each workload is a list of ``(share, pool)``: requests take pools by
    share, then pool entries by Zipf popularity, so popular host sets
    repeat (cache hits) while the tail keeps bringing new ones.
    """

    def __init__(self, workload: str, seed: int, spec: dict):
        self.rng = rng = random.Random(f"{workload}/mix/{seed}")
        shape = spec["world"]
        if workload == "tree64-churn":
            per = shape["hosts_per_router"]
            hosts = tree_hosts(shape)
            # Six hosts on six distinct leaf routers, chosen by the seed.
            leaves = sorted(rng.sample(range(len(hosts) // per), 6))
            picks = [hosts[leaf * per + rng.randrange(per)] for leaf in leaves]
            # The fixed host set keeps routing cached; the small shares
            # bring the FUTURE timeframe, the flat graph and the node path
            # under the same per-epoch churn.
            self.pools = [
                (0.70, [_flow_query(picks, HISTORY)]),
                (0.10, [_flow_query(picks[:3], FUTURE)]),
                (0.10, [_graph_query(picks)]),
                (0.10, [_node_query(host) for host in picks]),
            ]
        elif workload == "leafspine1024-mixed":
            hosts = leafspine_hosts(shape["leaves"], shape["hosts_per_leaf"])
            # Half HISTORY, 30% CURRENT, 20% FUTURE, fixed per pool slot.
            timeframes = (HISTORY,) * 5 + (CURRENT,) * 3 + (FUTURE,) * 2
            self.pools = [
                (0.45, [_graph_query(rng.sample(hosts, 8)) for _ in range(POOL_SIZE)]),
                (0.40, [
                    _flow_query(rng.sample(hosts, rng.randint(4, 6)), timeframes[slot % 10])
                    for slot in range(POOL_SIZE)
                ]),
                (0.15, [_node_query(host) for host in rng.sample(hosts, POOL_SIZE)]),
            ]
        elif workload == "fed8-cross":
            shards = fed_hosts(shape)
            names = sorted(shards)

            def spread(count: int, per_shard: int) -> list[str]:
                return [h for s in rng.sample(names, count) for h in rng.sample(shards[s], per_shard)]

            self.pools = [
                (0.60, [_flow_query(spread(2, 2), HISTORY) for _ in range(POOL_SIZE)]),
                (0.25, [_flow_query(spread(1, 4), HISTORY) for _ in range(POOL_SIZE)]),
                (0.15, [_graph_query(spread(3, 2)) for _ in range(POOL_SIZE)]),
            ]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        self._popularity = _zipf_cdf(POOL_SIZE)

    def deal(self, count: int) -> list[Query]:
        """*count* queries in seeded order, each pool's share of them fixed.

        Pools get their shares of *count* by largest remainder, so phases
        of one length carry the same mix of work; each request then picks
        its pool entry by Zipf popularity.
        """
        quotas = [share * count for share, _ in self.pools]
        counts = [int(quota) for quota in quotas]
        by_remainder = sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])
        for i in by_remainder[: count - sum(counts)]:
            counts[i] += 1
        pools = [pool for (_, pool), n in zip(self.pools, counts) for _ in range(n)]
        self.rng.shuffle(pools)
        return [
            pool[min(bisect.bisect_left(self._popularity, self.rng.random()), len(pool) - 1)]
            for pool in pools
        ]


def _zipf_cdf(n: int) -> list[float]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    total = sum(weights)
    return [x / total for x in itertools.accumulate(weights)]
