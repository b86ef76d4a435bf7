"""Driving the planning service over its HTTP JSON API.

Run:  python examples/service_client.py

Boots an in-process planning service on an ephemeral port (exactly what
``etransform serve`` runs), then walks the client workflow a
consolidation team would use: submit a plan job and poll it, watch a
repeated request come back instantly from the fingerprint cache,
refine the plan across several HTTP requests against one warm
incremental session, and read the operational metrics.

Against an already-running service, replace the boot block with
``client = ServiceClient("http://host:8080")``.
"""

from repro import ServiceClient, load_enterprise1
from repro.service import JobManager, PlanningServer, ServiceConfig


def main() -> None:
    # -- boot (what `etransform serve` does) ------------------------------
    config = ServiceConfig(port=0, workers=2)  # port 0 → ephemeral
    manager = JobManager(config).start()
    server = PlanningServer((config.host, config.port), manager).start()
    client = ServiceClient(server.url)
    print(f"service up at {server.url}: {client.healthz()}")

    state = load_enterprise1(scale=0.3)

    # -- a plan job: submit, wait, read the result ------------------------
    job = client.submit_plan(state, options={"backend": "highs"})
    print(f"\nsubmitted plan job {job['id']} ({job['state']})")
    done = client.wait(job["id"])
    summary = done["result"]["summary"]
    print(f"planned in {done['elapsed']:.2f}s (via {done['via']}): "
          f"${summary['total_cost']:,.0f}/month "
          f"into {summary['datacenters_used']}")

    # -- the same request again: a fingerprint-cache hit ------------------
    repeat = client.submit_plan(state, options={"backend": "highs"})
    print(f"repeat submission: {repeat['state']} immediately "
          f"(via {repeat['via']})")

    # -- refinement across HTTP requests, one warm session ----------------
    # The payload always carries the cumulative directive list; the
    # worker holding the session applies only the new suffix to its
    # warm RevisionedModel (watch `warm` flip to True).
    site = summary["datacenters_used"][0]
    directives = [{"kind": "retire_site", "datacenter": site}]
    step1 = client.wait(client.submit_refine(state, directives)["id"])
    print(f"\nretire {site}: ${step1['result']['summary']['total_cost']:,.0f} "
          f"(warm={step1['result']['warm']})")

    directives.append(
        {"kind": "cap_groups",
         "datacenter": step1["result"]["summary"]["datacenters_used"][0],
         "limit": 20}
    )
    step2 = client.wait(client.submit_refine(state, directives)["id"])
    print(f"cap next site: ${step2['result']['summary']['total_cost']:,.0f} "
          f"(warm={step2['result']['warm']}, "
          f"cache={step2['result']['solve_cache']})")

    # -- operational visibility -------------------------------------------
    stats = client.metrics()
    print(f"\nmetrics: {stats['jobs']['by_state']} | cache {stats['cache']} "
          f"| workers {stats['workers']}")

    # -- drain ------------------------------------------------------------
    server.stop()
    drained = manager.shutdown(drain=True)
    print(f"drained cleanly: {drained}")


if __name__ == "__main__":
    main()
