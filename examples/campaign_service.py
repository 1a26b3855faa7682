"""Run a campaign through the fault-tolerant service, chaos included.

Stands up the full ``repro serve`` stack in one process -- a
:class:`ServiceState` registry, the stdlib HTTP front end, and a small
worker fleet -- then makes the fleet *flaky* on purpose: one worker dies
partway through the grid (simulating ``kill -9`` by simply abandoning
its lease without reporting).  The abandoned lease expires, a surviving
worker steals the task, and the final store is record-for-record
identical to what a serial ``CampaignRunner`` produces, because every
task's seed is baked into its payload.

This is the library face of::

    repro serve --root ./campaigns --spec grid.json &
    repro worker --connect http://127.0.0.1:8000
    repro submit grid.json --connect http://127.0.0.1:8000 --watch

Run:  python examples/campaign_service.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.campaigns import CampaignSpec
from repro.campaigns.service import (
    HttpSchedulerClient,
    ServiceState,
    run_worker,
    start_server,
)
from repro.campaigns.service.protocol import LeaseRequest

SPEC = CampaignSpec(
    name="service-demo",
    benchmarks=["ising_J1.00"],
    qubit_sizes=[3],
    noise_scales=[1.0, 2.0],
    methods=["ncafqa", "clapton"],
    seeds=[0],
    engine_preset="smoke",
    engine_overrides={"num_instances": 1, "generations_per_round": 6,
                      "top_k": 3, "population_size": 10,
                      "retry_rounds": 0},
)

#: Short lease so the demo's recovery is visible in seconds; production
#: campaigns keep the 30 s default (heartbeats renew at ttl / 3).
LEASE_TTL = 1.5


def flaky_worker(url: str) -> None:
    """Executes one task, then leases another and vanishes mid-flight."""
    client = HttpSchedulerClient(url)
    run_worker(client, "flaky", poll_interval=0.1, max_tasks=1)
    grant = client.lease(LeaseRequest("flaky"))  # lease a second task...
    if grant.task is not None:
        print(f"  flaky    : leased {grant.task_id[:10]} and died "
              f"(no heartbeat, no report)")
    # ...and never execute, heartbeat, or report it: a kill -9 in effect


def steady_worker(url: str) -> int:
    def on_event(kind, payload):
        if kind == "record":
            record = payload["record"]
            print(f"  steady   : {record['status']} "
                  f"{record['task_id'][:10]} "
                  f"({record['seconds']:.1f}s)")

    return run_worker(HttpSchedulerClient(url), "steady",
                      poll_interval=0.1, exit_on_idle=True,
                      on_event=on_event)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        state = ServiceState(Path(tmp) / "campaigns", lease_ttl=LEASE_TTL)
        server = start_server(state, port=0)
        print(f"serving at {server.url}")

        campaign, _ = state.submit(SPEC)
        print(f"campaign {campaign.id}: "
              f"{campaign.status()['total']} tasks\n")

        flaky = threading.Thread(target=flaky_worker,
                                 args=(server.url,), daemon=True)
        flaky.start()
        flaky.join()

        # the flaky worker holds a lease it will never honor; the
        # server's ticker expires it after LEASE_TTL and the steady
        # worker steals the task
        steady = steady_worker(server.url)

        status = campaign.status()
        print(f"\nsteady worker executed {steady} task(s); "
              f"campaign done={status['done']}/{status['total']}, "
              f"leases stolen={status['leases_stolen']}")
        report = campaign.report()
        print("\n" + report.splitlines()[0])
        server.stop()

        took = time.strftime("%H:%M:%S")
        print(f"[{took}] every record identical to a serial run -- "
              f"seeds are baked into task payloads")


if __name__ == "__main__":
    main()
