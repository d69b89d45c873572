"""Checkpoint/restore on the AdmissionService, with a lying client.

Demonstrates the composable ``repro.service`` API end to end:

1. assemble a service from a mechanism *spec string*
   (``"two-price:seed=7"`` — parsed and validated against the
   registry);
2. let a *lying client*, alice, submit bids 50% over her stated
   valuation — a lie is just the bid a client chooses to submit;
3. run two subscription periods, write a checkpoint to disk, run a
   third period;
4. restore the checkpoint (a fresh service, same state) and replay
   period 3 — the period report is byte-identical, RNG state and all.

Run:  python examples/service_checkpointing.py
"""

import json
import tempfile
from pathlib import Path

from repro.dsms import ContinuousQuery, SelectOperator, SyntheticStream
from repro.io import report_to_dict
from repro.service import AdmissionService, ServiceBuilder


def accept_every_tuple(_tuple) -> bool:
    """Module-level predicate: checkpoint files require picklable plans."""
    return True


def subscriber_query(qid: str, value: float, cost: float,
                     markup: float = 1.0) -> ContinuousQuery:
    """A query worth *value* to its owner, who bids ``markup × value``."""
    op = SelectOperator(f"sel_{qid}", "events", accept_every_tuple,
                       cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id,
                           bid=value * markup, valuation=value,
                           owner=f"owner_{qid}")


def submissions_for(period: int) -> list[ContinuousQuery]:
    # Alice lies: she bids 50% over what her query is worth to her.
    base = [("alice", 20.0, 1.0, 1.5), ("bob", 35.0, 1.5, 1.0),
            ("carol", 50.0, 2.0, 1.0), ("dave", 15.0, 0.5, 1.0)]
    return [subscriber_query(f"{name}_p{period}", value + period, cost,
                             markup)
            for name, value, cost, markup in base]


def report_bytes(report) -> bytes:
    return json.dumps(report_to_dict(report), sort_keys=True).encode()


def main() -> None:
    service = (ServiceBuilder()
               .with_sources(SyntheticStream("events", rate=6, seed=11))
               .with_capacity(25.0)
               .with_mechanism("two-price:seed=7")
               .with_ticks_per_period(15)
               .build())

    for period in (1, 2):
        for query in submissions_for(period):
            service.submit(query)
        report = service.run_period()
        print(f"period {report.period}: admitted={report.admitted} "
              f"revenue=${report.revenue:.2f}")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "service.ckpt"
        service.save_checkpoint(checkpoint)
        print(f"\ncheckpoint written after period 2 "
              f"({checkpoint.stat().st_size} bytes)")

        for query in submissions_for(3):
            service.submit(query)
        original = service.run_period()

        resumed = AdmissionService.load_checkpoint(checkpoint)
        for query in submissions_for(3):
            resumed.submit(query)
        replayed = resumed.run_period()

    identical = report_bytes(original) == report_bytes(replayed)
    print(f"period 3 original:  admitted={original.admitted} "
          f"revenue=${original.revenue:.2f}")
    print(f"period 3 replayed:  admitted={replayed.admitted} "
          f"revenue=${replayed.revenue:.2f}")
    print(f"byte-identical after restore: {identical}")
    assert identical, "checkpoint restore diverged from the live run"


if __name__ == "__main__":
    main()
