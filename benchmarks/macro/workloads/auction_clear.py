"""``auction_clear``: the auction kernels alone.

Four Table III instances (5 000 queries, sharing 8, capacity 0.08 x
demand; seeds S..S+3), cleared round-robin: each round takes a fresh
``with_capacity`` copy of one instance — so the ``InstanceIndex`` is
rebuilt, as a service does per period — and runs the paper's seven
mechanisms on it under ``fast`` selection.  Pure ``core``; everything
else is bypassed, so a kernel gain shows here and nowhere else.

A slice is one pass over all four instances, so every slice does the
same work and the median over slices is not a mixture of four modes.
"""

from __future__ import annotations

from harness import Meter, Workload

from repro.core import make_mechanism
from repro.core.fastpath import InstanceIndex
from repro.io import load_instance, save_instance
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

MECHANISMS = ("CAR", "CAF", "CAF+", "CAT", "CAT+", "GV", "two-price")
INSTANCES = 4
WARM_ROUNDS = 1
RESTART_REPEATS = 9


def make(name: str, seed: int):
    """A fresh mechanism (two-price re-seeded, so rounds repeat)."""
    if name == "two-price":
        return make_mechanism(name, seed=seed)
    return make_mechanism(name)


class AuctionClear(Workload):
    name = "auction_clear"

    queries = 1250
    sharing = 8
    capacity_share = 0.08
    settles_per_slice = INSTANCES
    reference_slices = 180

    async def setup(self) -> None:
        if self.options.smoke:
            self.queries = 300
        self.sizes = {"instances": INSTANCES, "queries": self.queries,
                      "max_sharing": self.sharing,
                      "capacity_share": self.capacity_share,
                      "mechanisms": list(MECHANISMS)}
        self.instances = []
        for offset in range(INSTANCES):
            generator = WorkloadGenerator(
                config=WorkloadConfig().scaled(self.queries),
                seed=self.seed + offset)
            instance = generator.instance(max_sharing=self.sharing)
            self.instances.append(instance.with_capacity(
                instance.total_demand() * self.capacity_share))
        self.saved = self.scratch("instance.json")
        save_instance(self.instances[0], self.saved)
        self.first_round = None
        self.rounds = 0
        for _ in range(WARM_ROUNDS):
            self.first_round = self.run_round()

    def run_round(self) -> list:
        outcomes = []
        for instance in self.instances:
            fresh = instance.with_capacity(instance.capacity)
            for name in MECHANISMS:
                outcomes.append(
                    make(name, self.seed).run(fresh, selection="fast"))
        return outcomes

    async def measure(self, meter: Meter, slices: int) -> None:
        ops = INSTANCES * len(MECHANISMS) * self.queries
        done = 0
        while done < slices and not meter.overrun():
            outcomes, _sample = await meter.timed(
                "slice", ops, self.run_round)
            self.last_round = outcomes
            done += 1
        self.rounds += done

    def restart_once(self):
        instance = load_instance(self.saved)
        InstanceIndex.of(instance)
        return make("CAT", self.seed).run(instance, selection="fast")

    async def restart(self, meter: Meter) -> None:
        for _ in range(self.repeats(RESTART_REPEATS)):
            self.reloaded = None
            self.reloaded, _sample = await meter.one_shot(
                "restart", self.restart_once)

    async def verify(self) -> None:
        checks = self.checks
        checks.ops((self.rounds + WARM_ROUNDS) * INSTANCES
                   * len(MECHANISMS) * self.queries)
        # Round 0 against the reference selection path, which shares
        # no code with the kernels under test.
        cursor = iter(self.first_round)
        for index, instance in enumerate(self.instances):
            for name in MECHANISMS:
                fast = next(cursor)
                reference = make(name, self.seed).run(
                    instance, selection="reference")
                checks.check(
                    fast.payments == reference.payments,
                    f"instance {index} {name}: fast payments differ "
                    f"from reference selection")
                checks.check(
                    fast.used_capacity <= instance.capacity + 1e-6,
                    f"instance {index} {name}: capacity exceeded")
                # CAR prices off the loser's *final* remaining load,
                # which can outgrow an early winner's density: only
                # the strategyproof mechanisms promise payment <= bid.
                checks.check(
                    not make(name, self.seed).bid_strategyproof
                    or all(pay <= instance.query(qid).bid + 1e-9
                           for qid, pay in fast.payments.items()),
                    f"instance {index} {name}: a payment exceeds "
                    f"its bid")
        # Every round does identical work on identical inputs.
        checks.check(
            [o.payments for o in self.last_round]
            == [o.payments for o in self.first_round],
            "last round's payments differ from round 0's")
        cat = self.first_round[MECHANISMS.index("CAT")]
        checks.check(self.reloaded.payments == cat.payments,
                     "CAT on the reloaded instance differs from the "
                     "in-memory clear")
