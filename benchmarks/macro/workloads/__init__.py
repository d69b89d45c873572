"""The four workloads, by name."""

from workloads.auction_clear import AuctionClear
from workloads.serve import ServeDurable, ServeSubmit
from workloads.sim_open import SimOpen

WORKLOADS = {cls.name: cls
             for cls in (ServeSubmit, ServeDurable, SimOpen, AuctionClear)}
