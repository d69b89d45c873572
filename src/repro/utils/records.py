"""The copy hooks that keep a checkpoint's cost O(live state)."""

from __future__ import annotations

import copy


def share_on_deepcopy(self, _memo: dict):
    """``__deepcopy__`` of an immutable record: the record itself.

    Assigned in the class body of every frozen history record — auction
    outcomes (and with them the instance each holds), invoices,
    period/cluster/simulation reports, migrations, probe ticks, stream
    tuples.  Nothing writes to one after it is built, so a checkpoint
    and every system restored from it can hold the *same* record;
    ``copy.deepcopy`` of live state then costs what the live state
    costs, however long the history behind it.  Only the containers a
    running system appends to (report lists, the ledger, result logs)
    are copied, and they are copied shallowly.
    """
    return self


def deepcopy_sharing_records(obj, memo: dict, record_logs):
    """``__deepcopy__`` of an engine: live state deep, record logs shallow.

    *record_logs* are the containers of immutable records (result
    tuples, latency samples) that *obj* only ever appends to.  Each
    enters *memo* as a shallow copy of itself, so the deep copy of
    ``obj.__dict__`` picks those up instead of walking the elements;
    everything else is copied exactly as the default would copy it.
    """
    clone = object.__new__(type(obj))
    memo[id(obj)] = clone
    for log in record_logs:
        memo[id(log)] = copy.copy(log)
    clone.__dict__.update(copy.deepcopy(obj.__dict__, memo))
    return clone
