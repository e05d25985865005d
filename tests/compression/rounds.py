"""The one calling convention tests drive a strategy's server side with."""

from __future__ import annotations


def aggregate_payloads(strategy, payloads):
    """What the engine does with a round's ``(client_id, weight, payload)``
    triples: fold each, in order, into the strategy's open sums, then
    ``aggregate()`` once."""
    for _, weight, payload in payloads:
        strategy.fold(weight, payload)
    return strategy.aggregate()
