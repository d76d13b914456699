"""The firmware transaction log (paper §4.3, Fig 4).

A small (2 MB) region of SSD DRAM holding 4 B commit entries in commit
order.  ``COMMIT(TxID)`` appends an entry; log cleaning flushes committed
updates in TxLog order and then truncates it; recovery treats any TxID
absent from the TxLog as uncommitted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import fssan

ENTRY_BYTES = 4


class TxLogFullError(Exception):
    pass


class TxLog:
    """Commit-ordered set of committed transaction ids."""

    def __init__(self, capacity_bytes: int = 2 << 20) -> None:
        self.capacity_entries = capacity_bytes // ENTRY_BYTES
        self._order: List[int] = []
        #: txid -> rank in commit order; :meth:`replace` swaps in a new
        #: dict, so read it afresh rather than keep a reference
        self.positions: Dict[int, int] = {}

    def commit(self, txid: int) -> None:
        if len(self._order) >= self.capacity_entries:
            raise TxLogFullError("TxLog full; log cleaning must run first")
        if txid in self.positions:
            return  # idempotent commit
        self.positions[txid] = len(self._order)
        self._order.append(txid)
        if fssan.ENABLED:
            fssan.check_txlog_entry(self._order, self.positions, txid)

    def is_committed(self, txid: int) -> bool:
        return txid in self.positions

    def committed_in_order(self) -> List[int]:
        return list(self._order)

    def replace(self, txids: List[int]) -> None:
        """Atomically swap the log's contents for ``txids`` (in order).

        Log cleaning prunes the TxLog by rebuilding it with only the
        transactions that still have live data entries.  The firmware
        builds the pruned log in a shadow buffer and flips to it in one
        step, so a crash during pruning can never observe a
        half-truncated TxLog (clear-then-recommit would).
        """
        if len(txids) > self.capacity_entries:
            raise TxLogFullError("pruned TxLog exceeds capacity")
        order = list(txids)
        positions = {t: i for i, t in enumerate(order)}
        if len(positions) != len(order):
            raise ValueError("duplicate txid in replacement")
        self._order = order
        self.positions = positions

    def __len__(self) -> int:
        return len(self._order)

    def clear(self) -> None:
        self._order.clear()
        self.positions.clear()
