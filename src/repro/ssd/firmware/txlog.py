"""The firmware transaction log (paper §4.3, Fig 4).

A small (2 MB) region of SSD DRAM holding 4 B commit entries in commit
order.  ``COMMIT(TxID)`` appends an entry; log cleaning flushes committed
updates in write order and then prunes the TxLog to the transactions
that still have entries in the write log; recovery treats any TxID
absent from the TxLog as uncommitted.  A full TxLog is a cleaning
trigger (:meth:`ByteFSFirmware.commit`), never a refused commit.
"""

from __future__ import annotations

from typing import Dict, List

ENTRY_BYTES = 4


class TxLog:
    """Committed transaction ids, in commit order."""

    def __init__(self, capacity_bytes: int = 2 << 20) -> None:
        self.capacity_entries = capacity_bytes // ENTRY_BYTES
        #: txid -> rank in commit order, in insertion (commit) order;
        #: :meth:`replace` swaps in a new dict, so read it afresh rather
        #: than keep a reference
        self.positions: Dict[int, int] = {}

    def commit(self, txid: int) -> None:
        positions = self.positions
        positions.setdefault(txid, len(positions))  # idempotent commit

    def is_committed(self, txid: int) -> bool:
        return txid in self.positions

    def replace(self, txids: List[int]) -> None:
        """Atomically swap the log's contents for ``txids`` (in order).

        Log cleaning prunes the TxLog by rebuilding it with only the
        transactions that still have entries in the write log.  The
        firmware builds the pruned log in a shadow buffer and flips to it
        in one step, so a crash during pruning can never observe a
        half-truncated TxLog (clear-then-recommit would).
        """
        self.positions = {t: i for i, t in enumerate(txids)}

    def __len__(self) -> int:
        return len(self.positions)

    def clear(self) -> None:
        self.positions.clear()
