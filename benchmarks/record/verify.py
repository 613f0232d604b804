"""Answer checking against the generator's own model of the live records.

The harness keeps what every op returned and verifies it *outside* the
timed intervals.  A :class:`Verifier` owns the model — uid -> record, as
the generator believes the store to be — and counts one failure per op
that errored, timed out, returned a record it should not have, missed one
it should have, or did more I/O than the paper's bound allows.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Optional

from repro.engine import BOUND_SLACK, BOUND_SLACK_PAGES


class Verifier:
    def __init__(self, model: Dict[int, Any], *, oracle_every: int) -> None:
        #: uid -> record: the live set, advanced by acknowledged writes
        self.model = model
        self.oracle_every = max(1, oracle_every)
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self._reads = 0

    def _fail(self, why: str) -> bool:
        self.failed += 1
        self.reasons[why] += 1
        return False

    def read(self, q: Any, outcome: Any, floating: Optional[Dict[int, Any]] = None) -> bool:
        """Check one read's answer; ``q`` is the bound query.

        ``floating`` holds the records a concurrent writer inserted or
        deleted meanwhile: each may or may not be visible, so the check is
        exactness on the rest of the model and ``extras ⊆ floating`` (and
        still matching).
        """
        self.attempted += 1
        self._reads += 1
        if isinstance(outcome, BaseException):
            return self._fail(f"error:{type(outcome).__name__}")
        records = outcome.records
        uids = [r.uid for r in records]
        model = self.model
        if floating:
            known = [floating[u] if u in floating else model.get(u) for u in uids]
        else:
            known = list(map(model.get, uids))
        if None in known:
            return self._fail("unknown_record")
        if len(set(uids)) != len(uids):
            return self._fail("duplicate_record")
        # the stored record under that uid has these endpoints, and they match
        if known != records or not all(map(q.matches, records)):
            return self._fail("non_matching_record")
        if self._reads % self.oracle_every == 0:
            # the brute-force oracle: count every live record the query matches
            if floating:
                expected = sum(1 for u, r in model.items() if u not in floating and q.matches(r))
                got = sum(1 for u in uids if u not in floating)
            else:
                expected, got = sum(map(q.matches, model.values())), len(uids)
            if expected != got:
                return self._fail("missing_record")
        bound = outcome.bound
        if bound is not None and outcome.ios > BOUND_SLACK * bound + BOUND_SLACK_PAGES:
            return self._fail("over_bound")
        return True

    def insert(self, outcome: Any) -> bool:
        """``outcome`` is ``(stored_record, ios)`` or the exception raised."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            return self._fail(f"error:{type(outcome).__name__}")
        stored = outcome[0]
        if stored.uid in self.model:
            return self._fail("duplicate_uid")
        self.model[stored.uid] = stored
        return True

    def delete(self, record: Any, outcome: Any) -> bool:
        """``outcome`` is ``(removed, ios)`` or the exception raised."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            return self._fail(f"error:{type(outcome).__name__}")
        if not outcome[0] or self.model.pop(record.uid, None) is None:
            return self._fail("delete_missed")
        return True

    def recovered(self, uids: Iterable[int]) -> bool:
        """After a crash: exactly the acknowledged live set must be back."""
        self.attempted += 1
        found = set(uids)
        lost = len(self.model.keys() - found)
        phantom = len(found - self.model.keys())
        if lost or phantom:
            self.failed += lost + phantom
            self.reasons["lost_after_crash"] += lost
            self.reasons["phantom_after_crash"] += phantom
            return False
        return True
