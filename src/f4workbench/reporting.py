"""The one check record and report shared by every verification layer.

A check record is the JSON dict itself:
{"id", "status", "seconds"[, "witness"]}, with a witness only on failure.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Iterable, Optional, Tuple

try:
    import resource
except ImportError:         # not on every platform (Windows)
    resource = None


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MB (2^20 bytes), or None
    without the resource module.  ru_maxrss counts KiB on Linux and bytes
    on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


class Report:
    """The check records of one run, in order, each charged its time.

    The clock starts when the report is made.  Work done before the first
    check (imports, the model and its engines) is setup: end_setup() moves
    it into setup_seconds, and run() does so when it starts an empty
    report.  Every record is then charged the time since the previous one.
    """

    def __init__(self, suite: str, seed: Optional[int] = None):
        self.suite = suite
        self.seed = seed
        self.checks: list = []
        self.setup_seconds = 0.0
        self.wall_time: Optional[float] = None   # else measured at as_dict
        self._start = self._mark = time.perf_counter()

    def end_setup(self) -> None:
        self._mark = time.perf_counter()
        self.setup_seconds = self._mark - self._start

    def check(self, check_id: str, ok, witness: Optional[str] = None) -> bool:
        now = time.perf_counter()
        record = {"id": check_id, "status": "pass" if ok else "fail",
                  "seconds": round(now - self._mark, 6)}
        if not ok:
            record["witness"] = witness or "condition failed"
        self.checks.append(record)
        self._mark = now
        return bool(ok)

    def equal(self, check_id: str, got, expected) -> bool:
        ok = got == expected
        return self.check(check_id, ok,
                          None if ok else "got %r, expected %r" % (got, expected))

    def vanishes(self, check_id: str, residual: dict,
                 serialize: Callable[[dict], list]) -> bool:
        """Check that residual is zero.  A nonzero residual is witnessed by
        its monomial count and its first three monomials, as serialize
        writes them."""
        witness = None
        if residual:
            witness = "%d residual monomials, first %s" % (
                len(residual), json.dumps(serialize(residual)[:3]))
        return self.check(check_id, not residual, witness)

    def run(self, checks: Iterable[Tuple[str, Callable]]) -> "Report":
        """Run (id, fn) pairs in order; fn returns (ok, witness).

        Later checks may read what earlier ones built.  An exception is a
        failed check whose witness names it.
        """
        if not self.checks:
            self.end_setup()
        for check_id, fn in checks:
            try:
                ok, witness = fn()
            except Exception as exc:
                ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
            self.check(check_id, ok, witness)
        return self

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    passed = ok   # read by perfbench on membership reports

    @property
    def details(self) -> list:
        """"id: witness" for each failed check."""
        return ["%s: %s" % (c["id"], c["witness"])
                for c in self.checks if c["status"] != "pass"]

    def as_dict(self) -> dict:
        passes = sum(1 for c in self.checks if c["status"] == "pass")
        wall = self.wall_time
        if wall is None:
            wall = time.perf_counter() - self._start
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "checks": self.checks,
            "summary": {"pass": passes, "fail": len(self.checks) - passes},
            "setup_seconds": round(self.setup_seconds, 6),
            "wall_time_seconds": round(wall, 3),
        }
        peak = peak_rss_mb()
        if peak is not None:
            out["peak_rss_mb"] = round(peak, 1)
        return out
