"""Check records shared by the verification batteries and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CheckResult:
    """One verified identity: a stable id, a status, a witness on failure,
    and the seconds spent computing it."""

    check_id: str
    ok: bool
    witness: Optional[str] = None
    seconds: float = 0.0

    def as_dict(self) -> dict:
        d = {"id": self.check_id, "status": "pass" if self.ok else "fail",
             "seconds": round(self.seconds, 6)}
        if not self.ok:
            d["witness"] = self.witness or "unspecified"
        return d


@dataclass
class Battery:
    """Accumulates check results for one verification family.

    A check's argument is computed just before check() is called, so each
    result is charged the time since the previous result, or since the
    battery was created.
    """

    name: str
    results: list = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False,
                         repr=False)

    def check(self, check_id: str, ok: bool, witness: str = None) -> bool:
        now = time.perf_counter()
        self.results.append(CheckResult(check_id, bool(ok), witness,
                                        now - self._mark))
        self._mark = now
        return bool(ok)

    def equal(self, check_id: str, got, expected) -> bool:
        ok = got == expected
        return self.check(check_id, ok,
                          None if ok else "got %r, expected %r" % (got, expected))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "checks": [r.as_dict() for r in self.results],
            "summary": {
                "pass": sum(1 for r in self.results if r.ok),
                "fail": sum(1 for r in self.results if not r.ok),
            },
        }
