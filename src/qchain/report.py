"""Check results.

Every verification routine returns CheckResult entries rather than booleans,
so a failure carries the exact (or high-precision) residual that witnessed
it.  FalsificationError is reserved for identities whose failure would refute
the finite-size statements this package checks; callers report it as a
finding instead of swallowing it.
"""

from __future__ import annotations

from dataclasses import dataclass


class FalsificationError(RuntimeError):
    """An exact identity required by the verified statements failed to hold."""


@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    residual: str = "0"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "params": dict(self.params),
            "pass": self.passed,
            "residual": self.residual,
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = " ".join(f"{k}={v}" for k, v in self.params.items())
        tail = f" [{self.detail}]" if self.detail and not self.passed else ""
        return f"{status} {self.name} {where}{tail}"
