"""Structured pass/fail reports shared by the verification machinery."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    check: str
    parameters: dict
    expected: str
    got: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "expected": self.expected,
            "got": self.got,
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True)

    def __bool__(self) -> bool:
        return self.passed


def first_failure(check: str, params: dict, expected: str, details: list, ok: str) -> CheckReport:
    """A report that passes when `details` is empty, else shows the first of at most five."""
    got = details[0] if details else ok
    return CheckReport(check, params, expected, got, not details, details[:5])
