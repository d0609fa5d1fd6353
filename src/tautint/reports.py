"""Structured pass/fail reports shared by the verification machinery."""

from __future__ import annotations

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "check parameters expected got passed details")):
    __slots__ = ()

    def __new__(cls, check: str, parameters: dict, expected: str, got: str, passed: bool, details=None):
        details = [] if details is None else details  # a new list per report, never a shared one
        return super().__new__(cls, check, parameters, expected, got, passed, details)

    def to_json(self) -> str:
        import json  # only here, so that importing tautint does not load json

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
