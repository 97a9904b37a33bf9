"""Subprocess body of the kill-and-resume tests (tests/crash.py).

Usage: python _session_child.py JOURNAL OUT CALL

CALL is JSON, ``{"scenario": ..., "knobs": {...}, "op": ...}``: one
``diagnose()`` (or, with ``"op": "monitor"``, one ``monitor()``) of a
Session that resumes JOURNAL if it exists.  OUT gets the canonical
report and the resilience section (the records and the summary).
"""

import json
import sys

from repro.api import Session


def main() -> int:
    journal, out, call = sys.argv[1:4]
    call = json.loads(call)
    with Session(call["scenario"], journal=journal, resume=True,
                 **call.get("knobs", {})) as session:
        if call.get("op") == "monitor":
            monitor = session.monitor()
            answer = {"records": monitor.records,
                      "summary": monitor.summary().to_dict()}
        else:
            report = session.diagnose()
            answer = {"canonical": report.canonical_json(),
                      "resilience": report.resilience}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(answer, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
