"""Gates on how a ``gapfill impute`` run in a fresh process ends.

Each check reads the exit code and the files that a CI step's run wrote,
prints one line ("ok: ..." or the problems found) and exits 1 when a gate
fails:

    closed CODE STDERR
        a run whose stdout was closed early (piped into ``head -n 1``) exited
        3 with one stderr line, and no traceback or "Exception ignored" from
        the interpreter's exit flush;
    overflow CODE STDERR REPORT
        a run, under ``-W error::RuntimeWarning``, of a gap that cannot be
        certified (its anchor offset has a norm that overflows, or its fill
        misses the anchor in the data's scale) exited 0 with an empty
        stderr, and its report leaves the first gap uncertified.

The runs are made as CI makes them, for example:

    PYTHONPATH=src python -m gapfill.cli impute long.csv 2> closed.err | head -n 1
    python3 scripts/check_cli_exits.py closed "${PIPESTATUS[0]}" closed.err
"""

from __future__ import annotations

import json
import sys


def closed(code: str, stderr_path: str) -> tuple[list, str]:
    with open(stderr_path) as handle:
        err = handle.read()
    problems = [f"stderr has {word!r}" for word in ("Traceback", "Exception ignored") if word in err]
    if len(err.splitlines()) > 1:
        problems.append(f"stderr has {len(err.splitlines())} lines, expected one")
    if code != "3":
        problems.append(f"exited {code}, expected 3")
    return problems, f"ok: exit 3, {err.strip()!r}"


def overflow(code: str, stderr_path: str, report_path: str) -> tuple[list, str]:
    problems = [] if code == "0" else [f"exited {code}, expected 0"]
    with open(stderr_path) as handle:
        err = handle.read()
    if err:
        problems.append(f"stderr is not empty: {err!r}")
    if code == "0":
        with open(report_path) as handle:
            if json.load(handle)["gaps"][0]["oracle"]["certified"] is not False:
                problems.append("the gap is certified")
    return problems, "ok: exit 0, empty stderr, gap uncertified"


CHECKS = {"closed": closed, "overflow": overflow}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    problems, ok = CHECKS[argv[0]](*argv[1:])
    print("; ".join(problems) or ok)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
