"""Line coverage of ``src/`` under the tier-1 tests, with the standard library only.

    python tests/line_coverage.py [pytest arguments]

Needs Python 3.12 or later, for ``sys.monitoring``.  Run it from anywhere:
it runs pytest in the repository root, in this process, with a LINE
callback on the code of ``src/`` that disables itself at each line after
its first event, so the run costs little more than the tests.  The
executable lines are those that the compiled modules map instructions to.
Lines run only in the subprocess tests are not seen.  It prints each line
that no test reached outside ``ALLOWED`` and exits 1 if there is one, or
with pytest's code if the tests fail.  pytest does not collect this file,
since its name does not start with ``test_``.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (module, the line above, the line), both without indentation: lines that
# run only in a child process
ALLOWED = {
    # the console script's entry point: the subprocess tests run it
    ("cli.py", "if argv is None:", "argv = sys.argv[1:]"),
    ("cli.py", "def main() -> None:", "raise SystemExit(run())"),
    ("cli.py", 'if __name__ == "__main__":', "main()"),
}


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(args: list[str]) -> int:
    mon = sys.monitoring
    reached: set[tuple[str, int]] = set()

    def on_line(code, line):
        if code.co_filename.startswith(str(SRC)):
            reached.add((code.co_filename, line))
        return mon.DISABLE

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    mon.use_tool_id(mon.COVERAGE_ID, "line_coverage")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        text = ["", *(line.strip() for line in path.read_text().splitlines())]
        for line in sorted(executable_lines(path) - {0}):
            seen = (str(path), line) in reached
            if not seen and (path.name, text[line - 1], text[line]) not in ALLOWED:
                missed.append(f"{path.relative_to(SRC)}:{line}: {text[line]}")
    print("\n".join(missed) or "every line of src/ was reached")
    return code or bool(missed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
