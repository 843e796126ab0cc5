#!/usr/bin/env python3
"""Check that every FVC_* knob has one reader and one table row.

Over the C++ sources under src/, bench/, examples/ and tests/:
  1. only src/util/knobs.cc may call getenv on an FVC_* name;
  2. the FVC_* names passed to the util/knobs.hh readers are exactly
     the names in EXPERIMENTS.md's knob table (tests/knobs_test.cc,
     which tests the readers under a made-up name, is skipped).
And over the prose of DESIGN.md, README.md and the verify skill:
  3. every FVC_* name is one of those knobs or one a bench/*.sh
     script reads, so no document goes on describing a deleted knob.

Usage: knob_check.py [--root DIR]  (a self-test runs first)
"""

import argparse
import pathlib
import re
import sys
import tempfile

READER_FILE = "src/util/knobs.cc"
READER_TEST = "tests/knobs_test.cc"
TABLE_FILE = "EXPERIMENTS.md"
GETENV = re.compile(r'getenv\s*\(\s*"FVC_')
READER_CALL = re.compile(
    r'\bknob(?:Flag|Choice|Count|Text|StoreMode)\s*(?:<[^<>()]*>)?'
    r'\s*\(\s*"(FVC_[A-Z0-9_]+)"')
TABLE_ROW = re.compile(r'^\|\s*`(FVC_[A-Z0-9_]+)`\s*\|', re.M)
PROSE_FILES = ("DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md")
# A whole name: FVC_* and other wildcards are not names.
PROSE_NAME = re.compile(r'\bFVC_[A-Z0-9_]*[A-Z0-9]\b(?!\*)')
SCRIPT_READ = re.compile(r'\$\{(FVC_[A-Z0-9_]+)')


def check(root):
    """The problems in the tree at @p root, and the knobs read."""
    problems, read = [], {}
    for top in ("src", "bench", "examples", "tests"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cc", ".hh", ".cpp", ".h"):
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(errors="replace")
            for m in GETENV.finditer(text) if rel != READER_FILE else []:
                problems.append(
                    f"{rel}:{text.count(chr(10), 0, m.start()) + 1}: "
                    f"getenv on an FVC_* name outside {READER_FILE}")
            for m in READER_CALL.finditer(text) if rel != READER_TEST else []:
                read.setdefault(m.group(1), rel)
    table = root / TABLE_FILE
    rows = TABLE_ROW.findall(table.read_text() if table.is_file() else "")
    for name in sorted({n for n in rows if rows.count(n) > 1}):
        problems.append(f"{TABLE_FILE}: {name} has more than one row")
    for name in sorted(set(read) - set(rows)):
        problems.append(f"{read[name]}: reads {name}, which has no row "
                        f"in {TABLE_FILE}'s knob table")
    for name in sorted(set(rows) - set(read)):
        problems.append(f"{TABLE_FILE}: lists {name}, which nothing reads")
    known = set(read)
    for path in sorted((root / "bench").glob("*.sh")):
        known.update(SCRIPT_READ.findall(path.read_text(errors="replace")))
    for rel in PROSE_FILES:
        doc = root / rel
        text = doc.read_text() if doc.is_file() else ""
        for m in PROSE_NAME.finditer(text):
            if m.group(0) not in known:
                problems.append(
                    f"{rel}:{text.count(chr(10), 0, m.start()) + 1}: "
                    f"names {m.group(0)}, which nothing reads")
    return problems, read


def self_test():
    """A clean tree passes; each planted defect is named."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        files = {
            READER_FILE: "auto v = std::getenv(name);\n",
            READER_TEST: 'knobFlag("FVC_MADE_UP");\n',
            "src/a.cc": 'knobCount(\n    "FVC_A", 1, 1, 9);\n'
                        'knobChoice<Mode>("FVC_B", {}, Mode::X);\n',
            TABLE_FILE: "| `FVC_A` | knobCount |\n| `FVC_B` | knobChoice |\n",
            "bench/r.sh": 'n="${FVC_SCRIPT:-1}"\n',
            "DESIGN.md": "Every `FVC_*` knob; `FVC_A=2` and `FVC_B`.\n",
            "README.md": "`FVC_SCRIPT=2` is read by a script.\n",
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        assert check(root) == ([], {"FVC_A": "src/a.cc",
                                    "FVC_B": "src/a.cc"}), check(root)
        plants = [
            ("src/b.cc", 'int x;\nauto v = std::getenv("FVC_X");\n',
             "src/b.cc:2: getenv"),
            ("bench/m.cc", 'knobFlag("FVC_UNDOC");\n', "reads FVC_UNDOC"),
            (TABLE_FILE, files[TABLE_FILE] + "| `FVC_GONE` | knobFlag |\n",
             "lists FVC_GONE"),
            ("DESIGN.md", files["DESIGN.md"] + "\n`FVC_DELETED=4` splits.\n",
             "DESIGN.md:3: names FVC_DELETED"),
        ]
        for rel, text, want in plants:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
            problems, _ = check(root)
            assert len(problems) == 1 and want in problems[0], problems
            (root / rel).write_text(files.get(rel, ""))
    print("knob_check self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    root = parser.parse_args().root
    self_test()
    problems, read = check(root)
    print("\n".join(problems + [
        f"knob_check: {len(problems)} problem(s)" if problems else
        f"knob_check: ok ({len(read)} knobs, each read through "
        f"{READER_FILE} and listed in {TABLE_FILE}; the prose names "
        f"no other)"]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
