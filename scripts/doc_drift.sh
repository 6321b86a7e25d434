#!/usr/bin/env bash
# Doc-drift gate: documentation that mirrors machine-readable surfaces must
# actually mirror them.
#
#   1. Counter vocabulary — `psa_cli --list-counters` (the metrics registry,
#      one stable name per line) vs the counter ↔ paper-concept map in
#      docs/OBSERVABILITY.md. Every registry counter must be documented
#      (exactly, via a `a/b` or `a`, `b` row, or via a `prefix_*` wildcard
#      row) and every concrete documented counter must exist in the
#      registry.
#   2. CLI reference — the fenced `--help` block in README.md vs the
#      binary's real `--help` output, byte for byte (the same diff
#      tests/driver/cli_integration_test.cpp performs, enforced here so the
#      gate runs even when the test suite is skipped).
#   3. Dangling references — in README.md, DESIGN.md, EXPERIMENTS.md and
#      docs/*.md, every relative Markdown link target (resolved against the
#      linking file) and every `docs/NAME.md` / `scripts/NAME.sh` path
#      (resolved against the repository root) must name an existing file,
#      so a deleted document or script cannot stay cited.
#
# Usage: scripts/doc_drift.sh [BUILD_DIR]   (default: build)
# Exit 0 when the docs match reality; non-zero with a diff otherwise.
set -u

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
CLI="$BUILD_DIR/examples/psa_cli"
[[ -x "$CLI" ]] || CLI="$BUILD_DIR/psa_cli"
if [[ ! -x "$CLI" ]]; then
  echo "doc_drift: psa_cli not found under $BUILD_DIR" >&2
  exit 1
fi

fail=0

# --- 1. counter vocabulary ---------------------------------------------------
"$CLI" --list-counters > /tmp/doc_drift_counters.$$ || {
  echo "doc_drift: psa_cli --list-counters failed" >&2
  exit 1
}
python3 - "$REPO_DIR/docs/OBSERVABILITY.md" /tmp/doc_drift_counters.$$ <<'EOF'
import fnmatch
import re
import sys

doc_path, counters_path = sys.argv[1], sys.argv[2]
with open(counters_path) as f:
    registry = [line.strip() for line in f if line.strip()]

# Pull every `...`-quoted token out of the FIRST cell of each row of the
# counter map table. Documented row forms:
#   | `name` | ...                       one counter
#   | `a`, `b` | ...                     two counters, one shared concept
#   | `a` / `b` | ...                    ditto
#   | `prefix_hits/misses` | ...         shorthand: prefix_hits, prefix_misses
#   | `governor_*` | ...                 wildcard family
#   | `phase_*_wall_ns` / `phase_*_cpu_ns` | ...   wildcard pair
exact, patterns = set(), set()
in_table = False
with open(doc_path) as f:
    for line in f:
        if re.match(r"\|\s*counter\s*\|", line):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                in_table = False
                continue
            cell = line.split("|")[1]
            for token in re.findall(r"`([^`]+)`", cell):
                # `a/b` shorthand shares a prefix: expand the tail.
                m = re.fullmatch(r"(\w+_)(\w+)/(\w+)", token)
                names = [m.group(1) + m.group(2), m.group(1) + m.group(3)] \
                    if m else [token]
                for name in names:
                    (patterns if "*" in name else exact).add(name)

if not exact and not patterns:
    print("doc_drift: found no counter-map table in docs/OBSERVABILITY.md",
          file=sys.stderr)
    sys.exit(1)

status = 0
undocumented = [
    c for c in registry
    if c not in exact and not any(fnmatch.fnmatch(c, p) for p in patterns)
]
if undocumented:
    status = 1
    print("doc_drift: counters in the registry but missing from "
          "docs/OBSERVABILITY.md's counter map:", file=sys.stderr)
    for c in undocumented:
        print(f"  {c}", file=sys.stderr)

ghosts = sorted(exact - set(registry))
if ghosts:
    status = 1
    print("doc_drift: counters documented in docs/OBSERVABILITY.md but "
          "absent from the registry (stale rows?):", file=sys.stderr)
    for c in ghosts:
        print(f"  {c}", file=sys.stderr)

dead_patterns = sorted(
    p for p in patterns if not any(fnmatch.fnmatch(c, p) for c in registry))
if dead_patterns:
    status = 1
    print("doc_drift: wildcard rows matching no registry counter:",
          file=sys.stderr)
    for p in dead_patterns:
        print(f"  {p}", file=sys.stderr)

if status == 0:
    print(f"doc_drift: counter map ok "
          f"({len(registry)} counters, {len(patterns)} wildcard rows)")
sys.exit(status)
EOF
[[ $? -ne 0 ]] && fail=1
rm -f /tmp/doc_drift_counters.$$

# --- 2. README --help block --------------------------------------------------
"$CLI" --help > /tmp/doc_drift_help.$$ || {
  echo "doc_drift: psa_cli --help failed" >&2
  exit 1
}
# The fenced code block that starts with the usage line, up to its fence.
awk '/^usage: psa_cli/{found=1} /^```$/{if (found) exit} found' \
    "$REPO_DIR/README.md" > /tmp/doc_drift_readme.$$
if ! diff -u /tmp/doc_drift_readme.$$ /tmp/doc_drift_help.$$ >/dev/null; then
  echo "doc_drift: README.md --help block differs from the binary:" >&2
  diff -u /tmp/doc_drift_readme.$$ /tmp/doc_drift_help.$$ >&2
  fail=1
else
  echo "doc_drift: README --help block ok"
fi
rm -f /tmp/doc_drift_help.$$ /tmp/doc_drift_readme.$$

# --- 3. dangling references -------------------------------------------------
python3 - "$REPO_DIR" <<'EOF'
import glob
import os
import re
import sys

repo = sys.argv[1]
docs = [os.path.join(repo, name)
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
docs += sorted(glob.glob(os.path.join(repo, "docs", "*.md")))

link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
path = re.compile(
    r"(?<![\w/.-])(docs/[\w.-]+\.md|scripts/[\w.-]+\.sh)(?![\w/-])")

checked, dangling = 0, []
for doc in docs:
    with open(doc) as f:
        text = f.read()
    name = os.path.relpath(doc, repo)
    # Links only count in prose: inside fenced code, `[x](y)` is code.
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    for m in link.finditer(prose):
        target = m.group(1)
        # URLs and in-page anchors are not files.
        if re.match(r"[A-Za-z][\w+.-]*:", target) or target.startswith("#"):
            continue
        target = target.split("#", 1)[0]
        checked += 1
        if not os.path.exists(os.path.join(os.path.dirname(doc), target)):
            dangling.append((name, target))
    for m in path.finditer(text):
        checked += 1
        if not os.path.exists(os.path.join(repo, m.group(1))):
            dangling.append((name, m.group(1)))

if dangling:
    print("doc_drift: references to files that do not exist:",
          file=sys.stderr)
    for name, target in dangling:
        print(f"  {name}: {target}", file=sys.stderr)
    sys.exit(1)
print(f"doc_drift: references ok ({checked} resolved)")
EOF
[[ $? -ne 0 ]] && fail=1

if [[ $fail -ne 0 ]]; then
  echo "doc_drift: FAILED" >&2
  exit 1
fi
echo "doc_drift: docs match reality"
