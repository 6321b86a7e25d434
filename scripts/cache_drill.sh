#!/usr/bin/env sh
# Live-fire drill of the result cache (docs/CACHING.md) against the shipped
# psa_cli binary:
#
#   1. a cold batch with --cache-dir, then a warm re-run — both
#      byte-identical to a local uncached run, with cache entries on disk;
#   5. one flipped byte in every cache entry — the next run quarantines
#      each entry it reads, recomputes, and reproduces the identical report;
#   7. --cache-max-bytes bounds the cache — the post-batch sweep evicts down
#      to the cap, journaling every decision, without changing the report;
#   8. the function-granular tier — a one-line edit in a four-function chain
#      is served from per-function entries, and new entries on disk prove
#      the promotion to the edited unit's key;
#   9. a cold fill of the whole corpus stores under 1 MiB — entries carry
#      each unit's exit state, not every statement's state.
#
# Scenario numbers are stable across revisions of this drill, so a failure
# message names the same property it always did.
#
#   $ scripts/cache_drill.sh [BUILD_DIR]     # default: build
#
# The same properties are unit-tested in tests/cache/; this script drives the
# real binary end to end, the way an operator would, and is what the CI
# cache-drill job executes.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/examples/psa_cli"

if [ ! -x "$CLI" ]; then
  echo "cache_drill: $CLI not found or not executable; build first" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "cache_drill: FAIL: $1" >&2
  exit 1
}

CACHE="$WORK/cache"

cat >"$WORK/clean.c" <<'EOF'
struct node { struct node *next; int v; };
void main() {
  struct node *p;
  p = malloc(sizeof(struct node));
  p->next = NULL;
  free(p);
  p = NULL;
}
EOF
cat >"$WORK/leaky.c" <<'EOF'
struct node { struct node *next; int v; };
void main() {
  struct node *p;
  p = malloc(sizeof(struct node));
  p->next = NULL;
}
EOF

FILES="$WORK/clean.c $WORK/leaky.c"

# One cached batch over $FILES (extra flags in "$@"): the report lands in
# run.txt and the exit code in $status, for the caller to check.
cached_run() {
  status=0
  $CLI $FILES --isolate --check --cache-dir="$CACHE" "$@" \
    >"$WORK/run.txt" 2>/dev/null || status=$?
}

echo "== reference: local batch (no cache)"
status=0
$CLI $FILES --isolate --check >"$WORK/local.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || fail "local reference exited $status, want 1 (findings)"

echo "== scenario 1: cold + warm cached runs, byte-identical"
cached_run
[ "$status" -eq 1 ] || fail "cold cached run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "cold cached report differs from local report"
[ -n "$(find "$CACHE" -maxdepth 1 -name '*.entry' 2>/dev/null)" ] ||
  fail "no cache entries stored"
cached_run
[ "$status" -eq 1 ] || fail "warm cached run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "warm (cached) report differs from local report"

echo "== scenario 5: corrupt cache entries self-heal with an identical report"
# Flip one byte in the middle of EVERY entry. Entries are validated by the
# lookup that reads them (the batch-start recovery reads none), and a warm
# run reads only the entries its units need, so corrupting one arbitrary
# entry would test whichever entry the directory listed first. With every entry rotten,
# each unit's unit-tier and function-tier lookups both hit corruption: the
# run must quarantine every entry, recompute, and store fresh ones.
flipped=0
: >"$WORK/rotten.sums"
for entry in "$CACHE"/*.entry; do
  [ -f "$entry" ] || continue
  size=$(wc -c <"$entry")
  printf '\377' | dd of="$entry" bs=1 seek=$((size / 2)) conv=notrunc \
    2>/dev/null
  cksum <"$entry" >>"$WORK/rotten.sums"
  flipped=$((flipped + 1))
done
[ "$flipped" -gt 0 ] || fail "no cache entry to corrupt"
cached_run
[ "$status" -eq 1 ] || fail "self-heal run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "self-healed report differs from local report"
quarantined=$(find "$CACHE/quarantine" -type f 2>/dev/null | wc -l)
[ "$quarantined" -eq "$flipped" ] ||
  fail "$quarantined of $flipped corrupt entries were quarantined"
for entry in "$CACHE"/*.entry; do
  [ -f "$entry" ] || fail "no entry was stored back after the self-heal"
  if grep -qxF "$(cksum <"$entry")" "$WORK/rotten.sums"; then
    fail "corrupt entry $(basename "$entry") is still in the cache"
  fi
done
[ -z "$(find "$CACHE" -maxdepth 1 -name '*.tmp.*' 2>/dev/null)" ] ||
  fail "stray .tmp files left in the cache directory"

echo "== scenario 7: --cache-max-bytes bounds the cache without changing output"
[ -n "$(find "$CACHE" -maxdepth 1 -name '*.entry' 2>/dev/null)" ] ||
  fail "expected warm cache entries before the sweep scenario"
cached_run --cache-max-bytes=1
[ "$status" -eq 1 ] || fail "bounded-cache run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "bounded-cache report differs from local report"
# A 1-byte cap cannot hold any entry: the post-batch sweep must have
# evicted everything, journaling its decisions.
[ -z "$(find "$CACHE" -maxdepth 1 -name '*.entry' 2>/dev/null)" ] ||
  fail "entries left above the byte cap"
grep -q "sweep end" "$CACHE/sweep.journal" ||
  fail "sweep journal missing or unsealed"

echo "== scenario 8: a one-line edit is served from the function tier"
cat >"$WORK/chain.c" <<'EOF'
struct node { struct node *next; int v; };
void f3(struct node *a) {
  a->next = NULL;
}
void f2(struct node *a) {
  f3(a);
  a->next = NULL;
}
void f1(struct node *a) {
  f2(a);
}
void main() {
  struct node *p;
  p = malloc(sizeof(struct node));
  f1(p);
  p->next = NULL;
}
EOF
FILES="$WORK/chain.c"
status=0
$CLI $FILES --isolate --check >"$WORK/local.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || fail "chain reference exited $status, want 1"
cached_run
[ "$status" -eq 1 ] || fail "chain cold run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "chain cold cached report differs from local report"
entries=$(find "$CACHE" -maxdepth 1 -name '*.entry' | wc -l)
# One-line in-place edit of the leaf (same line count): the next run misses
# the unit key, but the function tier recomputes only f3 and serves the
# rest (docs/CACHING.md), then promotes the payload to the new unit key —
# visible as extra entries on disk.
sed '3s/.*/  a->next = a;/' "$WORK/chain.c" >"$WORK/chain.c.tmp" &&
  mv "$WORK/chain.c.tmp" "$WORK/chain.c"
status=0
$CLI $FILES --isolate --check >"$WORK/local.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || fail "edited chain reference exited $status, want 1"
cached_run --metrics-out="$WORK/edit.jsonl"
[ "$status" -eq 1 ] || fail "edited chain run exited $status, want 1"
cmp -s "$WORK/run.txt" "$WORK/local.txt" ||
  fail "warm function-tier report differs from local report"
grep -q '"func_cache_hits":[1-9]' "$WORK/edit.jsonl" ||
  fail "edited run served no function from the function tier"
after=$(find "$CACHE" -maxdepth 1 -name '*.entry' | wc -l)
[ "$after" -gt "$entries" ] ||
  fail "edited run stored no new entries (want promotion + a new summary)"

echo "== scenario 9: a cold corpus fill stays under 1 MiB"
# A unit payload carries the exit state, not every statement's state
# (src/driver/payload.hpp), so the checked corpus fills a few hundred KB;
# with per-statement states it took about 21 MB.
CORPUS_CACHE="$WORK/corpus-cache"
status=0
$CLI --corpus --check --isolate --jobs=2 --cache-dir="$CORPUS_CACHE" \
  >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || fail "cold corpus fill exited $status, want 1"
stored=$(find "$CORPUS_CACHE" -type f -exec cat {} + | wc -c)
[ "$stored" -gt 0 ] || fail "cold corpus fill stored nothing"
[ "$stored" -lt 1048576 ] ||
  fail "cold corpus fill stored $stored bytes, want under 1 MiB"

echo "cache_drill: all scenarios passed"
