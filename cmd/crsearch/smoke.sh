#!/bin/sh
# End-to-end smoke test of crgen and crsearch: generate a small data
# directory, then check that the one-shot, paged and full-scan answers
# agree, that the serial, ranged (-workers) and cached pair joins agree,
# and that misused and removed flags are refused. Everything lives in a temporary
# directory that is removed on exit. Run from the repository root:
#
#	sh cmd/crsearch/smoke.sh    (or: make cli-smoke)
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
	echo "cli-smoke: $*" >&2
	exit 1
}
search() { "$tmp/bin/crsearch" -data "$tmp/data" "$@"; }
# ranked keeps the numbered result lines of a run (drops timing lines).
ranked() { grep -E '^ *[0-9]+\. ' "$1" || true; }

"$GO" build -o "$tmp/bin/" ./cmd/crgen ./cmd/crsearch
"$tmp/bin/crgen" -out "$tmp/data" -scale small >/dev/null

rds="-corpus RADIO -type rds -ids 120,471"
sds="-corpus PATIENT -type sds -doc 7"

search $rds -k 5 >"$tmp/rds"
search $sds -k 5 >"$tmp/sds"
for q in rds sds; do
	n=$(ranked "$tmp/$q" | wc -l)
	[ "$n" -eq 5 ] || fail "$q -k 5 printed $n ranked lines, want 5"
done

search $rds -k 5 -page 2 >"$tmp/paged"
ranked "$tmp/rds" >"$tmp/rds.ranked"
ranked "$tmp/paged" >"$tmp/paged.ranked"
cmp -s "$tmp/rds.ranked" "$tmp/paged.ranked" ||
	fail "-k 5 -page 2 ranks differently from the one-shot -k 5"

for q in "$rds" "$sds"; do
	search $q -k 5 -baseline >"$tmp/base"
	grep -q '^baseline agrees with kNDS\.$' "$tmp/base" || fail "-baseline disagrees on $q"
done

search -corpus PATIENT -pairs -k 5 >"$tmp/pairs"
ranked "$tmp/pairs" >"$tmp/pairs.ranked"
[ -s "$tmp/pairs.ranked" ] || fail "-pairs printed no pairs"
for variant in "-workers 3" "-cache-mb 64"; do
	search -corpus PATIENT -pairs -k 5 $variant >"$tmp/pairs2"
	ranked "$tmp/pairs2" >"$tmp/pairs2.ranked"
	cmp -s "$tmp/pairs.ranked" "$tmp/pairs2.ranked" ||
		fail "-pairs $variant ranks differently from the serial -pairs"
done

# -k, -page and -workers are checked at parse time; -shards and
# -placement are gone (RDS/SDS shard only through crserve
# -node/-coordinator).
for bad in "-k 0" "-page -1" "-workers -1" "-shards 2" "-placement round-robin"; do
	if search $rds $bad >/dev/null 2>"$tmp/err"; then
		fail "an RDS query with $bad was accepted"
	fi
done
search $rds -workers -1 >/dev/null 2>"$tmp/err" || true
grep -q -- '-workers must be >= 0' "$tmp/err" ||
	fail "-workers -1 is not refused at parse time"

echo "cli-smoke: ok"
