#!/usr/bin/env bash
# The production-coverage census: which functions of the module does
# neither production nor the tier-1 tests ever enter?
#
#   bash lint/census.sh [DIR]
#
# It builds the three commands, the two examples and the bench harness
# with coverage over every package of the module, runs what production
# runs (every figure at quick scale, the three pktbench subcommands,
# every shipped scenario with its telemetry outputs, the smoke sweep with
# every output flag, the bench runtime_chains workload and both
# examples), runs tier-1 (`go test ./...`) under -coverpkg=./..., and
# merges the two sets of counters with `go tool covdata`. It then lists
# every non-test function outside bench/ that counts 0 and exits 1,
# naming each, when one is not a `func` entry of lint/unexecuted.txt (or
# when a tier-1 test fails).
#
# DIR (default: a fresh temporary directory) keeps the binaries, the run
# outputs, the raw and merged counters, the tier-1 log and the per-block
# dump of the merged counters (DIR/dump.txt: one "Func:" record a
# function, each block's line span, statement count and count). Takes
# about 9 minutes on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(realpath -m "${1:-$(mktemp -d)}")
bin=$out/bin run=$out/run prod=$out/cov/prod tests=$out/cov/tests merged=$out/merged
rm -rf "$out/cov" "$merged" "$run"
mkdir -p "$bin" "$run" "$prod" "$tests" "$merged"

echo "census: building into $bin" >&2
for c in cmd/pktbench cmd/dataplane cmd/sweep examples/quickstart examples/dataplane; do
	go build -cover -covermode=count -coverpkg=./... -o "$bin/${c//\//-}" "./$c"
done
(cd bench && go build -cover -covermode=count -coverpkg=pktpredict/... -o "$bin/bench" .)

echo "census: running production" >&2
(
	export GOCOVERDIR=$prod
	"$bin/cmd-pktbench" -exp all -scale quick
	"$bin/cmd-pktbench" profile -flow MON -scale quick
	"$bin/cmd-pktbench" predict -mix 2xMON,VPN -scale quick
	"$bin/cmd-pktbench" sched -flows 6xMON,6xFW -scale quick
	for f in examples/scenarios/*.click; do
		n=$(basename "$f" .click)
		"$bin/cmd-dataplane" -scenario "$n" -duration 0.02 -telemetry -residuals -trace-out "$run/$n.json"
	done
	"$bin/cmd-sweep" -config examples/sweeps/smoke.sweep -q -json "$run/s.json" -md "$run/s.md" \
		-profile-cache "$run/pc" -trend "$run/t.json" -trend-md "$run/t.md" -trend-svg "$run/svg"
	"$bin/bench" -dir bench -workload runtime_chains -seconds 1 -out "$run/b.json"
	"$bin/examples-quickstart"
	"$bin/examples-dataplane"
) >"$out/production.log" 2>&1

# A failing test still writes its counters: the census goes on, and
# fails at the end.
echo "census: running tier-1 under -coverpkg=./..." >&2
tier1=0
go test -count=1 -cover -covermode=count -coverpkg=./... ./... -args -test.gocoverdir="$tests" >"$out/tests.log" 2>&1 || tier1=$?

go tool covdata merge -i="$prod,$tests" -o="$merged"
go tool covdata debugdump -i="$merged" >"$out/dump.txt"

# One line per non-literal function of the module outside bench/, as
# "<entered 0|1> <source file> <line of its first block> <package name>",
# a function built into several binaries counted once; plus a summary
# line of statements that ran in neither.
awk '
	/^Package path: / { path = $3; keep = path ~ /^pktpredict(\/|$)/ && path !~ /^pktpredict\/bench(\/|$)/ }
	/^Package name: / { pkg = $3 }
	/^Func: / { fn = $2; first = "" }
	/^Srcfile: / { file = $2 }
	/^Literal: / { lit = $2 == "true" }
	keep && /^[0-9]+: L[0-9]+:C[0-9]+ -- / {
		split($2, at, ":"); line = substr(at[1], 2)
		if (first == "") first = line
		key = file ":" first ":" fn
		if (!lit && !(key in entered)) { entered[key] = 0; where[key] = file " " first " " pkg }
		if (!lit && $NF > 0) entered[key] = 1
		blk = file ":" $2 ":" $4
		ns = substr($5, 4) + 0
		if (!(blk in run)) { run[blk] = 0; stmts[blk] = ns }
		if ($NF > 0) run[blk] = 1
	}
	END {
		for (k in entered) print entered[k], where[k]
		for (b in run) { total += stmts[b]; if (!run[b]) zero += stmts[b] }
		printf "# %d of %d statements run in neither\n", zero, total
	}
' "$out/dump.txt" | sort >"$out/functions.txt"

# qualified renders a function declared at or above line $2 of file $1 as
# lint/unexecuted.txt names it: <pkg>.<Func>() or <pkg>.<Type>.<Method>().
qualified() {
	awk -v at="$2" 'NR <= at && /^func / { d = $0 } NR == at { print d; exit }' "$1" |
		sed -E 's/^func \(([^)]*[ *])?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/; t; s/^func ([A-Za-z0-9_]+).*/\1/' |
		sed "s/^/$3./; s/\$/()/"
}

if ! grep -qv '^#' "$out/functions.txt"; then
	echo "census: no function read from $out/dump.txt; has go tool covdata debugdump changed its format?"
	exit 1
fi

ledgered=$(awk '!/^#/ && $2 == "func" { print $1 }' lint/unexecuted.txt)
zero=0 missing=0
while read -r entered file line pkg; do
	[ "$entered" = 0 ] || continue
	src=${file#pktpredict/}
	name=$(qualified "$src" "$line" "$pkg")
	zero=$((zero + 1))
	if ! grep -qxF "$name" <<<"$ledgered"; then
		echo "census: $src:$line: $name is entered by neither production nor tier-1; test it, delete it, or list it in lint/unexecuted.txt with its reason"
		missing=$((missing + 1))
	fi
done < <(grep -v '^#' "$out/functions.txt")
grep '^#' "$out/functions.txt" | sed 's/^# /census: /'
echo "census: $zero functions count 0, $missing of them not in lint/unexecuted.txt (dump: $out/dump.txt)"
if [ "$tier1" != 0 ]; then
	echo "census: tier-1 failed (exit $tier1); see $out/tests.log"
fi
[ "$missing" = 0 ] && [ "$tier1" = 0 ]
