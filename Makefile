# Targets mirror the CI jobs in .github/workflows/ci.yml so local and CI
# invocations stay in sync.

GO ?= go
FUZZTIME ?= 10s
# bench-compare: revision to diff benchmarks against, and the rounds/gate
# the CI job uses. The Serve pattern covers BenchmarkServe* and
# BenchmarkServeSharded* alike; Obs covers the internal/obs instruments;
# Load covers BenchmarkLoadShardCut (a cold shard load).
BASE ?= main
BENCHCOUNT ?= 5
BENCHFILTER ?= Query|Decode|Routing|Serve|Obs|Sketch|Hierarchy|Load
BENCHTHRESHOLD ?= 25

# Every decoder has a FuzzUnmarshal*/FuzzDecode*/FuzzLoad* target,
# FuzzSPDistance checks the pooled Opt search against graph.Distance, and
# FuzzSketchDecode checks the sketch decoder's Borůvka step against its
# plain reference; `make fuzz` runs each for FUZZTIME (package:target
# pairs, one -fuzz pattern per `go test` invocation as the fuzzer
# requires).
FUZZ_TARGETS = \
	./internal/graph:FuzzSPDistance \
	./internal/codec:FuzzDecodeGraph \
	./internal/codec:FuzzDecodeTree \
	./internal/codec:FuzzDecodeSubgraph \
	./internal/codec:FuzzDecodeHierarchy \
	./internal/core:FuzzUnmarshalCutVertexLabel \
	./internal/core:FuzzUnmarshalCutEdgeLabel \
	./internal/core:FuzzUnmarshalSketchVertexLabel \
	./internal/core:FuzzUnmarshalSketchEdgeLabel \
	./internal/core:FuzzSketchDecode \
	./internal/distlabel:FuzzUnmarshalDistVertexLabel \
	./internal/distlabel:FuzzUnmarshalDistEdgeLabel \
	./internal/route:FuzzUnmarshalRouteLabel \
	./serve:FuzzServeRequest \
	.:FuzzLoadConnLabels \
	.:FuzzLoadDistLabels \
	.:FuzzLoadRouter \
	.:FuzzManifest \
	.:FuzzShard

.PHONY: all build test race bench bench-compare cover lint fuzz corpus-check perfbench-check shard-smoke proxy-smoke metrics-smoke remote-smoke loadgen-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout=10m ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-compare benchmarks the working tree against BASE (default: main)
# in a temporary git worktree and gates with cmd/benchcmp exactly like the
# CI job: fail only on statistically significant >BENCHTHRESHOLD% median
# regressions in benchmarks matching BENCHFILTER. Only the gated
# benchmarks run, 100ms a sample, in BENCHCOUNT rounds that alternate
# head and base: one iteration of a microsecond-scale decode is noise, and
# samples of one benchmark taken back to back share any slow spell of the
# machine, so identical code read as a significant regression. The bench
# target keeps the one-iteration smoke run of every benchmark.
bench-compare:
	@set -e; \
	tmp=$$(mktemp -d); \
	git worktree add --detach "$$tmp" $(BASE); \
	trap 'git worktree remove --force "$$tmp"' EXIT; \
	: > BENCH_pr.txt; : > BENCH_base.txt; \
	for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run=NONE -bench='$(BENCHFILTER)' -benchtime=100ms ./... >> BENCH_pr.txt; \
		( cd "$$tmp" && $(GO) test -run=NONE -bench='$(BENCHFILTER)' -benchtime=100ms ./... ) >> BENCH_base.txt; \
	done; \
	cat BENCH_pr.txt; \
	$(GO) run ./cmd/benchcmp -base BENCH_base.txt -head BENCH_pr.txt -filter '$(BENCHFILTER)' -threshold $(BENCHTHRESHOLD)

# cover mirrors the CI coverage job: profile plus per-package summary.
cover:
	@set -e; \
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./... > test-output.txt || { cat test-output.txt; exit 1; }; \
	cat test-output.txt; \
	echo; echo "## Per-package statement coverage"; \
	grep -E "^ok" test-output.txt | awk '{printf "%-40s %s\n", $$2, $$5}'; \
	$(GO) tool cover -func=coverage.out | tail -n 1

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; name=$${t#*:}; \
		echo "fuzzing $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run=NONE -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) $$pkg; \
	done

# corpus-check regenerates the checked-in fuzz seed corpus and fails if
# any file under a testdata/fuzz/ directory changed, appeared or
# vanished. The valid seeds are encodings of every scheme, manifest,
# shard and label format, so this pins the on-disk formats byte for byte.
corpus-check:
	@set -e; $(GO) run ./cmd/genfuzzcorpus > /dev/null; \
	drift=$$(git status --porcelain --untracked-files=all -- ':(glob)**/testdata/fuzz/**'); \
	if [ -n "$$drift" ]; then \
		echo "on-disk format drift: regenerated fuzz corpus differs from the checked-in one:"; \
		echo "$$drift"; exit 1; \
	fi; \
	echo "fuzz corpus regenerates byte-identically"

# perfbench-check vets and tests the perfbench module. It is a module of
# its own, so `go test ./...` at the root never compiles it; this target
# fails when an API change breaks the benchmark — the same check the CI
# perfbench job runs.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# shard-smoke proves the serving pipeline end to end: build a
# multi-component connectivity scheme and a distance scheme, split each
# into a manifest + shards, serve every scheme file and manifest, probe
# the scheme daemon's healthz and stats, check each file daemon and its
# manifest daemon answer byte-identically for the same requests (error
# envelopes included), and check all exit 0 on SIGTERM after draining —
# the same path the CI shard-smoke job runs.
shard-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$mpid $$spid $$dmpid $$dspid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ftroute" ./cmd/ftroute; \
	"$$tmp/ftroute" build -type conn -graph islands -n 40 -extra 60 -f 3 -out "$$tmp/scheme.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/scheme.ftlb" -out-dir "$$tmp/shards"; \
	"$$tmp/ftroute" info "$$tmp/shards/manifest.ftm"; \
	"$$tmp/ftroute" serve -in "$$tmp/scheme.ftlb" -addr 127.0.0.1:0 > "$$tmp/mono.log" 2>&1 & mpid=$$!; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 -shard-budget 8192 > "$$tmp/shard.log" 2>&1 & spid=$$!; \
	maddr=""; saddr=""; \
	for i in $$(seq 1 50); do \
		maddr=$$(sed -n 's/^listening on //p' "$$tmp/mono.log"); \
		saddr=$$(sed -n 's/^listening on //p' "$$tmp/shard.log"); \
		[ -n "$$maddr" ] && [ -n "$$saddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$maddr" ] && [ -n "$$saddr" ] || { echo "daemons never announced addresses" >&2; cat "$$tmp"/*.log >&2; exit 1; }; \
	curl -fsS "http://$$maddr/v1/healthz"; echo; \
	for body in '{"pairs":[[0,39],[0,41],[41,79],[80,119]],"faults":[1,2]}' \
	            '{"pairs":[[5,7],[120,159]],"faults":[3,3,9]}' \
	            '{"pairs":[[0,999]]}' \
	            '{"pairs":[[0,1]],"faults":[99999]}'; do \
		curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
		curl -sS -d "$$body" "http://$$saddr/v1/connected" > "$$tmp/shard.out"; \
		cmp "$$tmp/mono.out" "$$tmp/shard.out" || { echo "answers diverge for $$body" >&2; cat "$$tmp/mono.out" "$$tmp/shard.out" >&2; exit 1; }; \
	done; \
	curl -fsS "http://$$maddr/v1/stats"; echo; \
	curl -fsS "http://$$saddr/v1/stats" | grep -q '"shards"' || { echo "stats missing per-shard block" >&2; exit 1; }; \
	"$$tmp/ftroute" build -type dist -graph islands -n 40 -extra 60 -f 2 -k 2 -out "$$tmp/dist.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/dist.ftlb" -out-dir "$$tmp/dshards"; \
	"$$tmp/ftroute" serve -in "$$tmp/dist.ftlb" -addr 127.0.0.1:0 > "$$tmp/dmono.log" 2>&1 & dmpid=$$!; \
	"$$tmp/ftroute" serve -in "$$tmp/dshards" -addr 127.0.0.1:0 -shard-budget 30000 > "$$tmp/dshard.log" 2>&1 & dspid=$$!; \
	dmaddr=""; dsaddr=""; \
	for i in $$(seq 1 50); do \
		dmaddr=$$(sed -n 's/^listening on //p' "$$tmp/dmono.log"); \
		dsaddr=$$(sed -n 's/^listening on //p' "$$tmp/dshard.log"); \
		[ -n "$$dmaddr" ] && [ -n "$$dsaddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$dmaddr" ] && [ -n "$$dsaddr" ] || { echo "distance daemons never announced addresses" >&2; cat "$$tmp"/d*.log >&2; exit 1; }; \
	for body in '{"pairs":[[0,39],[0,41],[41,79],[80,119]],"faults":[1,2]}' \
	            '{"pairs":[[5,7],[120,159],[159,120]],"faults":[3,3,200]}' \
	            '{"pairs":[[0,999]]}' \
	            '{"pairs":[[0,1]],"faults":[1,2,3]}'; do \
		curl -sS -d "$$body" "http://$$dmaddr/v1/estimate" > "$$tmp/dmono.out"; \
		curl -sS -d "$$body" "http://$$dsaddr/v1/estimate" > "$$tmp/dshard.out"; \
		cmp "$$tmp/dmono.out" "$$tmp/dshard.out" || { echo "estimates diverge for $$body" >&2; cat "$$tmp/dmono.out" "$$tmp/dshard.out" >&2; exit 1; }; \
	done; \
	grep -q '"code":"fault_bound_exceeded"' "$$tmp/dmono.out" || { echo "distance daemon did not report the fault bound: $$(cat "$$tmp/dmono.out")" >&2; exit 1; }; \
	kill -TERM $$mpid $$spid $$dmpid $$dspid; \
	wait $$mpid; \
	wait $$spid; \
	wait $$dmpid; \
	wait $$dspid; \
	cat "$$tmp/mono.log" "$$tmp/shard.log" "$$tmp/dmono.log" "$$tmp/dshard.log"; \
	echo "shard-smoke OK"

# proxy-smoke proves the fan-out tier end to end: build a multi-island
# scheme, shard it, serve the manifest from two replicas, front them with
# `ftroute proxy` at replication 1 and 2, and check the proxies answer
# byte-identically to the monolithic daemon (including error envelopes).
# Then kill one replica: the replication-2 proxy must keep answering
# byte-identically via failover, while the replication-1 proxy reports
# the typed upstream_failure envelope for the dead replica's shards with
# healthy shards (and local validation) still answering — the same path
# the CI proxy-smoke job runs.
proxy-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$mpid $$r1pid $$r2pid $$p1pid $$p2pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ftroute" ./cmd/ftroute; \
	"$$tmp/ftroute" build -type conn -graph islands -n 40 -extra 60 -f 3 -out "$$tmp/scheme.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/scheme.ftlb" -out-dir "$$tmp/shards"; \
	"$$tmp/ftroute" serve -in "$$tmp/scheme.ftlb" -addr 127.0.0.1:0 > "$$tmp/mono.log" 2>&1 & mpid=$$!; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 > "$$tmp/r1.log" 2>&1 & r1pid=$$!; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 > "$$tmp/r2.log" 2>&1 & r2pid=$$!; \
	maddr=""; r1addr=""; r2addr=""; \
	for i in $$(seq 1 50); do \
		maddr=$$(sed -n 's/^listening on //p' "$$tmp/mono.log"); \
		r1addr=$$(sed -n 's/^listening on //p' "$$tmp/r1.log"); \
		r2addr=$$(sed -n 's/^listening on //p' "$$tmp/r2.log"); \
		[ -n "$$maddr" ] && [ -n "$$r1addr" ] && [ -n "$$r2addr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$maddr" ] && [ -n "$$r1addr" ] && [ -n "$$r2addr" ] || { echo "daemons never announced addresses" >&2; cat "$$tmp"/*.log >&2; exit 1; }; \
	"$$tmp/ftroute" proxy -in "$$tmp/shards" -replicas "http://$$r1addr,http://$$r2addr" -addr 127.0.0.1:0 > "$$tmp/p1.log" 2>&1 & p1pid=$$!; \
	"$$tmp/ftroute" proxy -in "$$tmp/shards" -replicas "http://$$r1addr,http://$$r2addr" -replication 2 -addr 127.0.0.1:0 > "$$tmp/p2.log" 2>&1 & p2pid=$$!; \
	p1addr=""; p2addr=""; \
	for i in $$(seq 1 50); do \
		p1addr=$$(sed -n 's/^listening on //p' "$$tmp/p1.log"); \
		p2addr=$$(sed -n 's/^listening on //p' "$$tmp/p2.log"); \
		[ -n "$$p1addr" ] && [ -n "$$p2addr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$p1addr" ] && [ -n "$$p2addr" ] || { echo "proxies never announced addresses" >&2; cat "$$tmp"/p*.log >&2; exit 1; }; \
	bodies='{"pairs":[[0,39],[0,41],[41,79],[80,119]],"faults":[1,2]} {"pairs":[[5,7],[120,159]],"faults":[3,3,9]} {"pairs":[]} {"pairs":[[0,999]]} {"pairs":[[0,1]],"faults":[99999]} {"pairs":[[0,'; \
	for body in $$bodies; do \
		curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
		curl -sS -d "$$body" "http://$$p1addr/v1/connected" > "$$tmp/p1.out"; \
		cmp "$$tmp/mono.out" "$$tmp/p1.out" || { echo "replication-1 proxy diverges for $$body" >&2; cat "$$tmp/mono.out" "$$tmp/p1.out" >&2; exit 1; }; \
		curl -sS -d "$$body" "http://$$p2addr/v1/connected" > "$$tmp/p2.out"; \
		cmp "$$tmp/mono.out" "$$tmp/p2.out" || { echo "replication-2 proxy diverges for $$body" >&2; cat "$$tmp/mono.out" "$$tmp/p2.out" >&2; exit 1; }; \
	done; \
	curl -fsS "http://$$p1addr/v1/healthz" | grep -q '"replicas":2' || { echo "proxy healthz missing replica count" >&2; exit 1; }; \
	curl -fsS "http://$$p1addr/v1/stats" | grep -q '"upstreams"' || { echo "proxy stats missing upstream rows" >&2; exit 1; }; \
	kill -TERM $$r2pid; wait $$r2pid; \
	for body in $$bodies; do \
		curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
		curl -sS -d "$$body" "http://$$p2addr/v1/connected" > "$$tmp/p2.out"; \
		cmp "$$tmp/mono.out" "$$tmp/p2.out" || { echo "replication-2 proxy diverges after replica death for $$body" >&2; cat "$$tmp/mono.out" "$$tmp/p2.out" >&2; exit 1; }; \
	done; \
	ok=0; fail=0; \
	for body in '{"pairs":[[0,1]]}' '{"pairs":[[41,42]]}' '{"pairs":[[80,81]]}' '{"pairs":[[120,121]]}'; do \
		out=$$(curl -sS -d "$$body" "http://$$p1addr/v1/connected"); \
		case "$$out" in \
			*upstream_failure*) fail=$$((fail+1));; \
			*results*) ok=$$((ok+1));; \
		esac; \
	done; \
	[ $$ok -ge 1 ] && [ $$fail -ge 1 ] || { echo "replica-down: $$ok shards answered, $$fail reported upstream_failure; want both >= 1" >&2; cat "$$tmp/p1.log" >&2; exit 1; }; \
	body='{"pairs":[[0,1]],"faults":[99999]}'; \
	curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
	curl -sS -d "$$body" "http://$$p1addr/v1/connected" > "$$tmp/p1.out"; \
	cmp "$$tmp/mono.out" "$$tmp/p1.out" || { echo "local validation diverges with a dead replica" >&2; cat "$$tmp/mono.out" "$$tmp/p1.out" >&2; exit 1; }; \
	kill -TERM $$mpid $$r1pid $$p1pid $$p2pid; \
	wait $$mpid $$r1pid $$p1pid $$p2pid; \
	cat "$$tmp/p1.log"; \
	echo "proxy-smoke OK"

# remote-smoke proves the remote shard backend end to end: build a
# multi-island scheme, shard it, serve the shard directory over plain
# HTTP with `ftroute blobserve`, and boot a manifest-only replica whose
# -in is the blob server's URL — it holds nothing on local disk and
# fetches (and verifies) shards on demand. The replica must answer
# byte-identically to the monolithic daemon, including error envelopes;
# /v1/stats must carry the fetch counters; `ftroute query` must serve
# straight from the URL; and killing the blob server must turn queries
# for not-yet-resident shards into typed upstream_failure envelopes —
# the same path the CI remote-smoke job runs.
remote-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$mpid $$bpid $$rpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ftroute" ./cmd/ftroute; \
	"$$tmp/ftroute" build -type conn -graph islands -n 40 -extra 60 -f 3 -out "$$tmp/scheme.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/scheme.ftlb" -out-dir "$$tmp/shards"; \
	"$$tmp/ftroute" serve -in "$$tmp/scheme.ftlb" -addr 127.0.0.1:0 > "$$tmp/mono.log" 2>&1 & mpid=$$!; \
	"$$tmp/ftroute" blobserve -dir "$$tmp/shards" -addr 127.0.0.1:0 > "$$tmp/blob.log" 2>&1 & bpid=$$!; \
	maddr=""; baddr=""; \
	for i in $$(seq 1 50); do \
		maddr=$$(sed -n 's/^listening on //p' "$$tmp/mono.log"); \
		baddr=$$(sed -n 's/^listening on //p' "$$tmp/blob.log"); \
		[ -n "$$maddr" ] && [ -n "$$baddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$maddr" ] && [ -n "$$baddr" ] || { echo "daemons never announced addresses" >&2; cat "$$tmp"/*.log >&2; exit 1; }; \
	"$$tmp/ftroute" query -in "http://$$baddr/manifest.ftm" -s 0 -t 39 -faults 1,2 || { echo "query straight from the URL failed" >&2; exit 1; }; \
	"$$tmp/ftroute" serve -in "http://$$baddr/" -addr 127.0.0.1:0 -fetch-retries 1 -fetch-backoff 10ms -fetch-timeout 5s > "$$tmp/remote.log" 2>&1 & rpid=$$!; \
	raddr=""; \
	for i in $$(seq 1 50); do \
		raddr=$$(sed -n 's/^listening on //p' "$$tmp/remote.log"); \
		[ -n "$$raddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$raddr" ] || { echo "manifest-only replica never announced an address" >&2; cat "$$tmp/remote.log" >&2; exit 1; }; \
	for body in '{"pairs":[[0,39],[0,41],[41,79],[80,119]],"faults":[1,2]}' \
	            '{"pairs":[[5,7],[80,82]],"faults":[3,3,9]}' \
	            '{"pairs":[[0,999]]}' \
	            '{"pairs":[[0,1]],"faults":[99999]}' \
	            '{"pairs":[[0,'; do \
		curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
		curl -sS -d "$$body" "http://$$raddr/v1/connected" > "$$tmp/remote.out"; \
		cmp "$$tmp/mono.out" "$$tmp/remote.out" || { echo "manifest-only replica diverges for $$body" >&2; cat "$$tmp/mono.out" "$$tmp/remote.out" >&2; exit 1; }; \
	done; \
	curl -fsS "http://$$raddr/v1/stats" | grep -q '"fetches"' || { echo "remote stats missing fetch counters" >&2; exit 1; }; \
	kill -TERM $$bpid; wait $$bpid; \
	out=$$(curl -sS -d '{"pairs":[[120,121]]}' "http://$$raddr/v1/connected"); \
	case "$$out" in \
		*upstream_failure*) ;; \
		*) echo "dead blob backend did not yield a typed upstream_failure envelope: $$out" >&2; cat "$$tmp/remote.log" >&2; exit 1;; \
	esac; \
	body='{"pairs":[[0,39],[0,41]],"faults":[1,2]}'; \
	curl -sS -d "$$body" "http://$$maddr/v1/connected" > "$$tmp/mono.out"; \
	curl -sS -d "$$body" "http://$$raddr/v1/connected" > "$$tmp/remote.out"; \
	cmp "$$tmp/mono.out" "$$tmp/remote.out" || { echo "resident shards stopped answering after backend death" >&2; cat "$$tmp/mono.out" "$$tmp/remote.out" >&2; exit 1; }; \
	kill -TERM $$mpid $$rpid; \
	wait $$mpid $$rpid; \
	cat "$$tmp/remote.log"; \
	echo "remote-smoke OK"

# metrics-smoke proves the observability layer end to end on real
# daemons: serve a sharded replica and a proxy with default
# instrumentation, check a traced query's body is byte-identical to an
# uninstrumented daemon's, scrape /metrics on both tiers and check the
# exposition is well-formed (every sample line parses, the expected
# families and terminal +Inf buckets exist), check the trace ID appears
# in both tiers' JSON access logs, and check ?debug=timing is opt-in —
# the same path the CI metrics-smoke job runs.
metrics-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$bpid $$rpid $$ppid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ftroute" ./cmd/ftroute; \
	"$$tmp/ftroute" build -type conn -graph islands -n 40 -extra 60 -f 3 -out "$$tmp/scheme.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/scheme.ftlb" -out-dir "$$tmp/shards"; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 -metrics=off -log-level off > "$$tmp/bare.log" 2>&1 & bpid=$$!; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 > "$$tmp/replica.log" 2> "$$tmp/replica.json" & rpid=$$!; \
	baddr=""; raddr=""; \
	for i in $$(seq 1 50); do \
		baddr=$$(sed -n 's/^listening on //p' "$$tmp/bare.log"); \
		raddr=$$(sed -n 's/^listening on //p' "$$tmp/replica.log"); \
		[ -n "$$baddr" ] && [ -n "$$raddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$baddr" ] && [ -n "$$raddr" ] || { echo "daemons never announced addresses" >&2; cat "$$tmp"/*.log >&2; exit 1; }; \
	"$$tmp/ftroute" proxy -in "$$tmp/shards" -replicas "http://$$raddr" -addr 127.0.0.1:0 > "$$tmp/proxy.log" 2> "$$tmp/proxy.json" & ppid=$$!; \
	paddr=""; \
	for i in $$(seq 1 50); do \
		paddr=$$(sed -n 's/^listening on //p' "$$tmp/proxy.log"); \
		[ -n "$$paddr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$paddr" ] || { echo "proxy never announced an address" >&2; cat "$$tmp/proxy.log" >&2; exit 1; }; \
	body='{"pairs":[[0,39],[0,41],[41,79],[80,119]],"faults":[1,2]}'; \
	curl -sS -d "$$body" "http://$$baddr/v1/connected" > "$$tmp/bare.out"; \
	curl -sS -H 'X-Ftroute-Trace: smoke-trace-1' -d "$$body" "http://$$paddr/v1/connected" > "$$tmp/instr.out"; \
	cmp "$$tmp/bare.out" "$$tmp/instr.out" || { echo "instrumented body diverges from bare daemon" >&2; cat "$$tmp/bare.out" "$$tmp/instr.out" >&2; exit 1; }; \
	grep -q '"timing"' "$$tmp/instr.out" && { echo "timing echo leaked without ?debug=timing" >&2; exit 1; }; \
	curl -sS -H 'X-Ftroute-Trace: smoke-trace-2' -d "$$body" "http://$$paddr/v1/connected?debug=timing" | grep -q '"timing"' || { echo "?debug=timing echoed no timing block" >&2; exit 1; }; \
	curl -fsS "http://$$raddr/metrics" > "$$tmp/replica.metrics"; \
	curl -fsS "http://$$paddr/metrics" > "$$tmp/proxy.metrics"; \
	for f in replica proxy; do \
		awk '$$0 !~ /^#/ && $$0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9+.eE-]+$$/ { print "malformed sample: " $$0; bad = 1 } END { exit bad }' "$$tmp/$$f.metrics" || { echo "$$f /metrics exposition malformed" >&2; exit 1; }; \
		grep -q '^# HELP ftroute_requests_total ' "$$tmp/$$f.metrics" || { echo "$$f /metrics missing ftroute_requests_total HELP" >&2; exit 1; }; \
		grep -q '^# TYPE ftroute_request_seconds histogram$$' "$$tmp/$$f.metrics" || { echo "$$f /metrics missing request_seconds histogram TYPE" >&2; exit 1; }; \
		grep -q 'le="+Inf"' "$$tmp/$$f.metrics" || { echo "$$f /metrics has no terminal +Inf bucket" >&2; exit 1; }; \
	done; \
	grep -q '^ftroute_shard_resident_bytes ' "$$tmp/replica.metrics" || { echo "replica /metrics missing shard_resident_bytes" >&2; exit 1; }; \
	grep -q 'ftroute_upstream_seconds_count{replica=' "$$tmp/proxy.metrics" || { echo "proxy /metrics missing upstream_seconds" >&2; exit 1; }; \
	grep -q '"trace":"smoke-trace-1"' "$$tmp/proxy.json" || { echo "proxy access log missing the client trace" >&2; cat "$$tmp/proxy.json" >&2; exit 1; }; \
	grep -q '"trace":"smoke-trace-1"' "$$tmp/replica.json" || { echo "replica access log missing the propagated trace" >&2; cat "$$tmp/replica.json" >&2; exit 1; }; \
	kill -TERM $$bpid $$rpid $$ppid; \
	wait $$bpid $$rpid $$ppid; \
	echo "metrics-smoke OK"

# loadgen-smoke proves the load harness end to end: import an edge-list
# topology through the file: graph source, build + shard + serve a conn
# scheme over it, drive 2 seconds of fixed-rate Zipf load with `ftroute
# loadgen`, and assert the BENCH JSON artifact is well-formed with every
# request answered and nonzero throughput. The artifact is left at
# ./BENCH_smoke.json for the CI job to upload.
loadgen-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ftroute" ./cmd/ftroute; \
	awk 'BEGIN { print "# loadgen-smoke: three 80-vertex rings, SNAP-style"; \
		for (r = 0; r < 3; r++) for (i = 0; i < 80; i++) \
			printf "%d\t%d\n", r*80 + i, r*80 + (i+1)%80 }' > "$$tmp/graph.txt"; \
	"$$tmp/ftroute" build -type conn -graph "file:$$tmp/graph.txt" -f 3 -out "$$tmp/scheme.ftlb"; \
	"$$tmp/ftroute" shard -in "$$tmp/scheme.ftlb" -out-dir "$$tmp/shards"; \
	"$$tmp/ftroute" serve -in "$$tmp/shards" -addr 127.0.0.1:0 -shard-budget 8192 > "$$tmp/serve.log" 2>&1 & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 50); do \
		addr=$$(sed -n 's/^listening on //p' "$$tmp/serve.log"); \
		[ -n "$$addr" ] && break; \
		sleep 0.2; \
	done; \
	[ -n "$$addr" ] || { echo "daemon never announced an address" >&2; cat "$$tmp/serve.log" >&2; exit 1; }; \
	"$$tmp/ftroute" loadgen -target "http://$$addr" -rate 200 -duration 2s -batch 4 -seed 7 \
		-pair-skew 1.0 -fault-sets 4 -faults-per-set 2 -name smoke -out "$$tmp/BENCH_smoke.json"; \
	kill -TERM $$pid; \
	wait $$pid; \
	grep -q '"requests_ok": 400' "$$tmp/BENCH_smoke.json" || { echo "BENCH report: not every scheduled request succeeded" >&2; cat "$$tmp/BENCH_smoke.json" >&2; exit 1; }; \
	grep -q '"requests_failed": 0' "$$tmp/BENCH_smoke.json" || { echo "BENCH report: failures recorded" >&2; cat "$$tmp/BENCH_smoke.json" >&2; exit 1; }; \
	for field in '"p50_ns"' '"p99_ns"' '"p999_ns"' '"context_hits"' '"seed": 7' '"pair_skew": 1'; do \
		grep -q "$$field" "$$tmp/BENCH_smoke.json" || { echo "BENCH report missing $$field" >&2; cat "$$tmp/BENCH_smoke.json" >&2; exit 1; }; \
	done; \
	qps=$$(sed -n 's/^ *"qps": \([0-9.eE+-]*\),*$$/\1/p' "$$tmp/BENCH_smoke.json"); \
	awk -v q="$$qps" 'BEGIN { exit !(q + 0 > 0) }' || { echo "BENCH report q/s not positive: '$$qps'" >&2; cat "$$tmp/BENCH_smoke.json" >&2; exit 1; }; \
	cp "$$tmp/BENCH_smoke.json" BENCH_smoke.json; \
	cat "$$tmp/serve.log"; \
	echo "loadgen-smoke OK (q/s = $$qps)"

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi
