GO ?= go

.PHONY: ci vet build test race bench bench-smoke bench-json report-smoke fuzz-smoke matrix-smoke timeline-smoke queue-smoke export-smoke resume-smoke

# ci is the gate future PRs run: static checks, a full build, the
# complete test suite under the race detector, and a single-iteration
# run of the core macro-benchmark so the allocation-free hot path at
# least executes on every change. The exp package's TestMain enables
# the invariant auditing layer for the whole scaled-down figure suite,
# so packet-accounting regressions fail here even when no figure-level
# assertion notices them; -race additionally exercises parallelMap's
# worker pool.
ci: vet build race bench-smoke queue-smoke report-smoke matrix-smoke timeline-smoke export-smoke resume-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench smoke-runs every benchmark once; invariants stay disabled so the
# numbers reflect the production configuration.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-smoke runs just the core macro-benchmark once (seconds, not
# minutes) — a ci step, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=EnginePacketsPerSecond -benchtime=1x .

# report-smoke exercises the manifest pipeline end to end: a short
# probed slowcctrace run writes a digest-sealed manifest plus probe TSV,
# and slowccreport must verify the digest and render them. Catches
# manifest/report wiring breaks the unit tests can't (flag plumbing,
# file round trips through the real binaries).
report-smoke:
	rm -rf .report-smoke && mkdir -p .report-smoke
	$(GO) run ./cmd/slowcctrace -flow tcp:0.5 -flow tfrc:8 -dur 5 -probe 0.5 \
		-out .report-smoke/trace.tsv -probes .report-smoke/run.probes.tsv \
		-manifest .report-smoke/run.json > /dev/null
	$(GO) run ./cmd/slowccreport -probes .report-smoke/run.probes.tsv .report-smoke/run.json
	rm -rf .report-smoke

# matrix-smoke drives the pairwise interaction matrix end to end through
# the real binary: a 2x2 algorithm subset on a 2-hop parking lot, all
# three conditions, supervised, with -fail-degraded so any degraded cell
# (a panicked or hung sweep attempt) fails ci rather than degrading
# silently, and the TSV artifact + manifest round-trip through disk.
matrix-smoke:
	rm -rf .matrix-smoke && mkdir -p .matrix-smoke
	$(GO) run ./cmd/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8' \
		-topology parking-lot:2 -fail-degraded \
		-tsv .matrix-smoke/matrix.tsv -manifest .matrix-smoke/run.json > /dev/null
	test -s .matrix-smoke/matrix.tsv
	rm -rf .matrix-smoke

# timeline-smoke drives the latency-attribution pipeline end to end
# through the real binaries: a journey-enabled slowcctrace run writes a
# Perfetto trace-event timeline and a histogram-carrying manifest, a
# supervised matrix sweep writes its per-cell telemetry timeline, and
# slowccreport must validate both JSON documents and render the
# heatmap from the sweep's TSV artifact.
timeline-smoke:
	rm -rf .timeline-smoke && mkdir -p .timeline-smoke
	$(GO) run ./cmd/slowcctrace -flow tcp:0.5 -flow tfrc:8 -dur 5 -journeys \
		-timeline .timeline-smoke/journeys.json \
		-manifest .timeline-smoke/run.json > /dev/null
	$(GO) run ./cmd/slowccsim -exp matrix -matrix 'tcp:0.5,cbr:3e6' \
		-topology dumbbell -fail-degraded \
		-timeline .timeline-smoke/sweep.json \
		-tsv .timeline-smoke/matrix.tsv > /dev/null
	$(GO) run ./cmd/slowccreport -timeline .timeline-smoke/journeys.json \
		.timeline-smoke/run.json > /dev/null
	$(GO) run ./cmd/slowccreport -timeline .timeline-smoke/sweep.json \
		-heatmap .timeline-smoke/matrix.tsv > /dev/null
	rm -rf .timeline-smoke

# export-smoke drives the live-telemetry stack end to end through the
# real binary: slowccsim -serve runs fig3 with the export server bound
# to an ephemeral port, and the smoke scrapes /healthz, waits for the
# run to finish, scrapes the final /metrics and the full SSE event
# replay, checks a sweep event arrived, shuts the server down with
# SIGTERM (which must exit cleanly), and strict-validates the scraped
# exposition with slowccreport -prom-verify — so a /metrics stream any
# Prometheus scraper would reject fails ci here. The run carries a
# result store so the slowcc_store_{hits,misses,corrupt} counters are
# exercised and validated on the same scrape.
export-smoke:
	rm -rf .export-smoke && mkdir -p .export-smoke
	$(GO) build -o .export-smoke/slowccsim ./cmd/slowccsim
	set -e; \
	.export-smoke/slowccsim -exp fig3 -serve 127.0.0.1:0 -slog warn \
		-store .export-smoke/store \
		> .export-smoke/out.txt 2> .export-smoke/err.txt & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^serving telemetry on http://\([^/]*\)/.*|\1|p' .export-smoke/err.txt); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "export-smoke: server never announced an address" >&2; cat .export-smoke/err.txt >&2; exit 1; }; \
	curl -sSf "http://$$addr/healthz" > .export-smoke/health.json; \
	for i in $$(seq 1 200); do \
		curl -sSf "http://$$addr/healthz" | grep -q '"run_done": true' && break; sleep 0.1; \
	done; \
	sleep 0.5; \
	curl -sSf "http://$$addr/metrics" > .export-smoke/metrics.prom; \
	curl -sSf "http://$$addr/progress?replay=close" > .export-smoke/progress.sse; \
	grep -q '^event: sweep' .export-smoke/progress.sse; \
	grep -q '^slowcc_sweep_cells_done_total' .export-smoke/metrics.prom; \
	grep -q '^slowcc_stream_digest_info' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_hits' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_misses' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_corrupt' .export-smoke/metrics.prom; \
	trap - EXIT; \
	kill -TERM $$pid; \
	wait $$pid
	$(GO) run ./cmd/slowccreport -prom-verify .export-smoke/metrics.prom
	rm -rf .export-smoke

# resume-smoke is the crash-safety gate: a real matrix sweep is
# SIGKILLed mid-flight (no graceful handler, no checkpoint — the
# per-entry fsync'd journal is all that survives), then resumed with
# -store -resume, which must serve the already-committed cells from the
# store (hits >= 1 asserted from the summary line) and recompute only
# the rest. The resumed TSV artifact must be byte-identical to an
# uninterrupted same-seed run's — the end-to-end proof that replayed
# cells are indistinguishable from computed ones.
resume-smoke:
	rm -rf .resume-smoke && mkdir -p .resume-smoke
	$(GO) build -o .resume-smoke/slowccsim ./cmd/slowccsim
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-tsv .resume-smoke/full.tsv > /dev/null
	set -e; \
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-store .resume-smoke/store -tsv .resume-smoke/killed.tsv \
		> /dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .resume-smoke/store/journal.bin ] && break; sleep 0.1; \
	done; \
	[ -s .resume-smoke/store/journal.bin ] || { echo "resume-smoke: no cell committed before the kill" >&2; exit 1; }; \
	kill -9 $$pid; \
	wait $$pid 2>/dev/null || true; \
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-store .resume-smoke/store -resume -tsv .resume-smoke/resumed.tsv \
		> /dev/null 2> .resume-smoke/resume-err.txt; \
	grep -E '^store .*: [0-9]+ entries, [1-9][0-9]* hits' .resume-smoke/resume-err.txt || \
		{ echo "resume-smoke: resume served no cells from the store" >&2; cat .resume-smoke/resume-err.txt >&2; exit 1; }
	cmp .resume-smoke/full.tsv .resume-smoke/resumed.tsv
	rm -rf .resume-smoke

# fuzz-smoke gives each parser fuzz target a few seconds of coverage-
# guided input on every ci run — long enough to re-find shallow
# regressions (the TimedPattern fast-forward hang was one), short enough
# not to dominate the gate. Longer campaigns: raise -fuzztime by hand.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParsePattern -fuzztime=3s ./internal/netem
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=3s ./internal/faults

# queue-smoke runs the event-stream suite: the randomized mixed-op
# differential of the engine's calendar queue against the reference heap
# in internal/sim, plus the pinned-stream tests at the public surface —
# every row of the layer table on the seed-1 macro run, and the faulted
# parking lot. Any divergence fails here with the first diverging event
# named.
queue-smoke:
	$(GO) test -count=1 -run 'TestCalendarVsHeap|TestPinned' ./internal/sim .

# bench-json measures the simulator core (engine, link, per-flow, and
# the two-flow macro-benchmark), records the trajectory against the
# pre-optimization baseline in BENCH_core.json, and fails if the
# speedup/allocation gates regress. Three interleaved runs per
# benchmark: the minimum is recorded, the min/max spread is reported,
# and a spread above 5% is flagged unstable. Refuses to run from a
# dirty worktree (the record names the commit it measured); pass
# -allow-dirty through `go run ./cmd/slowccbench` by hand for local
# experiments.
bench-json:
	$(GO) run ./cmd/slowccbench -count 3 -out BENCH_core.json
