GO ?= go

.PHONY: check vet fmt build test race racecore bench perfguard fuzz smoke datasets-smoke chaos reshape-smoke serve-smoke

# Pre-PR gate: everything here must pass before sending a change.
# racecore runs first: the packages that juggle goroutines and the fault
# engine fail fast before the full -race sweep.
check: vet fmt build racecore race smoke datasets-smoke chaos reshape-smoke serve-smoke

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The root package's byte-identity suites run multi-minute campaigns
# that the race detector slows ~10x; give the package binary room
# beyond go test's default 10m timeout.
race:
	$(GO) test -race -timeout 40m ./...

# Focused race gate over the concurrency-heavy packages: the impairment
# engine (consulted from parallel lab goroutines), the shared cloud
# model, the campaign runner that fans out across labs, the parallel
# forest trainer, the analysis fold driver, the ingest decode pool
# and its single-decode fold pass, the fleet runner's bounded-lead home pool folding into
# shared-seed sketches, and the PII scanners every fold unit shares.
racecore:
	$(GO) test -race ./internal/faults/... ./internal/cloud/... ./internal/experiments/... \
		./internal/ml/... ./internal/analysis/... ./internal/ingest/... \
		./internal/service/... ./internal/fleet/... ./internal/sketch/... \
		./internal/reshape/... ./internal/pii/...

# Benchmark sweep (-run '^$$' skips the test suites): the root table
# harness, the forest-training and collector-stage (Pipeline.Run)
# benchmarks that record the parallel speedup, the
# fleet synthesis throughput, the sketch merge/ingest hot paths, the
# multi-metric entropy family and the PII scan over ciphertext and
# plaintext payloads.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/ml ./internal/analysis \
		./internal/fleet ./internal/sketch ./internal/reshape ./internal/entropy \
		./internal/dataset ./internal/pii

# Perf regression gate: single-decode streaming must hold the checked-in
# fraction of buffered throughput on the tiny export (floor in
# perfguard_test.go). Wall-clock sensitive — run on a quiet machine.
perfguard:
	MONIOTR_PERFGUARD=1 $(GO) test -run TestStreamingThroughputFloor -count=1 -v .

# Run every fuzzer briefly: the pcap parsers and the PII scanner's
# differential check against its strings.ToLower reference. The seed
# corpus plus a few seconds of mutation catches framing and case-folding
# regressions without CI-scale cost.
fuzz:
	@for p in ./internal/pcapio ./internal/pii; do \
		for f in $$($(GO) test $$p -list '^Fuzz' | grep '^Fuzz'); do \
			echo "fuzzing $$p $$f"; \
			$(GO) test $$p -run '^$$' -fuzz "^$$f$$" -fuzztime 5s || exit 1; \
		done; \
	done

# End-to-end capture round trip: export a tiny campaign as per-device
# pcaps, re-ingest it — buffered and streamed through the single-decode
# fold pass — and require byte-identical table output from all three
# runs.
smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moniotr" ./cmd/moniotr && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -export-captures "$$tmp/caps" \
		> "$$tmp/direct.out" 2> "$$tmp/direct.err" && \
	"$$tmp/moniotr" -ingest "$$tmp/caps" \
		> "$$tmp/ingested.out" 2> "$$tmp/ingested.err" && \
	"$$tmp/moniotr" -ingest "$$tmp/caps" -stream \
		> "$$tmp/streamed.out" 2> "$$tmp/streamed.err" && \
	cmp "$$tmp/direct.out" "$$tmp/ingested.out" && \
	cmp "$$tmp/direct.out" "$$tmp/streamed.out" && \
	echo "smoke: export->ingest tables byte-identical (buffered + single-decode)"

# Foreign-dataset smoke: export a tiny campaign through every dataset
# adapter (pcapng containers, 802.1Q trunk pcaps, Linux cooked gateway
# dumps), ingest each foreign tree back through its adapter under
# -strict, and require table output byte-identical to the natively
# exported + ingested campaign. "-dataset auto" must sniff each tree.
# Finally the cross-dataset transfer matrix must render all three
# built-in datasets.
datasets-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moniotr" ./cmd/moniotr && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -export-captures "$$tmp/native" \
		> "$$tmp/direct.out" 2> "$$tmp/direct.err" && \
	for a in pcapng vlan-trunk sll-gateway; do \
		"$$tmp/moniotr" -scale tiny -skip-uncontrolled -dataset "$$a" \
			-export-captures "$$tmp/$$a" > /dev/null 2> "$$tmp/$$a.exp.err" || exit 1; \
		"$$tmp/moniotr" -ingest "$$tmp/$$a" -dataset auto -strict \
			> "$$tmp/$$a.out" 2> "$$tmp/$$a.err" || { cat "$$tmp/$$a.err"; exit 1; }; \
		grep -q "dataset adapter $$a" "$$tmp/$$a.err" || \
			{ echo "datasets-smoke: auto-detect picked the wrong adapter for $$a"; exit 1; }; \
		cmp "$$tmp/direct.out" "$$tmp/$$a.out" || \
			{ echo "datasets-smoke: $$a tables diverge from native"; exit 1; }; \
	done && \
	"$$tmp/moniotr" -transfer-matrix -json > "$$tmp/transfer.json" 2> "$$tmp/transfer.err" && \
	for d in us-study uk-study post-study; do \
		grep -q "$$d" "$$tmp/transfer.json" || \
			{ echo "datasets-smoke: transfer matrix missing $$d"; exit 1; }; \
	done && \
	echo "datasets-smoke: pcapng + vlan-trunk + sll-gateway ingest byte-identical to native; transfer matrix rendered"

# Daemon smoke: start moniotrd on an ephemeral port, upload a tiny
# exported campaign as a tar archive, wait for the streaming-ingest job,
# and require the daemon's JSON report to be byte-identical to the CLI's
# `moniotr -json` output for the same campaign. SIGTERM must drain the
# daemon cleanly (exit 0).
serve-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moniotr" ./cmd/moniotr && \
	$(GO) build -o "$$tmp/moniotrd" ./cmd/moniotrd && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -export-captures "$$tmp/caps" -json \
		> "$$tmp/cli.json" 2> "$$tmp/cli.err" || exit 1; \
	"$$tmp/moniotrd" -addr 127.0.0.1:0 -port-file "$$tmp/port" -data "$$tmp/spool" \
		-grace 30s > "$$tmp/daemon.log" 2>&1 & \
	pid=$$!; \
	trap 'kill "$$pid" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 100); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/port" ] || { echo "serve-smoke: daemon never listened"; cat "$$tmp/daemon.log"; exit 1; }; \
	port=$$(cat "$$tmp/port"); \
	tar -cf - -C "$$tmp/caps" . | \
		curl -sf -X POST --data-binary @- "http://127.0.0.1:$$port/api/upload?stream=1" \
		> "$$tmp/submit.json" || { echo "serve-smoke: upload failed"; cat "$$tmp/daemon.log"; exit 1; }; \
	grep -q '"id": "job-0001"' "$$tmp/submit.json" || { echo "serve-smoke: bad submit response"; cat "$$tmp/submit.json"; exit 1; }; \
	state=""; \
	for i in $$(seq 600); do \
		state=$$(curl -sf "http://127.0.0.1:$$port/api/jobs/job-0001" | grep -o '"state": "[a-z]*"'); \
		case "$$state" in *done*|*failed*|*canceled*) break;; esac; sleep 0.5; \
	done; \
	case "$$state" in *done*) ;; *) echo "serve-smoke: job ended as $$state"; cat "$$tmp/daemon.log"; exit 1;; esac; \
	curl -sf "http://127.0.0.1:$$port/api/jobs/job-0001/report" > "$$tmp/daemon.json" && \
	cmp "$$tmp/cli.json" "$$tmp/daemon.json" || { echo "serve-smoke: reports differ"; exit 1; }; \
	kill -TERM "$$pid" && wait "$$pid" || { echo "serve-smoke: daemon exited non-zero"; cat "$$tmp/daemon.log"; exit 1; }; \
	echo "serve-smoke: upload->report byte-identical to moniotr -json; clean SIGTERM drain"

# Chaos smoke: a tiny campaign over an impaired network must complete
# with no fatal errors, reproduce byte-identically under the same seed,
# and account for every injected fault in the metrics snapshot.
chaos:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moniotr" ./cmd/moniotr && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -faults lossy-home -fault-seed 7 \
		-metrics "$$tmp/metrics.json" > "$$tmp/a.out" 2> "$$tmp/a.err" && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -faults lossy-home -fault-seed 7 \
		> "$$tmp/b.out" 2> "$$tmp/b.err" && \
	cmp "$$tmp/a.out" "$$tmp/b.out" && \
	grep -q '"faults_pkts_dropped_total"' "$$tmp/metrics.json" && \
	grep -q '"faults_retransmissions_total"' "$$tmp/metrics.json" && \
	echo "chaos: lossy-home campaign reproducible, faults accounted"

# Reshape smoke: a tiny campaign behind a pad+dummy defense stack must
# complete with no fatal errors, reproduce byte-identically under the
# same seed, differ from the undefended run, and account for every
# defense transform in the metrics snapshot.
reshape-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moniotr" ./cmd/moniotr && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -reshape pad,dummy -reshape-seed 7 \
		-reshape-budget 0.3 -metrics "$$tmp/metrics.json" > "$$tmp/a.out" 2> "$$tmp/a.err" && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled -reshape pad,dummy -reshape-seed 7 \
		-reshape-budget 0.3 > "$$tmp/b.out" 2> "$$tmp/b.err" && \
	"$$tmp/moniotr" -scale tiny -skip-uncontrolled > "$$tmp/clean.out" 2> "$$tmp/clean.err" && \
	cmp "$$tmp/a.out" "$$tmp/b.out" && \
	! cmp -s "$$tmp/a.out" "$$tmp/clean.out" && \
	grep -q '"reshape_padded_packets_total"' "$$tmp/metrics.json" && \
	grep -q '"reshape_dummy_packets_total"' "$$tmp/metrics.json" && \
	echo "reshape-smoke: defended campaign reproducible, distinct from clean, transforms accounted"
