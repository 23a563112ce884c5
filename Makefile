# Verification targets for the iroram reproduction.
#
#   make build       compile everything
#   make vet         static analysis
#   make test        unit + experiment tests (tier-1)
#                    (includes the *ZeroAllocs gates: the steady-state hot
#                    paths must not allocate)
#   make race        full tree under the race detector (the parallel
#                    experiment engine must stay race-clean)
#   make docscheck   gate: exported facade/metrics identifiers must carry doc
#                    comments, docs/METRICS.md must match the metrics
#                    registry's self-description both ways, README's
#                    flag tables must match the declared cmd flags both
#                    ways, the cmd/, examples/ and internal/ layout
#                    lists of README.md and DESIGN.md must match the
#                    directories both ways, and every func or method
#                    outside the facade must be named in some non-test
#                    file besides its declaration (code only tests run
#                    belongs in _test.go files)
#   make fmtcheck    gate: every Go file is gofmt-clean
#   make benchmod    vet + tests of the nested benchmark/ module, which the
#                    root ./... patterns skip but which compiles against
#                    core.Controller/core.Stats
#   make depcheck    gate: no production package (nor the benchmark binary)
#                    links package testing (test-only code lives in _test.go)
#                    or net/http (every observability view is recorded
#                    output; no command serves a live endpoint)
#   make check       all of the above — the documented verification flow
#   make bench       every go benchmark: one per paper figure plus the
#                    hot-path microbenchmarks in their packages
#   make flightcheck trace a quick fig10 run, diff the trace bytes across
#                    -jobs 4 and -jobs 1 with -dedup/-overlap off, and
#                    summarize it with flightstat, as the CI flight job
#                    does (the traces stay in flight-out/ for inspection)
#   make determinism byte-diff quick fig10 stdout across -jobs 1 and 4,
#                    quick -fig all stdout and JSONL (-epochs 500) with the
#                    cell cache and overlap on at -jobs 4 against both off
#                    at -jobs 1, and run tree.Load's differential at 1, 2
#                    and 4 CPUs, as the CI determinism job does (on a
#                    mismatch the outputs stay in determinism-out/)
#   make scaled      regenerate the default-scale results (-fig all at
#                    30,000 requests, the extension figures at 20,000) and
#                    byte-diff them against results_scaled.txt and
#                    results_extensions.txt, as the CI scaled job does
#                    (about 75 s on 2 CPUs; on a mismatch the outputs
#                    stay in scaled-out/)
#   make profile     CPU+heap profile of a quick fig10 regeneration
#   make profile-top profile, then print the top 25 flat-cost functions

GO ?= go

.PHONY: build vet test race docscheck fmtcheck benchmod depcheck check bench flightcheck determinism scaled profile profile-top

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

docscheck:
	$(GO) run ./cmd/docscheck

fmtcheck:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmtcheck: run gofmt -w on the files above"; exit 1; }

benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

depcheck:
	@deps=$$($(GO) list -deps ./... && cd benchmark && $(GO) list -deps .) || exit 1; \
	status=0; \
	if echo "$$deps" | grep -qx testing; then \
		echo "depcheck: production code links package testing; move it into _test.go files"; \
		$(GO) list -f '{{.ImportPath}} imports {{join .Imports " "}}' ./... | grep -w testing; \
		status=1; \
	fi; \
	if echo "$$deps" | grep -qx net/http; then \
		echo "depcheck: production code links package net/http; no command serves a live endpoint"; \
		$(GO) list -f '{{.ImportPath}} imports {{join .Imports " "}}' ./... | grep -w net/http; \
		status=1; \
	fi; \
	exit $$status

check: build vet test race docscheck fmtcheck benchmod depcheck

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

flightcheck:
	rm -rf flight-out
	mkdir -p flight-out
	$(GO) build -o flight-out/exp ./cmd/experiments
	flight-out/exp -fig fig10 -quick -progress=false -jobs 4 \
		-flight flight-out/j4 -flight-sample 8 > /dev/null
	flight-out/exp -fig fig10 -quick -progress=false -jobs 1 \
		-dedup=false -overlap=false -flight flight-out/j1 -flight-sample 8 > /dev/null
	diff -r flight-out/j4 flight-out/j1
	$(GO) run ./cmd/flightstat flight-out/j4/fig10.trace.json

determinism:
	rm -rf determinism-out
	mkdir -p determinism-out
	$(GO) build -o determinism-out/exp ./cmd/experiments
	determinism-out/exp -fig fig10 -quick -jobs 1 -progress=false > determinism-out/fig10_j1.txt
	determinism-out/exp -fig fig10 -quick -jobs 4 -progress=false > determinism-out/fig10_j4.txt
	diff -u determinism-out/fig10_j1.txt determinism-out/fig10_j4.txt
	determinism-out/exp -fig all -quick -requests 2000 -jobs 4 -progress=false \
		-emit jsonl -out determinism-out/art_cached -epochs 500 > determinism-out/all_cached.txt
	determinism-out/exp -fig all -quick -requests 2000 -jobs 1 -progress=false \
		-dedup=false -overlap=false \
		-emit jsonl -out determinism-out/art_direct -epochs 500 > determinism-out/all_direct.txt
	diff -u determinism-out/all_direct.txt determinism-out/all_cached.txt
	diff -r determinism-out/art_direct determinism-out/art_cached
	$(GO) test -count=1 -run 'TestLoad' -cpu 1,2,4 ./internal/tree
	rm -r determinism-out

# The figures results_extensions.txt holds, in its order.
EXT_FIGS = ring corun futurework ablation-sstash ablation-interval ablation-mlp ablation-plb

scaled:
	mkdir -p scaled-out
	$(GO) build -o scaled-out/exp ./cmd/experiments
	scaled-out/exp -fig all -requests 30000 -jobs 2 -progress=false > scaled-out/scaled.txt
	cmp scaled-out/scaled.txt results_scaled.txt
	: > scaled-out/extensions.txt
	for f in $(EXT_FIGS); do \
		scaled-out/exp -fig $$f -requests 20000 -jobs 2 -progress=false >> scaled-out/extensions.txt || exit 1; \
	done
	cmp scaled-out/extensions.txt results_extensions.txt
	rm -r scaled-out

profile:
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -sample_index=alloc_space -top mem.pprof"

profile-top: profile
	$(GO) tool pprof -top -nodecount=25 cpu.pprof
