# Verification targets for the iroram reproduction.
#
#   make build       compile everything
#   make vet         static analysis
#   make test        unit + experiment tests (tier-1)
#   make race        full tree under the race detector (the parallel
#                    experiment engine must stay race-clean)
#   make alloccheck  gate: the steady-state hot paths (path access, evict,
#                    tree walk, tree-top find, LLC access, DWB scan,
#                    histogram observe, fully-traced flight access, cached
#                    DRAM run service, IR-Stash fill) must not allocate
#   make docscheck   gate: exported facade/metrics identifiers must carry doc
#                    comments, and docs/METRICS.md must match the metrics
#                    registry's self-description both ways
#   make fmtcheck    gate: every Go file is gofmt-clean
#   make benchmod    vet + tests of the nested benchmark/ module, which the
#                    root ./... patterns skip but which compiles against
#                    core.Controller/core.Stats
#   make check       all of the above — the documented verification flow
#   make bench       benchmark harness (one benchmark per paper figure)
#   make benchjson   performance-trajectory snapshot (BENCH_pr10.json, min of
#                    5 reps per benchmark); fails if the quick fig10 gmeans
#                    drift from BENCH_pr9.json
#   make benchcmp    compare BENCH_pr10.json against BENCH_pr9.json: fails on
#                    >10% ns/op regression or any metric drift
#   make flightcheck trace a quick fig10 run, validate it with flightstat,
#                    and diff the trace bytes across -jobs 1 and -jobs 4
#   make profile     CPU+heap profile of a quick fig10 regeneration
#   make profile-top profile, then print the top 25 flat-cost functions

GO ?= go

.PHONY: build vet test race alloccheck docscheck fmtcheck benchmod check bench benchjson benchcmp flightcheck profile profile-top

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

alloccheck:
	$(GO) run ./cmd/benchjson -check

docscheck:
	$(GO) run ./cmd/docscheck

fmtcheck:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmtcheck: run gofmt -w on the files above"; exit 1; }

benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

check: build vet test race alloccheck docscheck fmtcheck benchmod

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

benchjson:
	$(GO) run ./cmd/benchjson -out BENCH_pr10.json -baseline BENCH_pr9.json

benchcmp:
	$(GO) run ./cmd/benchjson -diff BENCH_pr10.json -against BENCH_pr9.json

flightcheck:
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false -jobs 4 \
		-flight flight-j4 -flight-sample 8 > /dev/null
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false -jobs 1 \
		-dedup=false -overlap=false -flight flight-j1 -flight-sample 8 > /dev/null
	diff -r flight-j4 flight-j1
	$(GO) run ./cmd/flightstat flight-j4/fig10.trace.json
	rm -r flight-j4 flight-j1

profile:
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -sample_index=alloc_space -top mem.pprof"

profile-top: profile
	$(GO) tool pprof -top -nodecount=25 cpu.pprof
