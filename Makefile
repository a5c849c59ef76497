GO ?= go

.PHONY: build test race vet bench bench-phmm bench-stream bench-call bench-index fuzz chaos chaos-resume metrics check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine, accumulators, cluster runtime and metrics registry are
# concurrent; -race on the full tree is slow, so the gate covers the
# concurrent packages plus the root package (streaming e2e identity),
# the PHMM and calling-sweep kernels (batched-vs-scalar bit-exactness
# property tests, including the lrt batch evaluator) and the FASTQ
# parser (fuzz seed corpus).
race:
	$(GO) test -race . ./internal/core/... ./internal/phmm/... ./internal/cluster/... ./internal/genome/... ./internal/snp/... ./internal/lrt/... ./internal/obs/... ./internal/fastq/... ./internal/ckpt/... ./internal/kmer/...

vet:
	$(GO) vet ./...

# Kernel + engine benchmarks with allocation accounting (the banded
# speedup and the 0 allocs/op gates live here).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/phmm/
	$(GO) test -bench 'BenchmarkMapRead' -benchmem -benchtime 2000x -run '^$$' ./internal/core/

# Machine-readable kernel trajectory: scalar and batched kernel rows
# (batched verified bit-exact against scalar before timing) plus
# end-to-end engine reads/sec (writes BENCH_phmm.json).
bench-phmm:
	$(GO) run ./cmd/snpbench -exp phmm -length 120000 -coverage 4

# Streamed vs materialized input on the same FASTQ, both through the
# one bounded mapping pipeline: the slice row loads every read first,
# the stream row maps straight off the file (writes BENCH_stream.json:
# reads/sec, peak heap, peak resident reads).
bench-stream:
	$(GO) run ./cmd/snpbench -exp stream -length 120000 -coverage 6

# Parallel post-map phase: scalar and vectorized calling sweeps at
# 1/2/4/8 workers (every row asserted identical to the scalar serial
# reference), prescreen ns/position per sweep flavor with the dispatched
# kernel stamped, plus striped-vs-sharded accumulation throughput
# (writes BENCH_call.json).
bench-call:
	$(GO) run ./cmd/snpbench -exp call -length 150000 -coverage 6

# Large-seed index vs the k=10 direct table: candidate selectivity,
# throughput, accuracy, and the mmap persistence leg (writes
# BENCH_index.json; the CI gate asserts the selectivity ratio, the
# load speedup, and VCF identity through a save/load cycle).
bench-index:
	$(GO) run ./cmd/snpbench -exp index -length 400000 -coverage 12

# Short coverage-guided fuzz passes: the FASTQ parser and the on-disk
# seed-index decoder (both checked-in seed corpora always run as part
# of plain `go test`).
fuzz:
	$(GO) test -fuzz FuzzReaderNext -fuzztime 20s ./internal/fastq/
	$(GO) test -fuzz FuzzDecodeIndex -fuzztime 20s ./internal/kmer/

# Fault-tolerance gate: seeded chaos collectives, crash/heartbeat
# detection, TCP hardening, and degraded-mode read-split — all
# deterministic (fixed seeds live in the tests) and race-checked.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Crash|Heartbeat|RecvPatient|Degraded|FTMatches|Dial|Frame|Hardening|Timeout' ./internal/cluster/ ./internal/core/

# Kill-and-recover gate: the real gnumap-snp binary (race-built),
# SIGKILLed at randomized points after checkpoint commits and relaunched
# with -resume until the VCF matches an uninterrupted run byte-for-byte,
# in single-process and np=4 read-split cluster modes; plus the SIGTERM
# graceful-stop path (drain, final checkpoint, exit code 3, resume).
chaos-resume:
	$(GO) test -count=1 -timeout 20m -run 'ChaosKillResume|GracefulStopResume' ./cmd/

# Observability smoke: a small 2-node cluster run that writes
# metrics.json, schema-checks it, and prints the merged summary.
metrics:
	$(GO) run ./cmd/snpbench -exp metrics -length 60000 -coverage 4 -metrics-out metrics.json

check: build vet test race
