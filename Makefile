GO ?= go

.PHONY: check test build vet vet-fast race race-short fuzz fuzz-stream fuzz-serve fuzz-tfidf bench bench-coarse bench-json bench-scale bench-shard bench-lifecycle bench-all profile-scale experiments

## check: the full gate — vet (go vet + infoshield-vet), build, and
## race-enabled tests.
check: vet
	$(GO) build ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

## vet: go vet plus the project's own static-analysis suite
## (cmd/infoshield-vet: maporder, looprace, floateq, ctxerr, and the
## interprocedural scratchalias, goleak, atomicmix, chanproto; copies of
## lock-bearing values are go vet's copylocks pass). Must exit 0 with
## zero unsuppressed findings. Pass extra infoshield-vet
## flags through VET_FLAGS, e.g.
## `make vet VET_FLAGS='-json -sarif infoshield-vet.sarif'`.
VET_FLAGS ?=
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/infoshield-vet $(VET_FLAGS)

## vet-fast: incremental re-run — analyzes only packages with files
## newer than the .vet-stamp left by the previous clean vet-fast run
## (first run is a full pass). The module is still fully type-checked,
## so interprocedural facts stay exact.
vet-fast:
	$(GO) run ./cmd/infoshield-vet -since .vet-stamp $(VET_FLAGS)
	@touch .vet-stamp

test:
	$(GO) test ./...

## race: the race detector over every package. The -short leg of the
## worker-equivalence gate keeps this tractable in CI.
race:
	$(GO) test -race ./...

## race-short: the CI-shaped race run — -short trims the scale suites to
## the 1k-template concurrent AddBatch exercise of the arena and index
## paths (TestScaleRaceShort) so the detector still covers them.
race-short:
	$(GO) test -race -short ./...

## fuzz: a bounded burst of the Workers:1-vs-Workers:4 determinism fuzzer.
fuzz:
	$(GO) test -fuzz FuzzDetectDeterminism -fuzztime 30s .

## fuzz-stream: bounded bursts of both streaming fuzzers — the serve-path
## fuzzer (interleaved Add / AddBatch / Flush / persist round-trips,
## serial vs batched-parallel equivalence, optionally with the
## incremental miner and lifecycle on) and the incremental miner's
## window DF table (random inc/dec against a map over forged colliding
## keys). Anchored patterns, as in fuzz-serve.
fuzz-stream:
	$(GO) test -fuzz 'FuzzStreamOps$$' -fuzztime 30s ./internal/stream
	$(GO) test -fuzz 'FuzzMineDF$$' -fuzztime 30s ./internal/stream

## fuzz-serve: bounded bursts of both daemon fuzzers — the single-shard
## HTTP fuzzer (interleaved single/batch/flush/snapshot requests,
## verdicts checked op-by-op against a serial reference detector) and
## the sharded fuzzer (random shard count, WAL-backed, kill + replay
## crash recovery against per-shard serial references). The patterns
## are anchored: Go refuses a -fuzz that matches more than one target.
fuzz-serve:
	$(GO) test -fuzz 'FuzzServe$$' -fuzztime 30s ./internal/serve
	$(GO) test -fuzz 'FuzzServeSharded$$' -fuzztime 30s ./internal/serve

## fuzz-tfidf: a bounded burst of the tf-idf kernel fuzzer (random
## small corpora over a 4-6 word vocabulary and a random worker count,
## selections checked against the string-key reference extractor).
fuzz-tfidf:
	$(GO) test -fuzz FuzzTopPhraseIDs -fuzztime 30s ./internal/tfidf

## bench: the end-to-end pipeline benchmark at both corpus sizes,
## repeated for stable numbers.
bench:
	$(GO) test -bench=PipelineEndToEnd -benchmem -count=5 -run '^$$'

## bench-coarse: the coarse-pass microbenchmarks, including the
## 1/2/4/8-worker scaling sweep and the tf-idf kernel at the detect-batch
## benchmark's 8000-tweet shape (BenchmarkTopPhraseIDs/accounts=800x10).
bench-coarse:
	$(GO) test -bench='Coarse|TopPhrase' -benchmem -run '^$$'

## bench-json: the coarse, fine, end-to-end, streaming, and serving
## benchmarks archived as machine-readable JSON via cmd/benchjson (plus
## the raw text). CI runs this with BENCH_COUNT=1 and uploads
## BENCH_fine.json, BENCH_stream.json, and BENCH_serve.json as
## artifacts; use the default count locally for stable numbers.
BENCH_COUNT ?= 5
bench-json:
	$(GO) test -bench='Coarse|Fine|PipelineEndToEnd' -benchmem -count=$(BENCH_COUNT) -run '^$$' > BENCH_fine.txt
	$(GO) run ./cmd/benchjson -o BENCH_fine.json < BENCH_fine.txt
	$(GO) test -bench='StreamAdd$$|StreamAddBatch' -benchmem -count=$(BENCH_COUNT) -run '^$$' > BENCH_stream.txt
	$(GO) run ./cmd/benchjson -o BENCH_stream.json < BENCH_stream.txt
	$(GO) test -bench='ServeCoalesce|ServeHTTP' -benchmem -count=$(BENCH_COUNT) -run '^$$' ./internal/serve > BENCH_serve.txt
	$(GO) run ./cmd/benchjson -o BENCH_serve.json < BENCH_serve.txt

## bench-scale: the template-count scaling curve — steady-state Add at
## 1k/10k/100k bulk-loaded multi-market templates with DP-skip rates and
## surviving-candidate counts (BenchmarkStreamAddScale) — archived as
## BENCH_scale.{txt,json}. CI runs this with BENCH_COUNT=1 and uploads
## both as artifacts.
bench-scale:
	$(GO) test -bench='StreamAddScale' -benchmem -count=$(BENCH_COUNT) -run '^$$' -timeout 30m > BENCH_scale.txt
	$(GO) run ./cmd/benchjson -o BENCH_scale.json < BENCH_scale.txt

## profile-scale: CPU and heap profiles of the 100k-template steady-state
## Add path (BenchmarkStreamAddScale), written to profile_scale_cpu.out /
## profile_scale_mem.out for `go tool pprof`. CI uploads both as
## artifacts so a perf regression caught by bench-scale can be diagnosed
## from the archived run without reproducing locally.
profile-scale:
	$(GO) test -bench='StreamAddScale/templates=100000' -run '^$$' -timeout 30m \
		-cpuprofile profile_scale_cpu.out -memprofile profile_scale_mem.out \
		-o profile_scale.test > PROFILE_scale.txt
	cat PROFILE_scale.txt

## bench-shard: the sharded-serving sweep — shards 1/2/4/8 under 16 and
## 64 concurrent clients, plus WAL-enabled points at 1 and 4 shards —
## archived as BENCH_shard.{txt,json}. Docs-per-group-commit is reported
## per run; on a single-vCPU runner the shard sweep measures routing and
## fan-out overhead rather than parallel speedup (the benchmark logs a
## note when GOMAXPROCS=1).
bench-shard:
	$(GO) test -bench='ServeSharded' -benchmem -count=$(BENCH_COUNT) -run '^$$' -timeout 30m ./internal/serve > BENCH_shard.txt
	$(GO) run ./cmd/benchjson -o BENCH_shard.json < BENCH_shard.txt

## bench-lifecycle: steady-state continuous mining on an unbounded
## drifting-campaign stream (BenchmarkStreamLifecycleFlush) with the
## template cap, TTL, MDL merge, and incremental miner on — flush p50/p99
## latency (promoted to first-class JSON fields), bytes/op as the RSS
## proxy, the steady-state live-template count, and the mine-drift
## sub-benchmark (the daemon workload's shape, with ns/doc) —
## archived as BENCH_lifecycle.{txt,json} (committed). CI runs this with
## BENCH_COUNT=1 and uploads both as artifacts.
bench-lifecycle:
	$(GO) test -bench='StreamLifecycleFlush' -benchmem -count=$(BENCH_COUNT) -run '^$$' -timeout 30m ./internal/stream > BENCH_lifecycle.txt
	$(GO) run ./cmd/benchjson -o BENCH_lifecycle.json < BENCH_lifecycle.txt

bench-all:
	$(GO) test -bench=. -benchmem -run '^$$'

## experiments: regenerate the paper's tables and figures (small scale).
experiments:
	$(GO) run ./cmd/experiments
