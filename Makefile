GO ?= go

.PHONY: check test build vet vet-fast race race-short fuzz fuzz-stream fuzz-serve fuzz-tfidf bench bench-coarse bench-record bench-all experiments

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

## fuzz-stream: bounded bursts of the streaming fuzzers — the serve-path
## fuzzer (interleaved Add / AddBatch / Flush / persist round-trips,
## serial vs batched-parallel equivalence, optionally with the
## incremental miner and lifecycle on) and the state loader (arbitrary
## bytes never panic Load; an accepted state reaches a Save fixpoint).
## Anchored patterns, as in fuzz-serve.
fuzz-stream:
	$(GO) test -fuzz 'FuzzStreamOps$$' -fuzztime 30s ./internal/stream
	$(GO) test -fuzz 'FuzzLoad$$' -fuzztime 30s ./internal/stream

## fuzz-serve: bounded bursts of both daemon fuzzers — the single-shard
## HTTP fuzzer (interleaved single/batch/flush/snapshot requests,
## verdicts checked op-by-op against a serial reference detector) and
## the sharded fuzzer (random shard count, WAL-backed, kill + replay
## crash recovery against per-shard serial references). The patterns
## are anchored: Go refuses a -fuzz that matches more than one target.
fuzz-serve:
	$(GO) test -fuzz 'FuzzServe$$' -fuzztime 30s ./internal/serve
	$(GO) test -fuzz 'FuzzServeSharded$$' -fuzztime 30s ./internal/serve

## fuzz-tfidf: bounded bursts of the phrase-substrate fuzzers shared by
## batch Coarse and the incremental miner — the extractor fuzzer (random
## small corpora over a 4-6 word vocabulary and a random worker count,
## selections checked against the string-key reference extractor) and
## the DF table fuzzer (random inc/dec against a map over forged keys
## whose probe runs wrap the table's end). Anchored patterns, as in
## fuzz-serve.
fuzz-tfidf:
	$(GO) test -fuzz 'FuzzTopPhraseIDs$$' -fuzztime 30s ./internal/tfidf
	$(GO) test -fuzz 'FuzzMineDF$$' -fuzztime 30s ./internal/tfidf

## bench: the end-to-end pipeline benchmark at both corpus sizes,
## repeated for stable numbers.
bench:
	$(GO) test -bench=PipelineEndToEnd -benchmem -count=5 -run '^$$'

## bench-coarse: the coarse-pass microbenchmarks, including the
## 1/2/4/8-worker scaling sweep and the tf-idf kernel at the detect-batch
## benchmark's 8000-tweet shape (BenchmarkTopPhraseIDs/accounts=800x10).
bench-coarse:
	$(GO) test -bench='Coarse|TopPhrase' -benchmem -run '^$$'

## bench-record: the committed benchmark ledger. Runs every workload in
## BENCHMARK.json once, traced, at the harness's default seed (1) and run
## length (16 s, the length benchmark runs are judged at), and copies each
## run record to BENCH_<workload>.json. Record on a clean tree, so each
## record's git_head names the code it measured. Compare a later run
## against the ledger (same machine only; another fingerprint exits 3):
## `bash bench/run.sh -compare BENCH_<w>.json -- bench/out/<w>-*.json`.
bench-record:
	rm -rf .bench_build/record
	bash bench/run.sh --trace 1 -out .bench_build/record
	for f in .bench_build/record/*-seed1-*.json; do \
		w=$${f##*/}; cp "$$f" "BENCH_$${w%%-seed1-*}.json"; \
	done

bench-all:
	$(GO) test -bench=. -benchmem -run '^$$'

## experiments: regenerate the paper's tables and figures (small scale).
experiments:
	$(GO) run ./cmd/experiments
