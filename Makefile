GO ?= go

.PHONY: check test build loc vet race race-short fuzz fuzz-stream fuzz-serve fuzz-tfidf fuzz-align bench bench-coarse bench-fine bench-vocab bench-compact bench-record bench-all experiments

## check: the full gate — vet (go vet + the static-analysis test), build,
## and race-enabled tests.
check: vet
	$(GO) build ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

## loc: the non-test Go line count (bench/ and testdata excluded), the
## one size figure simplification changes report.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

## vet: go vet plus the project's own static-analysis suite, whose gate
## is TestRepoSelfCheck in internal/analysis (maporder, floateq, ctxerr,
## and the interprocedural scratchalias; copies of lock-bearing values
## are go vet's copylocks pass, races and goroutine joins are the race
## detector's). Fails on any unsuppressed finding; -v lists the
## suppressed ones. `go test ./...` runs the same test.
vet:
	$(GO) vet ./...
	$(GO) test -v -count=1 -run '^TestRepoSelfCheck$$' ./internal/analysis

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

## fuzz: bounded bursts of the Workers:1-vs-Workers:4 determinism fuzzer
## and of the pipeline fuzzer (arbitrary document sets through Run: no
## panic, every accepted cluster compresses within its Lemma 1 bound).
## Every fuzz target caps the minimizing of a new input at 2 s
## (-fuzzminimizetime): the default 60 s can stall a short burst at
## 0 execs/s while it minimizes.
fuzz:
	$(GO) test -fuzz FuzzDetectDeterminism -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -fuzz 'FuzzRun$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/core

## fuzz-stream: bounded bursts of the streaming fuzzers — the serve-path
## fuzzer (interleaved Add / AddBatch / Flush / persist round-trips,
## serial vs batched-parallel equivalence and each tiered index against
## a rebuild, optionally with the incremental miner and lifecycle on,
## vocabulary compaction included)
## and the state loader (arbitrary
## bytes never panic Load; an accepted state reaches a Save fixpoint).
## Anchored patterns, as in fuzz-serve.
fuzz-stream:
	$(GO) test -fuzz 'FuzzStreamOps$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/stream
	$(GO) test -fuzz 'FuzzLoad$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/stream

## fuzz-serve: bounded bursts of both daemon fuzzers — the single-shard
## HTTP fuzzer (interleaved single/batch/flush/snapshot requests,
## verdicts checked op-by-op against a serial reference detector) and
## the sharded fuzzer (random shard count, WAL-backed, kill + replay
## crash recovery against per-shard serial references). The patterns
## are anchored: Go refuses a -fuzz that matches more than one target.
fuzz-serve:
	$(GO) test -fuzz 'FuzzServe$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -fuzz 'FuzzServeSharded$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/serve

## fuzz-tfidf: bounded bursts of the phrase-substrate fuzzers shared by
## batch Coarse and the incremental miner — the extractor fuzzer (random
## small corpora over a 4-6 word vocabulary and a random worker count,
## selections checked against the string-key reference extractor) and
## the DF table fuzzer (random inc/dec against a map over forged keys
## whose probe runs wrap the table's end). Anchored patterns, as in
## fuzz-serve.
fuzz-tfidf:
	$(GO) test -fuzz 'FuzzTopPhraseIDs$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/tfidf
	$(GO) test -fuzz 'FuzzMineDF$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/tfidf

## fuzz-align: bounded bursts of the alignment fuzzers. Fine's screen,
## the matcher and the merge probe price every C(d|T) through one call
## that runs the banded DP or align's one full-table fill; these check
## the banded DP (op for op, with and without slots) and the bit-parallel
## distance against the full fill, and the admissible lower bounds
## against the cost of its alignment.
## Anchored patterns, as in fuzz-serve.
fuzz-align:
	$(GO) test -fuzz 'FuzzWildBanded$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/align
	$(GO) test -fuzz 'FuzzWildBitParallel$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/align
	$(GO) test -fuzz 'FuzzWildLowerBoundAdmissible$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/align

## bench: the end-to-end pipeline benchmark at both corpus sizes,
## repeated for stable numbers.
bench:
	$(GO) test -bench=PipelineEndToEnd -benchmem -count=5 -run '^$$'

## bench-coarse: the coarse-pass microbenchmarks, including the
## 1/2/4/8-worker scaling sweep and the tf-idf kernel at the detect-batch
## benchmark's 8000-tweet shape (BenchmarkTopPhraseIDs/accounts=800x10).
bench-coarse:
	$(GO) test -bench='Coarse|TopPhrase' -benchmem -run '^$$'

## bench-fine: the fine-pass microbenchmarks — the 1/2/4/8-worker sweep
## on the 50-account corpus and at the detect-batch benchmark's shape
## (BenchmarkFine/accounts=800x10), and the straggler-shaped skewed corpus
## (BenchmarkFineSkewed).
bench-fine:
	$(GO) test -bench='BenchmarkFine$$|BenchmarkFineSkewed$$' -benchmem -run '^$$'

## bench-vocab: the vocabulary's encode cost and footprint on a
## daemon-shaped token stream (campaign documents over a word bank plus
## fillers, and noise words that are almost all new): ns/word per encoded
## token and live-B/word, the heap live after GC per interned word.
bench-vocab:
	$(GO) test -bench='BenchmarkVocabEncode$$' -benchmem -benchtime 400000x -run '^$$' ./internal/tokenize

## bench-compact: one lifecycle vocabulary compaction of a mine-drift
## detector holding 64 live templates and a full 2,048-document retained
## window: ns per compaction, the words before it and the words kept.
bench-compact:
	$(GO) test -bench='BenchmarkVocabCompact$$' -benchmem -run '^$$' ./internal/stream

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
