#!/bin/sh
# Tier-1 verification: build, vet, a format gate (gofmt must list no
# file), a size gate (new CHANGES.md lines), a dependency gate (verisoft
# and reclose link neither net/http nor runtime/cgo), full tests,
# race-detector legs over the packages with real concurrency, and a
# short fuzz smoke over the front end, the checkpoint decoder, the
# machine judge, the job request parser and the dist frame codec (5s
# per target; the checkpoint target
# also checks that a snapshot that restores re-encodes to bytes decoding
# to an equal snapshot, and the judge's target, whose seeds are the
# judge's hand-written programs and three open randprog.Pointers
# programs it closes, runs the compiled machines and the reference down
# one schedule of steps, forks, undone excursions and resets over every
# input that closes). The last two guard the one option decoder:
# an accepted job names options explore.Options.Resolve accepts, and a
# hello's options are explore.Options' own JSON, unknown mode names
# refused. The seventh judges the closer: Close(S) keeps every trace,
# deadlock and assertion violation of S x E_S on a random program. The
# eighth judges the state cache: every answer and every counter of its
# open-addressed index over chained slots equals the map-of-slices
# reference cache's, under the fuzzer's hash family, shards and budget.
# -count=1 defeats the test cache: a verification run must actually run.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
# Size gate: a CHANGES.md entry is its claim, contract, tests changed and
# a ledger pointer; the ledger holds the rest. Every line after the last
# one starting "PR 40" is at most 1 536 bytes (the line numbers over it
# are printed).
test -z "$(LC_ALL=C awk '/^PR 40/ { last = NR } { n[NR] = length($0) }
	END { for (i = last + 1; i <= NR; i++) if (n[i] > 1536) print i }' CHANGES.md)"
# The command-line tools link no HTTP stack and no cgo: one net/http
# import (verisoft's old -pprof listener) cost every process about 2 ms
# and 5 MiB before it read its input.
test -z "$(go list -deps ./cmd/verisoft ./cmd/reclose | grep -E '^(net/http|runtime/cgo)$')"
go test -count=1 -timeout=10m ./...

# Exploration race leg: every test of the search driver, the interpreter
# it runs on, and the observability instruments and state cache all of
# them share. It covers, with the race detector watching:
#   - the conformance lattice (lattice_test.go): every program held to
#     its baseline at the contract its cell derives, along the axes
#     engine × POR × cache (shards, bounded) × liveness ×
#     workers × snapshot spill and spill depth × replay-only
#     backtracking × driver (Explore, checkpoint cut + Resume,
#     Distribute over in-process slicers) × registry on/off — the
#     shared frontier shards, cache and backtrack folds under the race
#     scheduler's timings;
#   - the machine judge (the compiled machine, with incremental state
#     hashing and rendering in full, against the reference interpreter
#     down one schedule of steps, forks, undone excursions and resets:
#     byte-identical even under the race scheduler's timings);
#   - backtracking by undoing: the write trail's rule tests, the
#     trail's bound, the running depth count and the panic recoveries
#     (shared snapshot-spill machines that several workers fork at once);
#   - checkpoints as pauses: workers stopped and restarted in place
#     1 897 times on the lock server, at 0, 1 and 2 workers;
#   - liveness: the nested-DFS cycle search over the shared state cache
#     (blue stack + red searches under parallel workers) and the
#     liveness-off byte-identity contract;
#   - the value representation: -race turns on checkptr, so this is also
#     the leg that validates every conversion of value.go's unsafe
#     reference (a pointer's cell, an array's backing) and every Arr
#     slice of it, over all of the interp tests above — the
#     communication objects' tests (object_test.go) included, whose
#     channel queues and shared variables hold such Values.
go test -count=1 -timeout=10m -race ./internal/explore/... ./internal/interp/... ./internal/obs/... ./internal/statecache/...

# The two seeded-livelock workload generators under the race detector:
# nothing above runs their tests.
go test -count=1 -timeout=10m -race ./internal/leaderelect/ ./internal/lockserver/

# Distributed-exploration race leg: real worker subprocesses under the
# search driver's slice workers (the driver itself, over an in-process
# transport, is in the explore leg above) — the equivalence grid against
# the in-process engine (workers × spill, and workers × cache shards with
# one private cache per worker process), the worker-crash recovery tests
# (panics, a lease that runs out), the worker's one loop driven
# in-process over pipes, a shutdown whose grace period expires, and a
# check that Run leaves no goroutine and no child behind, all with the
# race detector watching each slice worker's goroutine, its timers and
# the reaper.
go test -count=1 -timeout=10m -race ./internal/dist/

# Job-server race leg: the daemon's queue/retry/journal machinery plus
# the fault-injection plan it is tested with, including the 50-seed
# crash-recovery equivalence run, all under the race detector.
go test -count=1 -timeout=10m -race ./internal/jobs/... ./internal/faultinject/... ./internal/atomicio/...

# Daemon smoke: a real verisoftd subprocess — boot, submit a job over
# HTTP, poll to the result, drain with SIGTERM, exit 0 — plus the
# distributed variant that re-execs worker subprocesses.
go test -count=1 -timeout=10m -run 'TestDaemonSmoke|TestDaemonDistJob' ./cmd/verisoftd/

# Each smoke runs its own target only: -run picks the fuzz target, which
# replays its seed corpus before fuzzing, and no test of its package (the
# suites ran above).
go test -run '^FuzzLexer$' -fuzz=FuzzLexer -fuzztime=5s ./internal/lexer/
go test -run '^FuzzParser$' -fuzz=FuzzParser -fuzztime=5s ./internal/parser/
go test -run '^FuzzCheckpointDecode$' -fuzz=FuzzCheckpointDecode -fuzztime=5s ./internal/explore/
go test -run '^FuzzBytecodeLockstep$' -fuzz=FuzzBytecodeLockstep -fuzztime=5s ./internal/interp/
go test -run '^FuzzJobRequest$' -fuzz=FuzzJobRequest -fuzztime=5s ./internal/jobs/
go test -run '^FuzzDistProtocol$' -fuzz=FuzzDistProtocol -fuzztime=5s ./internal/dist/
go test -run '^FuzzClosePreservation$' -fuzz=FuzzClosePreservation -fuzztime=5s ./internal/randprog/
go test -run '^FuzzCacheMatchesReference$' -fuzz=FuzzCacheMatchesReference -fuzztime=5s ./internal/statecache/

# Bench smoke: one iteration of the three benchmarks scripts/profile.sh
# profiles (catches bit-rot in the tool's input; time is measured by
# `go run ./benchmark`, counts are asserted by the tests above).
go test -run '^$' -bench 'BenchmarkBacktrack|BenchmarkStateful|BenchmarkClose' -benchtime=1x .

# Not a gate: non-test Go lines per package, and the non-test and test
# totals the simplicity entries in CHANGES.md quote.
scripts/loc.sh
