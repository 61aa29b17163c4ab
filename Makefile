GO ?= go

.PHONY: build test check vet faults trace-check scale-check chaos-check mux-check telemetry-check rfp-check adversary-check race-runner bench bench-record bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static analysis plus the full suite under the race
# detector. The parallel sweep runner makes simulations genuinely
# concurrent, so -race here guards the "no shared mutable state between
# sims" invariant, not just test hygiene.
check: vet faults trace-check scale-check chaos-check mux-check telemetry-check rfp-check adversary-check
	$(GO) test -race ./...

# adversary-check runs the attack suite under the race detector: the ibsim
# access-flag/bounds enforcement matrix and FMR remap-window tests, the
# forged-DONE regression tests (dedicated, sharded, and shared-QP paths),
# the fixed-seed adversary experiments (rkey scan TTC ranking, spoof
# quarantine scoping, DRC forgery isolation, attack-under-chaos, same-seed
# byte-identity), the experiment-level sweep including its
# sequential-vs-parallel determinism check, and the posture tests (the
# zero-value cluster config is the hardened one).
adversary-check:
	$(GO) test -race ./internal/adversary/
	$(GO) test -race -run 'Adversary|Forged|Spoof|Quarantine|AccessEnforcement|RemapWindow|Hoard|Malicious|Posture' \
		./internal/ibsim/ ./internal/rpcrdma/ ./internal/core/ ./internal/experiments/

# chaos-check runs the chaos engine under the race detector: the seeded
# fault-schedule generator, the crash/restart primitive, the data-integrity
# oracle, the ddmin schedule shrinker, and a short soak (32 seeds × both
# designs in the chaos package's soak test). For a longer campaign, widen
# the soak with CHAOS_SEEDS, e.g.:
#
#     CHAOS_SEEDS=256 make chaos-check
chaos-check:
	$(GO) test -race -run 'Chaos|CrashRestart|Shrink|Oracle' \
		./internal/chaos/ ./internal/core/ ./internal/workload/ \
		./internal/experiments/

# mux-check runs the shared-QP connection-multiplexing path under the race
# detector: the ibsim mux QP primitive (attach/detach, stream demux, slot
# reuse, error scoping), the rpcrdma endpoint layer and its credit
# sub-accounting, the core cluster integration (integrity, reconnect,
# churn, crash/restart), the completion-to-CPU affinity accounting, and the
# mux capacity sweep. Race builds cap the sweep population at 2048 (the
# detector costs ~10x per simulated instruction), so a second,
# uninstrumented pass runs the full 10240-client determinism and
# memory-scaling assertions.
mux-check:
	$(GO) test -race -run 'Mux|Affinity|Migrat|Endpoint' \
		./internal/ibsim/ ./internal/rpcrdma/ ./internal/core/ \
		./internal/chaos/ ./internal/experiments/
	$(GO) test -run 'MuxCapacity' ./internal/experiments/

# scale-check runs the scale-out server path under the race detector: the
# SRQ primitive, sharded dispatch, admission control, the open-loop
# generator, the capacity sweep (including its 512-client determinism
# point), and the transport-leak regression tests that ride with them.
scale-check:
	$(GO) test -race -run 'SRQ|Shard|Admission|OpenLoop|Capacity|ParkedOrder|Evict|Hoard' \
		./internal/ibsim/ ./internal/rpcrdma/ ./internal/oncrpc/ \
		./internal/workload/ ./internal/experiments/

# faults runs the failure-injection and recovery suite under the race
# detector: fabric fault injection, client retransmit/reconnect, server
# connection lifecycle, the duplicate request cache, and the end-to-end
# recovery ablation.
faults:
	$(GO) test -race -run 'Fault|Flap|Timeout|Retransmit|Retry|Recovery|Reconnect|ConnDeath|DRC' \
		./internal/ibsim/ ./internal/rpcrdma/ ./internal/oncrpc/ \
		./internal/core/ ./internal/experiments/

vet:
	$(GO) vet ./...

# trace-check runs the observability layer's suite under the race detector:
# the trace package's unit and invariant-checker tests, the trace-driven
# invariants over real Read-Read/Read-Write runs (WQE/CQE pairing, MR
# exposure bounds, server-side no-remote-exposure), and the traced fig4
# end-to-end experiment.
trace-check:
	$(GO) test -race -run 'Trace|Chrome|Summary|Ring|Nil|Check|Histograms|Emit' \
		./internal/trace/ ./internal/core/ ./internal/experiments/

# telemetry-check runs the virtual-time telemetry engine under the race
# detector: the sampling engine and detector unit tests, the allocation-free
# sample-path pin, the counter atomic-slot fast path, and the
# telemetry-enabled fault and capacity suites (same-seed byte-identity,
# knee-onset agreement with the capacity table, chaos recovery annotation).
telemetry-check:
	$(GO) test -race -run 'Telemetry|Detect|Sampling|Slot|Sparkline|Dashboard|Annotate|Ring|Rate|LatencyWindow|Export' \
		./internal/telemetry/ ./internal/stats/ ./internal/workload/ \
		./internal/experiments/ ./internal/chaos/ ./internal/core/

# rfp-check runs the reply-fetch design under the race detector: the ibsim
# doorbell write-watch primitive, the rpcrdma reply-slot deposit/fetch path
# (no-server-Send, exposure ledger, retransmit re-arm, withheld-DONE
# pinning), the reply-fetch chaos determinism and crash-replay runs, and a
# three-way capacity smoke that asserts reply-fetch's server CPU per op
# lands below both paper designs at 512 clients.
rfp-check:
	$(GO) test -race -run 'ReplyFetch|WatchWrite|Doorbell' \
		./internal/ibsim/ ./internal/rpcrdma/ ./internal/chaos/
	$(GO) test -run 'TestCapacityReplyFetchServerCPU512' ./internal/experiments/

# race-runner focuses the race detector on the concurrency boundary: the
# sweep runner and the kernel it fans out, plus the experiments package
# that drives them in parallel.
race-runner:
	$(GO) test -race ./internal/experiments/... ./internal/des/...

# bench runs the DES kernel microbenchmarks (schedule->resume path,
# queue/event/resource wakeups, timer heap, spawn->run->exit churn through
# the coroutine pool) with allocation stats.
bench:
	$(GO) test ./internal/des/ -run NONE -bench BenchmarkKernel -benchmem

# bench-record regenerates the wall-clock benchmark record for the figure
# sweeps. Bump N in BENCH_N.json when recording a new point on the repo's
# perf trajectory rather than overwriting history.
bench-record:
	$(GO) run ./cmd/nfsrdma-experiments -scale 8 -only fig5,fig7,fig8,fig9,fig10a \
		-bench-out BENCH_1.json >/dev/null

# bench-compare diffs two benchmark records figure-by-figure and fails on a
# >10% wall-clock regression:
#
#     make bench-compare OLD=BENCH_1.json NEW=BENCH_6.json
bench-compare:
	$(GO) run ./cmd/bench-compare -old $(OLD) -new $(NEW)
