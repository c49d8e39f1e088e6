# Developer entry points. `make check` is what CI runs: full build, the
# test run, an observability smoke test that executes a collecting
# workload with tracing on and validates the emitted Chrome trace JSON
# (parses, spans balanced, every gc pause phase present, root forwarding
# included), a fault-injection smoke sweep over mutated gc-table streams,
# and the profiling smoke path. `make bench` regenerates the paper's
# section 6 tables; the repository's performance benchmark is
# perfbench/ (python3 perfbench/run.py, see perfbench/README.md).

DUNE ?= dune
TRACE_OUT := _build/smoke.trace.json
FAULT_ITERS ?= 15
FAULT_OUT := _build/fault-report.json
PROFILE_OUT := _build/smoke.profile.json

.PHONY: all build test test-verified test-gen test-switch test-workers \
	test-pressure test-incremental smoke fault profile check bench clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# The full test run again, with the heap verifier forced on around every
# collection (pre + post) via the environment switches.
test-verified: build
	MM_VERIFY_HEAP=1 MM_VERIFY_PRE=1 $(DUNE) runtest --force

# And again in generational mode: MM_GEN=1 flips every precise-collector
# entry point onto the nursery collector (same images, byte-identical
# tables), with the heap verifier — including the old→young remembered-set
# check — armed around every minor and full collection.
test-gen: build
	MM_GEN=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

# And once more on the reference switch interpreter: MM_THREADED=0 turns
# the threaded-code engine off, so every driver-level test executes on
# the plain fetch/match/step loop the semantics are defined against.
test-switch: build
	MM_THREADED=0 $(DUNE) runtest --force

# And with the parallel copy phase on: MM_GC_WORKERS=4 routes every full
# collection's scan through the worker pool, MM_GC_PAR_THRESHOLD=2 forces
# even the tiny test heaps through the three-phase parallel rounds, and
# the heap verifier re-checks every heap the parallel copy produces.
# Worker count is a pure runtime switch, so the entire suite must pass
# unchanged.
test-workers: build
	MM_GC_WORKERS=4 MM_GC_PAR_THRESHOLD=2 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

# And under memory pressure: MM_HEAP_GROW=1 arms adaptive semispace
# resizing on every moving-collector entry point (tests that pick their
# own heap sizes now also exercise the grow/shrink/retry ladder), with
# the heap verifier re-checking every post-resize heap.
test-pressure: build
	MM_HEAP_GROW=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

# And in incremental mode: MM_GC_INCREMENTAL=1 flips every precise-
# collector entry point onto the tri-color sliced mark-sweep collector
# (same images, same gc-point tables, no pause budget so pacing is the
# deterministic work quota), with the heap verifier — including the
# tri-color invariant check — armed at every slice boundary.
test-incremental: build
	MM_GC_INCREMENTAL=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

smoke: build
	$(DUNE) exec bin/mmrun.exe -- --heap 256 --trace $(TRACE_OUT) --metrics \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(TRACE_OUT) \
	  gc.collect gc.stackwalk gc.underive gc.copy gc.forward_roots gc.rederive

# Fault-injection sweep: mutated table streams must never crash, hang or
# silently diverge — both with the load-time cross-check (the shipping
# configuration) and without it (decoder + heap verifier on their own).
fault: build
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --out $(FAULT_OUT)
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --no-cross-check \
	  --out $(FAULT_OUT:.json=.nocross.json)

# Profiling smoke test: a collecting run with the allocation-site profiler
# and periodic heap censuses on, in both collector modes, validating the
# emitted profile document (schema, site resolution, survival rates in
# range, bucket counts summing to pause counts) and rendering it.
profile: build
	$(DUNE) exec bin/mmrun.exe -- --heap 2000 --profile $(PROFILE_OUT) \
	  --census-every 8 examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --gen --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.gen.json) --census-every 8 examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.gen.json)

check: build test smoke fault profile
	@echo "check: ok"

# The paper's section 6 tables and figures (Tables 1-2, 6.2 code effects,
# 6.3 timings, Figures 1-4, ablations A1-A3). Performance of this
# implementation is measured by perfbench: python3 perfbench/run.py.
bench: build
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
