// Package telemetry makes the simulation *platform* observable, the way
// internal/obs (PR 1) made the simulated *processor* observable. Three
// layers, all zero-cost when detached:
//
//   - SweepMeter instruments the runner: per-run spans (queue wait, cache
//     lookup, execute, checkpoint write), live gauges
//     (inflight runs, queue depth, worker utilization, cache hit rate)
//     exported through an internal/obs Registry, and a JSONL progress
//     stream with completed/total counts and an EWMA-based ETA.
//
//   - PhaseTimer attributes the simulator's own wall-clock time to pipeline
//     stages (fetch, dispatch, issue, mem, commit, reconfig, observe) by
//     timing one cycle out of every sampling period — coarse rdtsc-style
//     sampling whose enabled overhead stays within the same ≤2% budget PR 1
//     proved for disabled observer hooks, and which disappears behind a
//     single pointer test when nil.
//
//   - Runtime self-profiling: runtime/metrics samples (heap, GC pauses,
//     goroutines) folded into an obs Registry, and CPU/heap pprof capture
//     for whole sweeps (-profile-dir on cmd/experiments; net/http/pprof on
//     the obs -serve endpoint).
//
// Wall-clock time is read only here, never in simulation packages: the
// simlint determinism pass keeps time.Now out of the simulator proper, and
// every measurement this package takes is attribution-only — it can never
// feed back into simulated timing, so instrumented runs stay byte-identical
// to bare ones.
package telemetry

import "time"

// epoch anchors all package timing reads. time.Since on a fixed base uses
// the monotonic clock, so laps and spans are immune to wall-clock jumps.
var epoch = time.Now()

// nanos returns monotonic nanoseconds since package initialization.
func nanos() int64 { return int64(time.Since(epoch)) }
