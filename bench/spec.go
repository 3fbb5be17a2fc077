package main

// The benchmark's contract: the workloads and the metric names, units,
// directions and bounds. BENCHMARK.json at the repository root is
// generated from these tables (-benchmark-json) and bench_test.go fails
// when the two disagree, so a metric cannot be emitted without being
// declared or declared without being emitted.

// Metric kinds. Host time is what a perf change optimises; simulated
// statistics and accuracy are what it must not move.
const (
	kindHost      = "host"      // wall-clock, CPU or memory of the simulator itself
	kindSimulated = "simulated" // virtual-time result of the modelled platform
	kindAccuracy  = "accuracy"  // predicted versus measured, or runtime versus engine
	kindCount     = "count"     // work done, exact or near-exact
)

// metricDef declares one metric. Bound is the relative worsening of the
// median that counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Kind   string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what each means per
// workload. fail_share is the ninth: the driver's contract carries it as
// the attempted/failed pair of the result line, because a metric that is
// 0 on every good run has no relative bound. The four host times are in
// reference seconds (calibrate.go) and still carry the widest bound the
// contract allows: that is what the reference box's noise leaves.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindHost},            // everything before the first timed rep: load, offline profiling, one untimed warm-up rep
	{"rep_s", "s", "lower", 0.25, kindHost},              // one timed rep: a profile pass, a build plus run, or a warm sweep
	{"build_s", "s", "lower", 0.25, kindHost},            // constructing the simulated system the workload runs
	{"host_ns_per_pkt", "ns", "lower", 0.25, kindHost},   // host wall nanoseconds per simulated packet, build excluded
	{"alloc_mb", "MiB", "lower", 0.02, kindHost},         // bytes allocated per rep (TotalAlloc delta)
	{"heap_mb", "MiB", "lower", 0.02, kindHost},          // live heap holding the built system, after a forced GC
	{"virt_mpps", "Mpps", "higher", 0.03, kindSimulated}, // simulated packets per virtual second
	{"pred_acc_pct", "%", "higher", 0.03, kindAccuracy},  // 100 minus the worst |predicted - observed| gap in points
}

// perLayer lists the single-layer metrics of the traced pass. The name's
// prefix is the module (internal/<prefix>) the number isolates.
var perLayer = []metricDef{
	{"hw.cache_access_ns", "ns", "lower", 0, kindHost},                  // Cache.Access on an L3-geometry cache, mixed hits and misses
	{"hw.cache_insert_ns", "ns", "lower", 0, kindHost},                  // Cache.Insert into full sets, evicting
	{"hw.cache_invalidate_ns", "ns", "lower", 0, kindHost},              // Cache.Invalidate of a present line
	{"hw.access_l1_ns", "ns", "lower", 0, kindHost},                     // Core.Access, stream resident in L1
	{"hw.access_l2_ns", "ns", "lower", 0, kindHost},                     // Core.Access, stream resident in L2
	{"hw.access_l3_ns", "ns", "lower", 0, kindHost},                     // Core.Access, stream resident in L3
	{"hw.access_mem_ns", "ns", "lower", 0, kindHost},                    // Core.Access, stream four times the L3
	{"hw.execops_ns_per_op", "ns", "lower", 0, kindHost},                // Core.ExecOps replaying the workload's own trace, one goroutine
	{"hw.execops_shared_ns_per_op", "ns", "lower", 0, kindHost},         // the same replay, nproc goroutines on cores of one socket
	{"hw.lock_wait_share", "fraction", "lower", 0, kindHost},            // 1 - solo/shared ExecOps time per op
	{"hw.engine_self_ns_per_op", "ns", "lower", 0, kindHost},            // Engine.RunUntil minus its EmitPacket children, all flows
	{"hw.engine_solo_self_ns_per_op", "ns", "lower", 0, kindHost},       // the same with one flow: no scheduling choice to make
	{"hw.platform_build_ms", "ms", "lower", 0, kindHost},                // NewPlatform
	{"hw.l3_refs_per_pkt", "1/pkt", "lower", 0, kindSimulated},          // L3 references per packet on the engine co-run (exact)
	{"hw.l3_miss_per_pkt", "1/pkt", "lower", 0, kindSimulated},          // L3 misses per packet (exact)
	{"hw.memq_cycles_per_pkt", "cycles/pkt", "lower", 0, kindSimulated}, // memory-controller queue cycles per packet (exact)
	{"hw.remote_refs_per_pkt", "1/pkt", "lower", 0, kindSimulated},      // remote-domain references per packet (exact)

	{"click.emit_ns_per_pkt", "ns", "lower", 0, kindHost},        // Source.EmitPacket with no replay, weighted by the packet mix
	{"click.ops_per_pkt", "1/pkt", "lower", 0, kindCount},        // micro-ops emitted per packet, same weighting
	{"click.emit_allocs_per_pkt", "1/pkt", "lower", 0, kindHost}, // heap allocations per emitted packet
	{"click.build_ms", "ms", "lower", 0, kindHost},               // apps.Params.Build per flow instance
	{"click.build_alloc_mb", "MiB", "lower", 0, kindHost},        // bytes allocated per flow instance built

	{"runtime.ring_scalar_ns_per_pkt", "ns", "lower", 0, kindHost},  // runtime.Ring Push+Pop
	{"runtime.ring_batch32_ns_per_pkt", "ns", "lower", 0, kindHost}, // runtime.Ring PushBatch+PopBatch of 32
	{"handoff.scalar_ns_per_pkt", "ns", "lower", 0, kindHost},       // handoff.Ring Push+Pop
	{"handoff.staged32_ns_per_pkt", "ns", "lower", 0, kindHost},     // handoff.Ring staged push/pop, cursors committed per 32

	{"runtime.build_ms", "ms", "lower", 0, kindHost},                    // NewRuntime
	{"runtime.run_cpu_ns_per_pkt", "ns", "lower", 0, kindHost},          // process CPU (rusage) over Run per processed packet
	{"runtime.self_cpu_ns_per_pkt", "ns", "lower", 0, kindHost},         // run CPU minus emit minus replay: locks, barriers, dispatch, polls, control
	{"runtime.self_cpu_share", "fraction", "lower", 0, kindHost},        // self CPU as a share of run CPU
	{"runtime.cpu_util", "fraction", "higher", 0, kindHost},             // run CPU / (wall x nproc)
	{"runtime.quanta_per_host_s", "1/s", "higher", 0, kindHost},         // barrier-synchronised quanta per host second
	{"runtime.batch_occupancy", "fraction", "higher", 0, kindSimulated}, // mean worker batch fill
	{"runtime.clipped_batches", "count", "lower", 0, kindSimulated},     // batch polls cut short by a quantum boundary, per run
	{"runtime.nic_drop_share", "fraction", "lower", 0, kindSimulated},   // NIC tail drops / offered
	{"runtime.allocs_per_pkt", "1/pkt", "lower", 0, kindHost},           // heap allocations during Run per processed packet
	{"runtime.gc_pause_ms", "ms", "lower", 0, kindHost},                 // GC stop-the-world pause of one rep: build, run and the two forced collections
	{"runtime.virt_p99_us", "virt_us", "lower", 0, kindSimulated},       // worst app's end-to-end p99 latency, virtual microseconds
	{"runtime.telemetry_overhead_pct", "%", "lower", 0, kindHost},       // Run wall with registry and packet tracing on versus off

	{"core.solo_s", "s", "lower", 0, kindHost},          // Predictor.Solo over the workload's flow types
	{"core.sweep_s", "s", "lower", 0, kindHost},         // Predictor.Sweep over the same types
	{"core.curve_ms", "ms", "lower", 0, kindHost},       // Predictor.Curve over the same types (sweeps memoised)
	{"core.elem_baseline_s", "s", "lower", 0, kindHost}, // a solo runtime run per type for the per-element baselines, as ProfileFlows does it
	{"core.predict_us", "us", "lower", 0, kindHost},     // Predictor.PredictMix from memoised profiles
	{"core.sim_pkts", "count", "higher", 0, kindCount},  // target packets in the solo and sweep windows (exact)
	{"core.ns_per_sim_pkt", "ns", "lower", 0, kindHost}, // solo plus sweep host time per such packet

	{"scenario.load_ms", "ms", "lower", 0, kindHost},                 // scenario.Parse plus ConfigOn of the workload's scenario
	{"sweep.cold_s", "s", "lower", 0, kindHost},                      // Runner.Run into an empty profile cache
	{"sweep.warm_s", "s", "lower", 0, kindHost},                      // Runner.Run with every profile cached
	{"sweep.cache_hits", "count", "higher", 0, kindCount},            // profile-cache hits of one warm pass
	{"sweep.cache_misses", "count", "lower", 0, kindCount},           // profile-cache misses of the cold pass
	{"sweep.cache_io_ms", "ms", "lower", 0, kindHost},                // OpenProfileCache of the warm cache file
	{"sweep.point_host_s_max", "s", "lower", 0, kindHost},            // slowest grid point of a warm pass
	{"sweep.report_ms", "ms", "lower", 0, kindHost},                  // Report.JSON plus Report.Markdown
	{"sweep.points_failed", "count", "lower", 0, kindCount},          // grid points outside tolerance in a warm pass
	{"obs.snapshot_ms", "ms", "lower", 0, kindHost},                  // Registry.Snapshot rendered as Prometheus text after a run
	{"obs.trace_events", "count", "higher", 0, kindCount},            // packet-trace spans a run recorded
	{"obs.trace_dropped", "count", "lower", 0, kindCount},            // packet-trace spans dropped at full buffers
	{"trafficgen.gen64_ns_per_pkt", "ns", "lower", 0, kindHost},      // Generator.Next, 64-byte packets
	{"trafficgen.gen_shaped_ns_per_pkt", "ns", "lower", 0, kindHost}, // Generator.Next, 512-byte packets with signature and entropy shaping

	{"bench.trace_overhead_pct", "%", "lower", 0, kindHost}, // traced versus untraced rep_s of this workload
}

// workloadDef declares one workload: what runs and why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) (*result, error)
}

var workloads = []workloadDef{
	{"engine_profile", "offline profiling on the deterministic engine alone, one thread: exact counters, lowest noise, the bit-identity check", runEngineProfile},
	{"runtime_contended", "six saturating flows on one socket: the socket lock and the cache model dominate; rings, pacing and telemetry are bypassed", runRuntimeContended},
	{"runtime_chains", "two paced staged chains plus a firewall, telemetry on: hand-off rings, barriers and element work dominate; the cache model is cheap", runRuntimeChains},
	{"runtime_fullscale", "the contended mix at paper scale, unprofiled: build time and host memory are visible and state exceeds the host caches", runRuntimeFullscale},
	{"sweep_smoke", "the operator's one-command sweep, cold then warm: profile-cache I/O, scenario load, short runs and report rendering", runSweepSmoke},
}
