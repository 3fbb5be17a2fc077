// Package hw simulates the memory hierarchy of a two-socket multicore
// server at cycle granularity: per-core L1/L2 caches, a shared inclusive
// L3 per socket, per-socket memory controllers with FCFS queueing, and a
// QPI-style inter-socket interconnect.
//
// The package exists to reproduce, in a deterministic and measurable
// environment, the shared-cache contention effects studied by Dobrescu et
// al., "Toward Predictable Performance in Software Packet-Processing
// Platforms" (NSDI 2012). Packet-processing applications emit streams of
// micro-operations (compute bursts, loads, stores); the Engine interleaves
// the streams of co-running flows in global virtual-time order, so cache
// contention, hit-to-miss conversion, and memory-controller queueing are
// emergent properties of the simulated hardware rather than baked-in
// formulas.
//
// One interpreter (Core.exec) replays ops against the hierarchy. The
// Engine is a scheduling policy around it — one thread, the next op of
// the flow with the smallest clock and the computes behind it, no locks —
// and Core.ExecOps is a locking policy around it, for executors that run
// cores concurrently (package runtime runs one goroutine per socket).
//
// All state is explicit and seeded: two runs with identical inputs produce
// identical performance counters.
package hw

// Addr is a simulated physical address. The NUMA domain that owns an
// address is encoded in its high bits (see DomainOf), mirroring how the
// platform's physically contiguous memory regions map to controllers.
type Addr uint64

const (
	// LineShift is log2 of the cache-line size in bytes.
	LineShift = 6
	// LineSize is the cache-line size in bytes (64, as on Westmere).
	LineSize = 1 << LineShift

	// domainShift positions the NUMA-domain id within an Addr.
	domainShift = 44
)

// DomainBase returns the lowest address belonging to NUMA domain d.
func DomainBase(d int) Addr { return Addr(d) << domainShift }

// DomainOf returns the NUMA domain that owns address a.
func DomainOf(a Addr) int { return int(a >> domainShift) }

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }
