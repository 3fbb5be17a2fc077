// Package click implements a Click-inspired modular packet-processing
// framework (Kohler et al., TOCS 2000), the programmability layer the
// paper builds on. Processing is composed from elements; a pipeline of
// elements, fed by a packet source, forms one packet-processing "flow"
// that is pinned to one simulated core.
//
// Elements do real work on real packet bytes, and simultaneously emit the
// corresponding micro-operation trace (loads, stores, compute bursts)
// through a Ctx; the hw engine replays that trace against the simulated
// memory hierarchy. A pipeline therefore implements hw.PacketSource.
//
// A configuration is read in two halves (config.go). Parse turns the text
// — declarations, connections and `stage N:` cuts — into a Graph and
// checks everything about it that needs no instance; Graph.Build
// constructs the elements, each from the arena of the stage the one
// stage rule (cutStages, stage.go) put it in, and wires the Pipeline.
package click

import "pktpredict/internal/hw"

// Packet is one packet in flight: real bytes plus the simulated address
// of the buffer holding them.
type Packet struct {
	// Data is the packet's contents, starting at the IPv4 header.
	Data []byte
	// Addr is the simulated address of Data[0].
	Addr hw.Addr
	// Recycler, if non-nil, returns the packet's buffer to its pool when
	// the pipeline finishes with it.
	Recycler Recycler
	// Trace is the packet's sampled trace ID, zero for the unsampled
	// majority. A staged chain's stage 0 tags one in N packets; the ID
	// rides the hand-off descriptors so every stage attributes its exec
	// span to the same trace (see internal/obs).
	Trace uint64
	// Enq is the core-clock timestamp (virtual cycles) at which the packet
	// was enqueued into its flow's receive ring — the start of its
	// end-to-end latency. It rides the packet through hand-off rings so
	// the terminal stage can record finish − Enq.
	Enq uint64
	// pool-internal handle, opaque to elements.
	PoolIndex int
}

// Recycler returns packet buffers to their pool, emitting the trace of
// the free-list manipulation (the paper's skb_recycle function).
type Recycler interface {
	Recycle(ctx *Ctx, p *Packet)
}
