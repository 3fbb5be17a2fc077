package click

import "fmt"

// Verdict is an element's decision about a packet. Non-negative verdicts
// name the output port the packet leaves on (Continue is port 0, the
// common case); negative verdicts terminate the packet's walk at this
// element.
type Verdict int16

const (
	// Continue passes the packet out output port 0, the next element in
	// a linear chain.
	Continue Verdict = 0
	// Drop discards the packet (e.g. a firewall match); the pipeline
	// recycles its buffer.
	Drop Verdict = -1
	// Consume ends processing with the packet handed off (e.g. queued for
	// transmission); the pipeline recycles its buffer.
	Consume Verdict = -2
	// Broadcast sends the packet down every connected output port in
	// port order (Click's Tee). Branches process the same packet bytes
	// sequentially.
	Broadcast Verdict = -3
)

// Output returns the verdict that emits the packet on the given output
// port. Output(0) == Continue.
func Output(port int) Verdict { return Verdict(port) }

// String renders the verdict for diagnostics.
func (v Verdict) String() string {
	switch {
	case v == Continue:
		return "continue"
	case v == Drop:
		return "drop"
	case v == Consume:
		return "consume"
	case v == Broadcast:
		return "broadcast"
	case v > 0:
		return fmt.Sprintf("output(%d)", int(v))
	default:
		return "invalid"
	}
}

// Element is one packet-processing stage. Process performs the element's
// real work on p and emits the corresponding trace into ctx; it decides
// where the packet goes next: an output port (Continue/Output), every
// port (Broadcast), or a terminal verdict (Drop/Consume). The registry
// and the element's Node hold its class name.
type Element interface {
	Process(ctx *Ctx, p *Packet) Verdict
}

// AdaptiveOutputs, returned from Router.NumOutputs, declares that the
// element emits on however many output ports the configuration connects
// (Click's RoundRobinSwitch and Tee behave this way).
const AdaptiveOutputs = -1

// Router is implemented by elements that steer packets among multiple
// numbered output ports — classifiers, switches, tees. The graph builder
// uses NumOutputs to validate configurations: every declared port of a
// Router must be connected, and only Routers may use ports beyond 0.
type Router interface {
	Element
	// NumOutputs returns how many output ports the element emits on, or
	// AdaptiveOutputs when it adapts to the connected port count.
	NumOutputs() int
}

// OutputsSetter is implemented by adaptive Routers that need to know the
// connected port count (e.g. a round-robin switch cycling over its
// ports). The graph builder calls it once after validation.
type OutputsSetter interface {
	SetOutputs(n int)
}

// Source produces packets at the head of a pipeline (Click's FromDevice
// role). Pull returns nil when no more packets will arrive.
type Source interface {
	Pull(ctx *Ctx) *Packet
}
