package click

import (
	"fmt"

	"pktpredict/internal/hw"
)

// Node is one vertex of a pipeline graph: an element, its outgoing edges
// indexed by output port (nil entries are unconnected), and per-branch
// terminal counters. Packet branches whose walk ends at this node —
// dropped here, consumed here, or run off the end of the chain here — are
// counted here, which is what gives a branching pipeline per-branch
// drop/finish accounting.
type Node struct {
	Name string
	El   Element
	Out  []*Node

	// Stage is the pipeline stage the node executes in when the graph is
	// cut across cores by `stage N:` statements (see cutStages); 0 for
	// run-to-completion graphs.
	Stage int

	// Elem is the node's slot in its flow's per-element attribution table
	// (hw.ElemCell); the walker brackets Process with Ctx.SetElem so every
	// op the element emits carries it. 0 — the flow overhead slot — until
	// the runtime assigns slots after graph surgery is done.
	Elem uint16

	Dropped  uint64 // packet branches whose walk terminated here with a drop
	Finished uint64 // packet branches consumed here or past the last element

	class string // as a configuration names it; graph surgery alone reads it
}

// out returns the node connected at port, or nil.
func (n *Node) out(port int) *Node {
	if port < 0 || port >= len(n.Out) {
		return nil
	}
	return n.Out[port]
}

// connect attaches target to the node's output port, growing the port
// vector as needed.
func (n *Node) connect(port int, target *Node) {
	for len(n.Out) <= port {
		n.Out = append(n.Out, nil)
	}
	n.Out[port] = target
}

// Pipeline is a directed acyclic graph of elements fed by a source: one
// packet-processing flow. It implements hw.PacketSource, so it can be
// attached directly to a simulated core. The common case is still a
// linear chain; Router elements (classifiers, switches, tees) fan the
// graph out into branches. Graph.Build is the one constructor.
type Pipeline struct {
	Name   string
	Source Source

	head    *Node
	nodes   []*Node // topological order, head first
	srcName string  // source's config name

	numStages int           // the graph's stage count, 1 if uncut
	idx       map[*Node]int // node → index, for cross-stage resume points

	ctx   Ctx
	stack []*Node
}

// Nodes returns the pipeline's nodes in topological order, head first.
// Callers must not restructure the graph through them.
func (pl *Pipeline) Nodes() []*Node { return pl.nodes }

// SourceName returns the configuration name of the pipeline's source
// element. State bindings
// recorded under this label belong to the build-time source — a runtime
// that replaces the source (e.g. with a receive ring) treats them as
// dead weight, not migratable flow state.
func (pl *Pipeline) SourceName() string { return pl.srcName }

// Branching reports whether the graph is anything other than a single
// linear chain: an output port above 0, a node with several connected
// outputs, or a fan-in.
func (pl *Pipeline) Branching() bool {
	indeg := make(map[*Node]int, len(pl.nodes))
	for _, n := range pl.nodes {
		connected := 0
		for port, t := range n.Out {
			if t == nil {
				continue
			}
			connected++
			indeg[t]++
			if port > 0 {
				return true
			}
		}
		if connected > 1 {
			return true
		}
	}
	for _, d := range indeg {
		if d > 1 {
			return true
		}
	}
	return false
}

// uniqueName derives a node name not yet used in the pipeline.
func (pl *Pipeline) uniqueName(base string) string {
	used := make(map[string]bool, len(pl.nodes))
	for _, n := range pl.nodes {
		used[n.Name] = true
	}
	if !used[base] {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s@%d", base, i)
		if !used[name] {
			return name
		}
	}
}

// PushFront inserts el, of the given class, ahead of the current head,
// in stage 0: every packet traverses it first. It is how the runtime
// attaches a Control element to an already-parsed pipeline.
func (pl *Pipeline) PushFront(class string, el Element) {
	n := &Node{Name: pl.uniqueName(class), El: el, class: class}
	if pl.head != nil {
		n.connect(0, pl.head)
	}
	pl.head = n
	pl.nodes = append([]*Node{n}, pl.nodes...)
	pl.idx = nil // indices shifted; HeadIndex/StageRunner rebuild
}

// InsertBefore splices el, of the given class, in front of the first
// node (in topological order) whose class is before: every edge into that
// node is re-targeted through el, which joins the latest stage any of its
// new predecessors runs in (the stage rule's own answer for an unplaced
// node). It returns an error when no such node exists.
func (pl *Pipeline) InsertBefore(before, class string, el Element) error {
	var target *Node
	idx := -1
	for i, n := range pl.nodes {
		if n.class == before {
			target, idx = n, i
			break
		}
	}
	if target == nil {
		return fmt.Errorf("click: pipeline %q has no %s element to insert before", pl.Name, before)
	}
	n := &Node{Name: pl.uniqueName(class), El: el, class: class}
	n.connect(0, target)
	for _, m := range pl.nodes {
		for port, t := range m.Out {
			if t == target {
				m.Out[port] = n
				n.Stage = max(n.Stage, m.Stage)
			}
		}
	}
	if pl.head == target {
		pl.head = n
	}
	pl.nodes = append(pl.nodes[:idx], append([]*Node{n}, pl.nodes[idx:]...)...)
	pl.idx = nil // indices shifted; HeadIndex/StageRunner rebuild
	return nil
}

// EmitPacket implements hw.PacketSource: it pulls one packet, walks it
// through the element graph, and returns the accumulated trace. The
// packet's outcome is counted on the nodes its branches end at; a
// StageRunner counts it per packet.
//
//dataplane:hotpath
func (pl *Pipeline) EmitPacket(buf []hw.Op) []hw.Op {
	pl.ctx.Ops = buf
	p := pl.Source.Pull(&pl.ctx)
	if p == nil {
		return buf[:0]
	}
	if pl.head != nil {
		_, stack := walkNodes(&pl.ctx, pl.stack, pl.head, p, -1)
		pl.stack = stack[:0]
	}
	if p.Recycler != nil {
		p.Recycler.Recycle(&pl.ctx, p)
	}
	return pl.ctx.Ops
}

// walkResult summarises one packet's (sub-)walk.
type walkResult struct {
	finished   int   // branches that completed (consumed or ran off the end)
	handoff    *Node // first node reached outside the walk's stage, if any
	extraCross int   // further branches that reached the cut after the hand-off
}

// walkNodes runs one packet from entry through the graph. Branches
// created by Broadcast process the same packet bytes sequentially in port
// order; the explicit stack makes the traversal allocation-free in steady
// state. When stage is non-negative, only nodes assigned that stage are
// processed: the first edge leading elsewhere becomes the hand-off target
// and the branch stops there (the pipeline hands each packet across a cut
// at most once — a later branch reaching the cut is lost and counted in
// extraCross, since the packet's buffer has already been promised to the
// next core).
//
//dataplane:hotpath
func walkNodes(ctx *Ctx, stack []*Node, entry *Node, p *Packet, stage int) (walkResult, []*Node) {
	var res walkResult
	stack = append(stack[:0], entry)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stage >= 0 && n.Stage != stage {
			if res.handoff == nil {
				res.handoff = n
			} else {
				// The node across the cut belongs to another core's stage;
				// its counters are not ours to touch. The lost branch is
				// accounted on the runner.
				res.extraCross++
			}
			continue
		}
		oldElem := ctx.SetElem(n.Elem)
		v := n.El.Process(ctx, p)
		ctx.SetElem(oldElem)
		switch {
		case v == Drop:
			n.Dropped++
		case v == Consume:
			n.Finished++
			res.finished++
		case v == Broadcast:
			sent := false
			// Reverse push so port 0's branch walks first.
			for i := len(n.Out) - 1; i >= 0; i-- {
				if n.Out[i] != nil {
					stack = append(stack, n.Out[i])
					sent = true
				}
			}
			if !sent {
				n.Finished++
				res.finished++
			}
		case v >= 0:
			if next := n.out(int(v)); next != nil {
				stack = append(stack, next)
			} else if v == Continue {
				// Ran off the end of a chain: the packet completed.
				n.Finished++
				res.finished++
			} else {
				// Routed to an unconnected port — a configuration gap the
				// validator admits only for non-Router elements.
				n.Dropped++
			}
		default:
			n.Dropped++
		}
	}
	return res, stack
}
