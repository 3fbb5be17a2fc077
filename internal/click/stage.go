package click

import (
	"fmt"
	"maps"
	"slices"
)

// Stage support: a pipeline graph can be cut into consecutive stages that
// run on different cores, connected by hand-off rings (the Section 2.2
// "pipeline" deployment). The cut is declared by a configuration's
// `stage N:` statements, which Parse reads through cutStages; execution
// of one stage's sub-walks is driven by a StageRunner, which stops a
// packet's walk at the first edge leaving its stage and reports the node
// the next stage must resume at. The Pipeline itself still executes
// run-to-completion (EmitPacket ignores stages), so solo profiling of a
// staged graph measures the same work a single core would do.

// cutStages is the stage rule, the one place a cut is read. nodes are a
// graph's processing nodes in topological order, head first. stageOf
// places nodes explicitly, by name, at stages the lexer has checked are
// not negative; every other node inherits the latest stage any
// predecessor runs in (the head defaults to 0), so naming the entry
// elements of each cut is enough. It checks that the head is in stage 0,
// that stage indices are contiguous from 0 and that every edge stays
// within its stage or crosses to the next one, sets every Node.Stage and
// returns the stage count — or an error and the name of the element at
// fault.
func cutStages(nodes []*Node, stageOf map[string]int) (stages int, at string, err error) {
	byName := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
		n.Stage = 0
	}
	explicit := make(map[*Node]bool, len(stageOf))
	for _, name := range slices.Sorted(maps.Keys(stageOf)) {
		n, ok := byName[name]
		if !ok {
			return 0, name, fmt.Errorf("stage assignment names unknown element %q", name)
		}
		n.Stage, explicit[n] = stageOf[name], true
	}
	// Topological order: a node's stage is final before its successors'.
	for _, n := range nodes {
		for _, t := range n.Out {
			if t != nil && !explicit[t] && n.Stage > t.Stage {
				t.Stage = n.Stage
			}
		}
	}
	if len(nodes) > 0 && nodes[0].Stage != 0 {
		return 0, nodes[0].Name, fmt.Errorf("head element %q must be in stage 0, not %d", nodes[0].Name, nodes[0].Stage)
	}
	for stages = 0; ; stages++ {
		if slices.ContainsFunc(nodes, func(n *Node) bool { return n.Stage == stages }) {
			continue
		}
		// Past the last stage, or a gap — and the first node past a gap was
		// placed there explicitly: its predecessors all run before it.
		above := slices.IndexFunc(nodes, func(n *Node) bool { return n.Stage > stages })
		if above < 0 {
			break
		}
		return 0, nodes[above].Name, fmt.Errorf("stage %d is empty; stages must be contiguous from 0", stages)
	}
	for _, n := range nodes {
		for _, t := range n.Out {
			if t != nil && t.Stage != n.Stage && t.Stage != n.Stage+1 {
				return 0, t.Name, fmt.Errorf("edge %s -> %s crosses from stage %d to stage %d; cuts may only hand packets to the next stage",
					n.Name, t.Name, n.Stage, t.Stage)
			}
		}
	}
	return max(stages, 1), "", nil
}

// NumStages returns how many stages the graph is cut into; 1 for an
// uncut one.
func (pl *Pipeline) NumStages() int { return pl.numStages }

// HeadIndex returns the node index a stage-0 walk enters at, or -1 for a
// bare-source pipeline.
func (pl *Pipeline) HeadIndex() int {
	if pl.head == nil {
		return -1
	}
	if pl.idx == nil {
		pl.reindex()
	}
	return pl.idx[pl.head]
}

// reindex rebuilds the node→index map used to communicate resume points
// across stages.
func (pl *Pipeline) reindex() {
	pl.idx = make(map[*Node]int, len(pl.nodes))
	for i, n := range pl.nodes {
		pl.idx[n] = i
	}
}

// StageRunner executes one stage's share of packet walks. Each runner
// owns its trace context and walk stack, so the stages of one pipeline
// can run on different goroutines concurrently: a runner only processes
// (and only touches the counters of) nodes assigned to its stage, and the
// packet itself is owned by exactly one stage at a time. The exported
// counters are written solely by the runner's goroutine; read them only
// at synchronisation points.
type StageRunner struct {
	pl    *Pipeline
	stage int
	ctx   Ctx
	stack []*Node

	Finished   uint64 // packets whose walk ended here with a completed branch
	Dropped    uint64 // packets whose walk ended here with no completed branch
	CutDropped uint64 // branches lost because the packet had already been handed off
}

// StageRunner builds a runner for the given stage of a staged pipeline.
func (pl *Pipeline) StageRunner(stage int) (*StageRunner, error) {
	if stage < 0 || stage >= pl.NumStages() {
		return nil, fmt.Errorf("click: pipeline %q has %d stages; no stage %d", pl.Name, pl.NumStages(), stage)
	}
	if pl.idx == nil {
		pl.reindex()
	}
	return &StageRunner{pl: pl, stage: stage}, nil
}

// Ctx returns the runner's trace context; callers set Ctx().Ops before a
// Walk and read the accumulated trace after.
func (sr *StageRunner) Ctx() *Ctx { return &sr.ctx }

// Stage returns the stage index the runner executes.
func (sr *StageRunner) Stage() int { return sr.stage }

// Reset zeroes the runner's packet counters (measurement-window start).
func (sr *StageRunner) Reset() {
	sr.Finished, sr.Dropped, sr.CutDropped = 0, 0, 0
}

// Walk runs p through the runner's stage starting at node index entry
// (the pipeline head for stage 0 — HeadIndex, -1 for a bare-source
// pipeline, whose packets complete without a walk — or the resume node a
// hand-off delivered). It returns the node index the next stage must
// resume at, or next == -1 when the packet's walk terminated in this
// stage — the packet is then recycled here, which for a later stage
// models the cross-core buffer return the paper charges to pipelining.
//
// priorFinished carries the packet-level outcome across cuts: whether a
// branch already completed in an earlier stage. A terminating walk
// counts the packet finished when any branch anywhere completed, and a
// handing-off walk returns the accumulated flag for the next stage's
// ring slot. A walk can hand off at most once: if a second branch
// reaches the cut (a Tee broadcasting across it), that branch is lost
// and counted in CutDropped.
func (sr *StageRunner) Walk(p *Packet, entry int, priorFinished bool) (next int, finished bool) {
	res := walkResult{finished: 1} // bare source (entry -1): done at pull
	if entry >= 0 {
		var stack []*Node
		res, stack = walkNodes(&sr.ctx, sr.stack, sr.pl.nodes[entry], p, sr.stage)
		sr.stack = stack[:0]
	}
	sr.CutDropped += uint64(res.extraCross)
	finished = priorFinished || res.finished > 0
	if res.handoff != nil {
		next, ok := sr.pl.idx[res.handoff]
		if !ok {
			panic(fmt.Sprintf("click: pipeline %q restructured after its stage runners were built", sr.pl.Name))
		}
		return next, finished
	}
	if finished {
		sr.Finished++
	} else {
		sr.Dropped++
	}
	if p.Recycler != nil {
		p.Recycler.Recycle(&sr.ctx, p)
	}
	return -1, finished
}
