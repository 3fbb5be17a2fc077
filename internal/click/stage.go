package click

import "fmt"

// Stage support: a pipeline graph can be cut into consecutive stages that
// run on different cores, connected by hand-off rings (the Section 2.2
// "pipeline" deployment). The cut is declared by assigning nodes to stage
// indices; execution of one stage's sub-walks is driven by a StageRunner,
// which stops a packet's walk at the first edge leaving its stage and
// reports the node the next stage must resume at. The Pipeline itself
// still executes run-to-completion (EmitPacket ignores stages), so solo
// profiling of a staged graph measures the same work a single core would
// do.

// AssignStages cuts the graph: stageOf maps element names to stage
// indices; every unlisted node inherits the maximum stage of its
// predecessors (the head defaults to 0), so declaring just the entry
// elements of each cut is enough. It validates that stage indices are
// contiguous from 0, that the head is in stage 0, and that every edge
// stays within its stage or crosses to the next one. Call it after any
// structural edits (PushFront/InsertBefore); the assignment is final.
func (pl *Pipeline) AssignStages(stageOf map[string]int) error {
	byName := make(map[string]*Node, len(pl.nodes))
	for _, n := range pl.nodes {
		byName[n.Name] = n
		n.Stage = 0
	}
	explicit := make(map[*Node]bool, len(stageOf))
	for name, s := range stageOf {
		n, ok := byName[name]
		if !ok {
			return fmt.Errorf("click: stage assignment names unknown element %q", name)
		}
		if s < 0 {
			return fmt.Errorf("click: element %q assigned negative stage %d", name, s)
		}
		n.Stage = s
		explicit[n] = true
	}

	// Inherit: in topological order, an unassigned node joins the latest
	// stage any predecessor runs in.
	preds := make(map[*Node][]*Node, len(pl.nodes))
	for _, n := range pl.nodes {
		for _, t := range n.Out {
			if t != nil {
				preds[t] = append(preds[t], n)
			}
		}
	}
	for _, n := range pl.nodes {
		if explicit[n] {
			continue
		}
		for _, p := range preds[n] {
			if p.Stage > n.Stage {
				n.Stage = p.Stage
			}
		}
	}

	if pl.head != nil && pl.head.Stage != 0 {
		return fmt.Errorf("click: head element %q must be in stage 0, not %d", pl.head.Name, pl.head.Stage)
	}
	max := 0
	seen := map[int]bool{}
	for _, n := range pl.nodes {
		seen[n.Stage] = true
		if n.Stage > max {
			max = n.Stage
		}
	}
	for s := 0; s <= max; s++ {
		if !seen[s] {
			return fmt.Errorf("click: stage %d is empty; stages must be contiguous from 0", s)
		}
	}
	for _, n := range pl.nodes {
		for _, t := range n.Out {
			if t == nil {
				continue
			}
			if t.Stage != n.Stage && t.Stage != n.Stage+1 {
				return fmt.Errorf("click: edge %s -> %s crosses from stage %d to stage %d; cuts may only hand packets to the next stage",
					n.Name, t.Name, n.Stage, t.Stage)
			}
		}
	}
	pl.numStages = max + 1
	pl.reindex()
	return nil
}

// NumStages returns how many stages the graph is cut into (1 when
// AssignStages was never called).
func (pl *Pipeline) NumStages() int {
	if pl.numStages == 0 {
		return 1
	}
	return pl.numStages
}

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

	Received   uint64 // packets entering this stage
	Handed     uint64 // packets passed on to the next stage
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
	sr.Received, sr.Handed, sr.Finished, sr.Dropped, sr.CutDropped = 0, 0, 0, 0, 0
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
// counts the packet finished when any branch anywhere completed — the
// same per-packet rule Pipeline.walk applies run-to-completion — and a
// handing-off walk returns the accumulated flag for the next stage's
// ring slot. A walk can hand off at most once: if a second branch
// reaches the cut (a Tee broadcasting across it), that branch is lost
// and counted in CutDropped.
func (sr *StageRunner) Walk(p *Packet, entry int, priorFinished bool) (next int, finished bool) {
	sr.Received++
	res := walkResult{finished: 1} // bare source (entry -1): done at pull, as EmitPacket counts it
	if entry >= 0 {
		var stack []*Node
		res, stack = walkNodes(&sr.ctx, sr.stack, sr.pl.nodes[entry], p, sr.stage)
		sr.stack = stack[:0]
	}
	sr.CutDropped += uint64(res.extraCross)
	finished = priorFinished || res.finished > 0
	if res.handoff != nil {
		sr.Handed++
		next, ok := sr.pl.idx[res.handoff]
		if !ok {
			panic(fmt.Sprintf("click: pipeline %q restructured after AssignStages", sr.pl.Name))
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
