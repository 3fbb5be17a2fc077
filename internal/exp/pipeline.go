package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/core"
	"pktpredict/internal/handoff"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/table"
)

// Section 2.2: the "parallel" approach (each packet fully processed by
// one core) versus the "pipeline" approach (processing steps split across
// cores, packets handed over through a shared ring). Both are a
// click.Pipeline parsed from Click text, the pipeline cut by the text's
// `stage 1:` statement; each stage is a click.StageRunner walk between
// internal/handoff rings — descriptor and header lines crossing cores,
// spin-wait polls, buffer recycling into another core's pool — exactly
// the walk and ring code runtime.stage.step runs, so the engine and the
// concurrent runtime charge identical hand-off costs. Pipelining wins
// only for the crafted workload: per-stage cacheable structures that,
// replicated per core, overflow the shared cache.

// cut is one stage of a cut pipeline as an engine flow: stage 0 pulls
// from the pipeline's source, a later stage pops its in ring; a walk that
// crosses the cut is pushed to the out ring, one that ends here recycles
// the packet (for a later stage, into the first core's pool: more
// cross-core traffic). An uncut pipeline is one cut with no rings.
type cut struct {
	runner  *click.StageRunner
	src     click.Source
	in, out *handoff.Ring
	entry   int
}

// cutPipeline returns pl's stages in order — as many as its Click text's
// `stage` statements cut it into — joined by rings allocated in arena.
func cutPipeline(pl *click.Pipeline, arena *mem.Arena) ([]*cut, error) {
	cuts := make([]*cut, pl.NumStages())
	for s := range cuts {
		runner, err := pl.StageRunner(s)
		if err != nil {
			return nil, err
		}
		cuts[s] = &cut{runner: runner, src: pl.Source, entry: pl.HeadIndex()}
		if s > 0 {
			cuts[s].in = handoff.New(arena, 128)
			cuts[s-1].out = cuts[s].in
		}
	}
	return cuts, nil
}

// monPipeline parses MON as the flow builder does, its state in arena,
// cut after the route lookup: Params.Config names inline elements class@k
// in chain order.
func monPipeline(p *core.Predictor, arena *mem.Arena) (*click.Pipeline, error) {
	seed := core.SeedFor(apps.MON, 0)
	env := &click.Env{Arena: arena, Seed: seed, RxBatch: p.Params.RxBatch}
	return click.ParseConfig(env, string(apps.MON), p.Params.Config(apps.MON, seed)+"stage 1: DecIPTTL@3;")
}

// craftedPipeline parses the adversarial graph: a small-packet source and
// two Syn halves of 110 accesses each (>200 per packet, as in the paper)
// to a region the size of the L3, built in declaration order. A second
// arena cuts half b into stage 1 and holds its state.
func craftedPipeline(p *core.Predictor, seedIdx int, arenas ...*mem.Arena) (*click.Pipeline, error) {
	seed, l3 := core.SeedFor("crafted", seedIdx), p.Cfg.L3.SizeBytes
	cfg := fmt.Sprintf("src :: FromDevice(SIZE 64, SEED %d, FLOWS 1024); a :: Syn(REGION %d, ACCESSES 110);\n"+
		"b :: Syn(REGION %d, ACCESSES 110, SEED %d); src -> a -> b;\n", seed, l3, l3, seed^0xb)
	if len(arenas) > 1 {
		cfg += "stage 1: b;"
	}
	env := &click.Env{Arena: arenas[0], Seed: seed, ArenaAt: func(s int) *mem.Arena { return arenas[s] }}
	return click.ParseConfig(env, "crafted", cfg)
}

// EmitPacket implements hw.PacketSource. A trace with no packet behind
// it — a spin-wait poll, a failed pull — still returns what it charged:
// cycles already spent must not vanish.
func (c *cut) EmitPacket(buf []hw.Op) []hw.Op {
	ctx := c.runner.Ctx()
	ctx.Ops = buf
	if c.out != nil && c.out.Full() {
		c.out.PollFull(ctx) // back-pressure: wait for the consumer
		return ctx.Ops
	}
	var p *click.Packet
	entry, prior := c.entry, false
	if c.in == nil {
		if p = c.src.Pull(ctx); p == nil {
			return ctx.Ops
		}
	} else {
		var ok bool
		if p, entry, prior, ok = c.in.Pop(ctx); !ok {
			c.in.PollEmpty(ctx)
			return ctx.Ops
		}
		// The packet's header lines were last written by the other core;
		// this read is the compulsory hand-off miss the paper describes.
		c.in.ChargeHeaderMiss(ctx, p)
	}
	if next, fin := c.runner.Walk(p, entry, prior); next >= 0 {
		c.out.Push(ctx, p, next, fin)
	}
	return ctx.Ops
}

// completed counts the packets whose walk ended in this stage. The
// engine's packet counter cannot stand in: it counts every trace, a
// spin-wait poll included.
func (c *cut) completed() uint64 { return c.runner.Finished + c.runner.Dropped }

// PipelineRow is one workload's comparison.
type PipelineRow struct {
	Workload string
	// ParallelPktsPerSec is the aggregate throughput of two independent
	// full-processing flows on two cores.
	ParallelPktsPerSec float64
	// PipelinePktsPerSec is the completion rate of the two-core pipeline.
	PipelinePktsPerSec float64
}

// Winner returns which approach won.
func (r PipelineRow) Winner() string {
	if r.ParallelPktsPerSec >= r.PipelinePktsPerSec {
		return "parallel"
	}
	return "pipeline"
}

// PipelineResult reproduces the Section 2.2 comparison: for realistic
// workloads the parallel approach wins; for the crafted
// large-cacheable-structure workload the pipeline wins.
type PipelineResult struct {
	Rows []PipelineRow
}

// RunPipeline compares both approaches on a realistic workload (MON) and
// on the crafted workload.
func RunPipeline(p *core.Predictor) (*PipelineResult, error) {
	out := &PipelineResult{}

	mon, err := pipelineVsParallelMON(p)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, mon)

	crafted, err := pipelineVsParallelCrafted(p)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, crafted)
	return out, nil
}

// pipelineVsParallelMON splits the MON pipeline after the route lookup.
func pipelineVsParallelMON(p *core.Predictor) (PipelineRow, error) {
	row := PipelineRow{Workload: "MON"}

	// Parallel: two independent MON flows on one socket.
	par, _, err := p.MeasureMix([]apps.FlowType{apps.MON, apps.MON})
	if err != nil {
		return row, err
	}
	row.ParallelPktsPerSec = par[0].Throughput() + par[1].Throughput()

	// Pipeline: one MON flow split across two cores of the same socket.
	arena := mem.NewArena(0)
	pl, err := monPipeline(p, arena)
	if err != nil {
		return row, err
	}
	stages, err := cutPipeline(pl, arena)
	if err != nil {
		return row, err
	}
	row.PipelinePktsPerSec, err = completionRate(p, stages, 0, 1)
	return row, err
}

// pipelineVsParallelCrafted builds the Section 2.2 adversarial workload:
// each packet makes many accesses to a cacheable structure twice the L3
// size. Split across sockets, each stage's half fits its own L3; run in
// parallel, each core's full replica thrashes.
func pipelineVsParallelCrafted(p *core.Predictor) (PipelineRow, error) {
	row := PipelineRow{Workload: "crafted"}

	// Parallel: core 0 on socket 0 and core CoresPerSocket on socket 1,
	// each with a full local replica (the paper's NUMA policy).
	var replicas []*cut
	for i := 0; i < 2; i++ {
		arena := mem.NewArena(i)
		pl, err := craftedPipeline(p, i, arena)
		if err != nil {
			return row, err
		}
		whole, err := cutPipeline(pl, arena)
		if err != nil {
			return row, err
		}
		replicas = append(replicas, whole...)
	}
	var err error
	if row.ParallelPktsPerSec, err = completionRate(p, replicas, 0, p.Cfg.CoresPerSocket); err != nil {
		return row, err
	}

	// Pipeline: stage 0 on socket 0 with half a local; stage 1 on socket
	// 1 with half b local; hand-off crosses QPI.
	arena0 := mem.NewArena(0)
	pl, err := craftedPipeline(p, 9, arena0, mem.NewArena(1))
	if err != nil {
		return row, err
	}
	stages, err := cutPipeline(pl, arena0)
	if err != nil {
		return row, err
	}
	row.PipelinePktsPerSec, err = completionRate(p, stages, 0, p.Cfg.CoresPerSocket)
	return row, err
}

// completionRate attaches flows[i] to cores[i] of a fresh platform and
// returns the packets per second completed over the window, summed over
// the flows that complete packets at all: both replicas of a parallel
// pair, the last stage of a chain.
func completionRate(p *core.Predictor, flows []*cut, cores ...int) (float64, error) {
	engine := hw.NewEngine(hw.NewPlatform(p.Cfg))
	for i, c := range flows {
		engine.Attach(cores[i], fmt.Sprintf("core%d/stage%d", cores[i], c.runner.Stage()), c)
	}
	engine.RunSeconds(p.Warmup)
	for _, c := range flows {
		c.runner.Reset()
	}
	var rate float64
	for i, st := range engine.Measure(p.Window) {
		if flows[i].out != nil {
			continue
		}
		if st.Seconds == 0 {
			return 0, fmt.Errorf("exp: %s made no progress", st.Label)
		}
		rate += float64(flows[i].completed()) / st.Seconds
	}
	return rate, nil
}

// Table lists both approaches' throughput per workload.
func (r *PipelineResult) Table() *table.Table {
	t := table.New("Section 2.2: parallel vs pipeline (2 cores each)",
		"workload", "parallel_pps", "pipeline_pps", "winner").Format(fixed(0), "parallel_pps", "pipeline_pps")
	for _, row := range r.Rows {
		t.Add(row.Workload, row.ParallelPktsPerSec, row.PipelinePktsPerSec, row.Winner())
	}
	return t
}
