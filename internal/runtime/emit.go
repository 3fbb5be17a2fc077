package runtime

import (
	"math/bits"
	stdruntime "runtime"
	"slices"
	"sync/atomic"

	"pktpredict/internal/core"
)

// Emission ahead. A packet's trace depends on the packet order and the
// flow's element state, never on simulated time, so the walk that emits
// it can run on another host CPU while the socket goroutine replays
// other workers' traces in clock order. When the process's CPU budget
// has a CPU to spare (core.SpareCPU), a socket's emitter walks its
// one-stage workers' next packets one step ahead; the socket goroutine
// still takes every step in the order it always did, so no byte moves.
//
// The one-step rule: after poll returns true for worker w, w's next poll
// calls step in this quantum exactly when w.n < w.batch and w's clock is
// below the limit — and at runSocket's start, for every live worker. The
// socket goroutine requests w's next step then and only then, so the
// emitter never walks a step the quantum does not take, and every
// request is taken before the socket's quantum ends. Batch close, flush,
// the clip test and everything a barrier changes (control delays,
// migrations, ring refills) stay on the socket goroutine or at the
// barrier, where every emitter is idle. An emitter never touches hw.
//
// The handshake per eligible worker is one state word: idle, requested,
// emitting, ready. A request writes its queue slot, sets requested and
// then publishes the slot; the emitter pops a slot and claims the worker
// by CAS from requested to emitting. The socket goroutine never waits on
// a request the emitter has not claimed: it CASes it back to idle and
// walks the step itself (a steal), so there is one step function and the
// emitter only changes where it runs. A stolen request leaves its slot
// in the queue; the claim's CAS skips it, and a full queue makes the
// next request walk in-line instead. The emitter fills the worker's own
// trace buffer: a request follows the replay of the worker's last trace,
// so the buffer is free until the socket goroutine takes the step.

const (
	aheadIdle uint32 = iota
	aheadRequested
	aheadEmitting
	aheadReady
)

// ahead is one eligible worker's half of the handshake, on cache lines of
// its own: the socket goroutine and the emitter both write it.
type ahead struct {
	_     [64]byte
	state atomic.Uint32
	res   stepResult // the emitted step, valid in state ready
	_     [64]byte
}

// group is one socket's workers, which one goroutine steps (runSocket),
// and the emitter that may walk their next packets ahead.
type group struct {
	socket   int
	ws, live []*worker // live: runSocket's buffer
	eligible []*worker // the one-stage workers an emitter may serve
	em       *emitter  // made at Run when two or more workers are eligible

	// The emitter's tallies since the run began, marked at barriers:
	// quanta run with the emitter granted (written by the barrier),
	// stolen requests and takes that waited for the emitter (written by
	// the socket goroutine).
	emitQuanta, steals, waits uint64
}

// canEmit reports whether the group can have an emitter: with one
// eligible worker its next step is needed at once.
func (g *group) canEmit() bool { return len(g.eligible) >= 2 }

// groupWorkers groups workers by socket, in first-appearance order. A
// worker is eligible when its flow is one stage: a chain stage's
// hand-off, return rings and trace sampling stay in-line. Re-placement
// swaps only one-stage flows, so eligibility holds for the whole run.
func groupWorkers(workers []*worker) []*group {
	var gs []*group
	for _, w := range workers {
		i := slices.IndexFunc(gs, func(g *group) bool { return g.socket == w.socket })
		if i < 0 {
			i = len(gs)
			gs = append(gs, &group{socket: w.socket})
		}
		g := gs[i]
		g.ws, g.live = append(g.ws, w), append(g.live, w)
		if len(w.unit.fl.stages) == 1 {
			g.eligible = append(g.eligible, w)
		}
	}
	return gs
}

// emitter is one socket's emission goroutine and its request queue, a
// single-producer (the socket goroutine) single-consumer ring of workers.
type emitter struct {
	g     *group
	slots []*worker // a power of two long
	_     [64]byte
	tail  atomic.Uint64 // written by the socket goroutine
	_     [64]byte
	head  atomic.Uint64 // written by the emitter
	_     [64]byte
	on    atomic.Bool // the socket's quantum is running

	wake  chan struct{} // one token a granted quantum; closed by stop
	done  chan struct{}
	delay func() // test hook: runs before each claim
}

// newEmitter makes g's emitter state; its goroutine starts at the first
// quantum the budget grants.
func newEmitter(g *group, delay func()) *emitter {
	e := &emitter{g: g, slots: make([]*worker, 1<<bits.Len(uint(4*len(g.eligible)))), delay: delay}
	for _, w := range g.eligible {
		w.ahead = new(ahead)
	}
	return e
}

// begin opens a quantum for the emitter: it spins on the queue until the
// socket goroutine ends the quantum, then parks.
func (e *emitter) begin() {
	e.on.Store(true)
	if e.done == nil {
		e.wake, e.done = make(chan struct{}, 1), make(chan struct{})
		go e.run()
	}
	select {
	case e.wake <- struct{}{}:
	default: // a token is pending: the emitter has not parked since
	}
}

func (e *emitter) run() {
	defer close(e.done)
	for range e.wake {
		for spins := 0; e.on.Load(); spins++ {
			if !e.claim() && spins%64 == 63 {
				stdruntime.Gosched()
			}
		}
	}
}

// stop ends the emitter's goroutine, if it started.
func (e *emitter) stop() {
	if e.done != nil {
		close(e.wake)
		<-e.done
	}
}

// claim pops one queued request and, unless the socket goroutine stole
// it, walks the worker's next step. It reports whether the queue held
// anything.
//
//dataplane:hotpath
func (e *emitter) claim() bool {
	h := e.head.Load()
	if h == e.tail.Load() {
		return false
	}
	w := e.slots[h&uint64(len(e.slots)-1)]
	e.head.Store(h + 1)
	if e.delay != nil {
		e.delay()
	}
	a := w.ahead
	if a.state.CompareAndSwap(aheadRequested, aheadEmitting) {
		a.res = w.unit.step(w)
		a.state.Store(aheadReady)
	}
	return true
}

// request asks the emitter for w's next step (see the one-step rule). A
// nil e, an ineligible worker or a full queue leaves the step to poll.
//
//dataplane:hotpath
func (e *emitter) request(w *worker) {
	if e == nil || w.ahead == nil {
		return
	}
	t := e.tail.Load()
	if t-e.head.Load() == uint64(len(e.slots)) {
		return
	}
	e.slots[t&uint64(len(e.slots)-1)] = w
	w.ahead.state.Store(aheadRequested)
	e.tail.Store(t + 1)
}

// take returns w's next step: the emitter's once it is ready, or walked
// here when nothing was requested or the emitter has not claimed it.
//
//dataplane:hotpath
func (e *emitter) take(w *worker) stepResult {
	a := w.ahead
	if e == nil || a == nil {
		return w.unit.step(w)
	}
	switch a.state.Load() {
	case aheadIdle:
		return w.unit.step(w)
	case aheadRequested:
		if a.state.CompareAndSwap(aheadRequested, aheadIdle) {
			e.g.steals++
			return w.unit.step(w)
		}
	}
	if a.state.Load() != aheadReady {
		e.g.waits++
		for spins := 1; a.state.Load() != aheadReady; spins++ {
			if spins%64 == 0 {
				stdruntime.Gosched()
			}
		}
	}
	res := a.res
	a.state.Store(aheadIdle)
	return res
}

// grant opens quantum's emitters on the groups the budget (or force)
// allows and returns how many CPUs it took from core.SpareCPU.
func grant(groups []*group, force bool) (spares int) {
	for _, g := range groups {
		if g.em == nil {
			continue
		}
		spare := core.SpareCPU()
		if spare {
			spares++
		}
		if spare || force {
			g.emitQuanta++
			g.em.begin()
		}
	}
	return spares
}
