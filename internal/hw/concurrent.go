package hw

// Trace execution. The Engine interleaves flows in global virtual-time
// order on one OS thread; the runtime (package runtime) instead runs one
// goroutine per simulated socket, stepping its cores in clock order, and
// keeps core clocks loosely synchronised with a time quantum. Both replay
// ops through the same interpreter (Core.exec); ExecOps is the per-core
// entry point for the concurrent mode, adding only the owning socket's
// lock, held once per run of consecutive memory ops, so that even one
// goroutine per core, same-socket cores included, is safe.
//
// Lock order: Socket.mu → Channel.mu. Sockets never lock each other —
// an access only ever touches its own socket's caches; remote-domain
// traffic goes through the home socket's channels, leaf locks once
// BoundChannelWaits, the concurrent set-up, marks them shared.

// exec is the package's one op interpreter: it replays ops on c,
// advancing the core's clock and charging each op's latency to the core,
// function and element accounts. The executors differ only in the policy
// around it. The Engine passes one op at a time in global virtual-time
// order with shared false: it is single-threaded and never locks. ExecOps
// and ExecStall pass a whole trace with shared true, and exec then takes
// the owning socket's lock once per run of consecutive memory ops,
// releasing it at every compute op and at the end of the trace. A compute
// op touches no shared state, so it bounds every hold. In production the
// lock is never contended (the runtime steps each socket from one
// goroutine); only bench/layers.go's replay of one socket waits on it.
//
//dataplane:hotpath
func (c *Core) exec(ops []Op, shared bool) {
	cnt := &c.Counters
	locked := false
	for _, op := range ops {
		var lat, instrs uint64 = 0, 1
		switch op.Kind {
		case OpCompute:
			if locked {
				c.Socket.mu.Unlock()
				locked = false
			}
			lat, instrs = uint64(op.Cycles), uint64(op.Instrs)
		case OpLoad, OpStore, OpLoadStream:
			if shared && !locked {
				c.Socket.mu.Lock()
				locked = true
			}
			c.curElem = op.Elem
			lat = c.Access(c.clock, op.Addr, op.Kind == OpStore, op.Func)
			if op.Kind == OpLoadStream {
				if mlp := c.Socket.platform.Cfg.StreamMLP; mlp > 1 {
					lat = (lat + mlp - 1) / mlp
				}
			}
		case OpDMAWrite:
			if shared && !locked {
				c.Socket.mu.Lock()
				locked = true
			}
			c.DMAWrite(c.clock, op.Addr)
			continue // the NIC does the work: no cycles, no instruction
		default:
			if locked {
				c.Socket.mu.Unlock() // peers on the socket must outlive the panic
			}
			panic("hw: unknown op kind")
		}
		c.clock += lat
		cnt.Cycles += lat
		cnt.Instructions += instrs
		cnt.Func[op.Func].Cycles += lat
		if c.elems != nil {
			c.elems[op.Elem].cost.Cycles += lat
		}
	}
	if locked {
		c.Socket.mu.Unlock()
	}
}

// ExecOps replays one packet's micro-operation trace on c, advancing the
// core's local clock and counters. It is safe from one goroutine per core
// (the runtime drives a socket's cores from one goroutine); two must never
// drive the same core. A non-empty trace is one packet, as in the Engine.
//
//dataplane:hotpath
func (c *Core) ExecOps(ops []Op) {
	c.exec(ops, true)
	if len(ops) > 0 {
		c.Counters.Packets++
	}
}

// ExecStall replays busy-work that processed no packet — a spin-wait
// poll of an empty hand-off ring, a batch of buffer returns — advancing
// the clock and cycle counters without touching the packet counter, so
// counter-derived packet rates stay honest.
//
//dataplane:hotpath
func (c *Core) ExecStall(ops []Op) {
	c.exec(ops, true)
}

// BoundChannelWaits readies the platform for concurrent execution: each
// channel's queueing delay is capped at maxWait cycles (see MaxWait) and
// the channel marked shared, so Occupy locks. Call it before any flow runs.
func (p *Platform) BoundChannelWaits(maxWait uint64) {
	for _, s := range p.Sockets {
		s.Mem.MaxWait, s.Mem.shared = maxWait, true
		s.QPI.MaxWait, s.QPI.shared = maxWait, true
	}
}

// AdvanceTo moves the core's local clock forward to t if it is behind:
// the idle time of a run-to-completion worker polling an empty queue.
// Idle cycles advance virtual time but are not charged to Counters.Cycles,
// so per-packet costs remain work-based.
func (c *Core) AdvanceTo(t uint64) {
	if c.clock < t {
		c.clock = t
	}
}
