// Package mem manages the simulated physical address space: per-NUMA-domain
// arenas hand out address ranges for the data structures of
// packet-processing applications, so that every logical structure has a
// stable simulated location and every access to it can be replayed against
// the cache hierarchy in package hw.
//
// The paper's configuration allocates each flow's data "locally", through
// the memory controller attached to the processor running the flow
// (Section 2.2, "NUMA memory allocation"); arenas make that placement
// decision explicit and testable.
//
// A structure's simulated layout is fixed at build time, but its host
// side need not be: Slots keeps a hashed table's entries only for the
// slots a run takes, so a flow table's host memory follows its live
// flows, not its capacity.
package mem

import (
	"fmt"

	"pktpredict/internal/hw"
)

// Arena is a bump allocator over one NUMA domain's simulated address
// range. It is not safe for concurrent use; allocation happens during
// single-threaded experiment setup.
//
// Every allocation is recorded as a Binding under the arena's current
// label (SetLabel), so callers can reconstruct exactly which structure
// lives where — the hook state placement and migration decisions hang
// off: a flow that knows its tables' base, footprint, and domain can be
// asked what moving them would cost.
type Arena struct {
	domain int
	next   hw.Addr
	limit  hw.Addr

	label    string
	bindings []Binding
	// sealed forces the next allocation to open a new binding even under
	// an unchanged label; SetLabel sets it so two structures that happen
	// to share a label string never merge into one record.
	sealed bool
}

// Binding records one labelled allocation span: which structure it is,
// where its simulated memory starts, and how many bytes it covers.
// Consecutive allocations under one SetLabel call coalesce into a single
// binding (a structure built from many small allocations is one span in
// a bump allocator), so the record stays compact.
type Binding struct {
	Label string
	Base  hw.Addr
	Size  uint64
}

// arenaCapacity bounds each domain's allocatable range. 1 TiB per domain
// is far beyond any experiment's needs and keeps domain ids disjoint.
const arenaCapacity = hw.Addr(1) << 40

// NewArena returns an empty arena for NUMA domain d. Multiple arenas for
// the same domain would hand out overlapping addresses; create one per
// domain per experiment.
func NewArena(d int) *Arena {
	if d < 0 {
		panic(fmt.Sprintf("mem: negative NUMA domain %d", d))
	}
	base := hw.DomainBase(d)
	// The first page of every domain stays unallocated, like a real
	// address space's null page; address 0 is never a valid allocation.
	return &Arena{domain: d, next: base + 4096, limit: base + arenaCapacity}
}

// Domain returns the NUMA domain this arena allocates from.
func (a *Arena) Domain() int { return a.domain }

// SetLabel names the structure subsequent allocations belong to and
// returns the previous label, so callers can restore it:
//
//	defer a.SetLabel(a.SetLabel("flow_table"))
func (a *Arena) SetLabel(label string) (old string) {
	old = a.label
	a.label = label
	a.sealed = true
	return old
}

// Mark returns a cursor into the binding record; BindingsSince(Mark())
// brackets the allocations of one build. It also seals the current
// binding so a later allocation can never extend a span recorded before
// the mark.
func (a *Arena) Mark() int {
	a.sealed = true
	return len(a.bindings)
}

// Bindings returns the arena's full allocation record in address order.
// The slice is shared; callers must not modify it.
func (a *Arena) Bindings() []Binding { return a.bindings }

// BindingsSince returns copies of the bindings recorded after mark.
func (a *Arena) BindingsSince(mark int) []Binding {
	if mark < 0 || mark > len(a.bindings) {
		panic(fmt.Sprintf("mem: binding mark %d outside [0,%d]", mark, len(a.bindings)))
	}
	out := make([]Binding, len(a.bindings)-mark)
	copy(out, a.bindings[mark:])
	return out
}

// record extends the current binding or opens a new one for [base, end).
func (a *Arena) record(base, end hw.Addr) {
	if n := len(a.bindings); !a.sealed && n > 0 && a.bindings[n-1].Label == a.label {
		// Same structure, still the same SetLabel epoch: one span. Any
		// alignment gap between the spans is dead padding the structure
		// owns anyway.
		a.bindings[n-1].Size = uint64(end - a.bindings[n-1].Base)
		return
	}
	a.bindings = append(a.bindings, Binding{Label: a.label, Base: base, Size: uint64(end - base)})
	a.sealed = false
}

// Used returns the number of bytes allocated so far, excluding the
// reserved null page.
func (a *Arena) Used() uint64 { return uint64(a.next-hw.DomainBase(a.domain)) - 4096 }

// Alloc reserves size bytes aligned to align (which must be a power of
// two; 0 means cache-line alignment) and returns the base address.
func (a *Arena) Alloc(size uint64, align uint64) hw.Addr {
	if align == 0 {
		align = hw.LineSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (a.next + hw.Addr(align-1)) &^ hw.Addr(align-1)
	end := base + hw.Addr(size)
	if end > a.limit {
		panic(fmt.Sprintf("mem: domain %d arena exhausted (%d bytes requested)", a.domain, size))
	}
	a.next = end
	if end > base {
		a.record(base, end)
	}
	return base
}

// Reserve allocates address space like Alloc but records no binding: for
// sparse structures that reserve a generous contiguous range and touch
// only what insertions populate (e.g. the radix trie's entry array).
// The structure reports the extent it actually uses via Record, so
// footprint-based decisions (state-migration thresholds, copy costs) see
// touched bytes rather than reserved address space.
func (a *Arena) Reserve(size uint64, align uint64) hw.Addr {
	mark := a.Mark()
	base := a.Alloc(size, align)
	a.bindings = a.bindings[:mark]
	a.sealed = true
	return base
}

// Record adds an explicit binding for [base, base+size) under the
// arena's current label — how a sparse structure reports the touched
// extent inside an earlier Reserve. Zero-size records are dropped.
func (a *Arena) Record(base hw.Addr, size uint64) {
	if size == 0 {
		return
	}
	a.bindings = append(a.bindings, Binding{Label: a.label, Base: base, Size: size})
	a.sealed = true
}

// Region is a fixed-stride array of elements in simulated memory,
// pairing a Go-side data structure with its simulated layout.
type Region struct {
	Base   hw.Addr
	Stride uint64 // bytes per element, including padding
	Count  int
}

// NewRegion allocates count elements of elemSize bytes each. Elements
// smaller than a cache line are padded up to line granularity only if
// padToLine is set; otherwise they pack contiguously, so consecutive
// elements may share lines — exactly like a real array.
func NewRegion(a *Arena, count int, elemSize uint64, padToLine bool) Region {
	stride := elemSize
	if padToLine {
		stride = (elemSize + hw.LineSize - 1) &^ uint64(hw.LineSize-1)
	}
	base := a.Alloc(stride*uint64(count), hw.LineSize)
	return Region{Base: base, Stride: stride, Count: count}
}

// Addr returns the simulated address of element i.
func (r Region) Addr(i int) hw.Addr {
	if i < 0 || i >= r.Count {
		panic(fmt.Sprintf("mem: region index %d out of range [0,%d)", i, r.Count))
	}
	return r.Base + hw.Addr(uint64(i)*r.Stride)
}

// Size returns the region's extent in bytes.
func (r Region) Size() uint64 { return r.Stride * uint64(r.Count) }

// Slots is the host side of a hashed table's slots: a value exists only
// for a slot that was taken. An index maps each slot to its value's
// position, 0 meaning never taken, and values sit densely in fixed
// chunks, so a table costs 4 bytes a slot plus what its live entries
// hold, a returned pointer stays valid, and growth never copies a value.
type Slots[T any] struct {
	pos    []uint32 // slot → 1 + position of its value; 0: never taken
	chunks []*[slotChunk]T
	taken  int
}

// slotChunk values share a chunk.
const slotChunk = 256

// NewSlots returns n slots, none taken, holding no values.
func NewSlots[T any](n int) *Slots[T] { return &Slots[T]{pos: make([]uint32, n)} }

// Taken returns the number of slots ever taken.
func (s *Slots[T]) Taken() int { return s.taken }

// Get returns slot i's value, or nil when slot i was never taken.
func (s *Slots[T]) Get(i int) *T {
	p := s.pos[i]
	if p == 0 {
		return nil
	}
	return &s.chunks[(p-1)/slotChunk][(p-1)%slotChunk]
}

// Take returns slot i's value, zeroed on the slot's first take.
func (s *Slots[T]) Take(i int) *T {
	if v := s.Get(i); v != nil {
		return v
	}
	p := s.taken
	if p%slotChunk == 0 {
		s.chunks = append(s.chunks, new([slotChunk]T))
	}
	s.taken++
	s.pos[i] = uint32(s.taken)
	return &s.chunks[p/slotChunk][p%slotChunk]
}
