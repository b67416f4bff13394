package power

import "slices"

// Incremental is the event-driven evaluation engine for a Model. The
// dense Model.Compute sweeps every node and every chassis conversion
// chain on each call even though utilization is piecewise-constant — it
// only changes when a job starts, ends, or crosses a 15 s trace quantum.
// Incremental exploits that structure at the granularity of allocations:
//
//   - Each node set given to SetNodes becomes one slot holding a single
//     (P_S48V, CPU W, GPU W) value; a node stores only the index of the
//     slot that owns it. Slot 0 is idle, and SetNodesIdle returns nodes
//     to it.
//   - Calling SetNodes again with the same set rewrites the slot's value
//     once and dirties the slot's chassis list, so a trace-quantum
//     update costs O(chassis touched), not O(nodes).
//   - A chassis one slot owns whole (no idle filler) copies the slot's
//     shared evaluation: the node-order sum of its value repeated
//     NodesPerChassis times plus one conversion-chain evaluation,
//     computed once per value change. Mixed chassis are summed in node
//     order through the owner index.
//
// ComputeDelta re-evaluates only the dirty chassis, then re-aggregates
// rack/CDU/system totals in exactly the summation order Compute uses, so
// the headline fields (TotalW, NodeOutW, losses, per-rack and per-CDU
// inputs) are bit-identical to Compute on any topology. The Breakdown's
// CPU/GPU entries are summed per chassis in node order and then over
// chassis — hierarchical rather than Compute's flat sum, so they differ
// from it only by rounding (≲1e-12 relative).
//
// The Model must not be mutated after NewIncremental — the engine caches
// component powers and the conversion chain. Compute remains the
// reference implementation; the equivalence is pinned by tests.
type Incremental struct {
	m *Model

	// owner maps a node (length Topo.NodesTotal) to the slot whose value
	// it carries.
	owner []int32
	vals  []nodeValue // per-slot value, apart from slots for locality
	slots []slot
	free  []int32 // released slot indices, reused before the table grows

	chassis   []chassisCache
	dirtyList []int32

	// Constant breakdown entries (independent of utilization), captured
	// from the seeding reference Compute so they match it bit-for-bit.
	ramW, nvmeW, nicW float64

	sp SystemPower
}

// nodeValue is one node's contribution: its P_S48V and the CPU/GPU
// component powers feeding the Fig. 4 breakdown.
type nodeValue struct{ p, cpuW, gpuW float64 }

// chassisEval is one chassis's evaluation: the node-order sums of its
// node values and the conversion chain's input power and losses for
// their output.
type chassisEval struct {
	out, cpuW, gpuW               float64
	inputW, rectLossW, sivocLossW float64
}

// slot is one allocation's bookkeeping: what is needed to recognise and
// update it again. Its value lives in Incremental.vals.
type slot struct {
	nodes []int // the node list as given, compared on repeat calls
	// size counts the distinct in-range nodes assigned; count those the
	// slot still owns. Nodes only ever leave a slot, so count == size
	// means the slot owns its whole list.
	size, count int
	chassis     []int32 // chassis holding the slot's nodes, ascending

	whole   chassisEval // shared evaluation of a chassis the slot owns whole
	wholeOK bool
}

// chassisCache holds one chassis's cached evaluation. start/end bound the
// chassis's real node slots; filler counts the idle padding slots the
// dense loop processes for topologies whose node count is not a multiple
// of the chassis size (the cache replicates Compute's iteration exactly).
type chassisCache struct {
	chassisEval
	start, end, filler int32
	dirty              bool
}

// NewIncremental builds the engine with every node idle and the cached
// state seeded from a reference Compute call.
func (m *Model) NewIncremental() *Incremental {
	t := m.Topo
	total := t.NodesTotal
	inc := &Incremental{
		m:       m,
		owner:   make([]int32, total),
		chassis: make([]chassisCache, t.NumRacks()*t.ChassisPerRack),
	}
	inc.vals = []nodeValue{inc.value(0, 0)}
	inc.slots = make([]slot, 1)

	// Replicate Compute's slot iteration so chassis boundaries — including
	// the padded tail when NodesTotal is not chassis-aligned — match the
	// dense sweep exactly. Real node n lies in chassis n / NodesPerChassis.
	cur := 0
	for c := range inc.chassis {
		start := cur
		for i := 0; i < t.NodesPerChassis; i++ {
			cur++
			if cur > total {
				break
			}
		}
		end := cur
		realStart, realEnd := min(start, total), min(end, total)
		inc.chassis[c] = chassisCache{
			start:  int32(realStart),
			end:    int32(realEnd),
			filler: int32((end - start) - (realEnd - realStart)),
		}
		inc.refreshChassis(c)
	}

	// Seed sp (and the constant breakdown entries) from the reference
	// implementation, then overwrite with the incremental aggregation so
	// subsequent deltas are self-consistent.
	zero := make([]float64, total)
	m.Compute(zero, zero, &inc.sp)
	inc.ramW = inc.sp.Breakdown.RAM
	inc.nvmeW = inc.sp.Breakdown.NVMe
	inc.nicW = inc.sp.Breakdown.NIC
	inc.resum()
	return inc
}

// Power returns the engine's live SystemPower. The pointer stays valid
// across ComputeDelta calls; slices within are reused, not reallocated.
func (inc *Incremental) Power() *SystemPower { return &inc.sp }

// Dirty reports whether any utilization change is pending aggregation.
func (inc *Incremental) Dirty() bool { return len(inc.dirtyList) > 0 }

// value evaluates Eq. 3 and the node's CPU/GPU breakdown entries for
// one utilization pair.
func (inc *Incremental) value(cpuUtil, gpuUtil float64) nodeValue {
	s := inc.m.Spec
	cu, gu := clamp01(cpuUtil), clamp01(gpuUtil)
	return nodeValue{
		p:    s.NodePower(cpuUtil, gpuUtil),
		cpuW: s.CPUIdle + cu*(s.CPUMax-s.CPUIdle),
		gpuW: float64(s.GPUsPerNode) * (s.GPUIdle + gu*(s.GPUMax-s.GPUIdle)),
	}
}

// SetNodes applies one utilization pair to a set of nodes — a job's
// allocation, where every node runs at the job's current trace sample.
// The same set given again (a trace-quantum crossing) rewrites its
// slot's value once; any other set becomes a new slot, taking its nodes
// from whichever slots owned them. Nodes whose value does not change do
// not dirty their chassis, and out-of-range indices are ignored.
func (inc *Incremental) SetNodes(nodes []int, cpuUtil, gpuUtil float64) {
	v := inc.value(cpuUtil, gpuUtil)
	if s := inc.slotOf(nodes); s > 0 {
		inc.setValue(s, v)
		return
	}
	s := inc.newSlot(v)
	inc.assign(nodes, s)
	sl := &inc.slots[s]
	if sl.count == 0 {
		inc.freeSlot(s)
		return
	}
	sl.size = sl.count
	sl.nodes = append(sl.nodes, nodes...)
	slices.Sort(sl.chassis)
	sl.chassis = slices.Compact(sl.chassis)
}

// SetNodesIdle resets a released allocation to idle.
func (inc *Incremental) SetNodesIdle(nodes []int) { inc.assign(nodes, 0) }

// slotOf returns the slot that owns exactly the node list nodes as an
// earlier SetNodes gave it, or 0 when there is none.
func (inc *Incremental) slotOf(nodes []int) int32 {
	for _, n := range nodes {
		if uint(n) >= uint(len(inc.owner)) {
			continue
		}
		s := inc.owner[n]
		if sl := &inc.slots[s]; s > 0 && sl.count == sl.size && slices.Equal(sl.nodes, nodes) {
			return s
		}
		return 0
	}
	return 0
}

// setValue rewrites slot s's value, dirtying its chassis if it changed.
func (inc *Incremental) setValue(s int32, v nodeValue) {
	if inc.vals[s] == v {
		return
	}
	inc.vals[s] = v
	sl := &inc.slots[s]
	sl.wholeOK = false
	for _, c := range sl.chassis {
		inc.markDirty(c)
	}
}

// assign moves nodes to slot s, dirtying the chassis whose values change
// and releasing the slots left with no nodes. For s > 0 it also counts
// the nodes s gains and lists their chassis (unsorted, possibly with
// repeats).
func (inc *Incremental) assign(nodes []int, s int32) {
	npc := inc.m.Topo.NodesPerChassis
	v := inc.vals[s]
	last := int32(-1)
	for _, n := range nodes {
		if uint(n) >= uint(len(inc.owner)) {
			continue
		}
		old := inc.owner[n]
		if old == s {
			continue
		}
		inc.owner[n] = s
		c := int32(n / npc)
		if inc.vals[old] != v {
			inc.markDirty(c)
		}
		inc.release(old)
		if s > 0 {
			sl := &inc.slots[s]
			sl.count++
			if c != last {
				sl.chassis = append(sl.chassis, c)
				last = c
			}
		}
	}
}

// newSlot returns a fresh slot holding v, reusing a released one first.
func (inc *Incremental) newSlot(v nodeValue) int32 {
	if k := len(inc.free); k > 0 {
		s := inc.free[k-1]
		inc.free = inc.free[:k-1]
		inc.vals[s] = v
		return s
	}
	inc.vals = append(inc.vals, v)
	inc.slots = append(inc.slots, slot{})
	return int32(len(inc.slots) - 1)
}

// release drops one node from slot s, freeing the slot when it empties.
// The idle slot is never released.
func (inc *Incremental) release(s int32) {
	if s == 0 {
		return
	}
	sl := &inc.slots[s]
	if sl.count--; sl.count == 0 {
		inc.freeSlot(s)
	}
}

// freeSlot clears slot s, keeping its buffers, and queues it for reuse.
func (inc *Incremental) freeSlot(s int32) {
	sl := &inc.slots[s]
	*sl = slot{nodes: sl.nodes[:0], chassis: sl.chassis[:0]}
	inc.free = append(inc.free, s)
}

func (inc *Incremental) markDirty(c int32) {
	if !inc.chassis[c].dirty {
		inc.chassis[c].dirty = true
		inc.dirtyList = append(inc.dirtyList, c)
	}
}

// ComputeDelta re-evaluates the dirty chassis and refreshes the
// aggregates, returning the live SystemPower. With no pending changes it
// returns the cached result untouched — the O(1) fast path for ticks
// where utilization did not move.
func (inc *Incremental) ComputeDelta() *SystemPower {
	if len(inc.dirtyList) == 0 {
		return &inc.sp
	}
	for _, c := range inc.dirtyList {
		inc.refreshChassis(int(c))
	}
	inc.dirtyList = inc.dirtyList[:0]
	inc.resum()
	return &inc.sp
}

// refreshChassis re-evaluates chassis c: a chassis one slot owns whole
// copies that slot's shared evaluation; any other is summed in node
// order (matching Compute) and run through its conversion chain.
func (inc *Incremental) refreshChassis(c int) {
	cc := &inc.chassis[c]
	cc.dirty = false
	owners := inc.owner[cc.start:cc.end]
	if cc.filler == 0 && len(owners) > 0 {
		s := owners[0]
		whole := true
		for _, o := range owners[1:] {
			if o != s {
				whole = false
				break
			}
		}
		if whole {
			cc.chassisEval = inc.wholeEval(s)
			return
		}
	}
	var e chassisEval
	for _, o := range owners {
		v := &inc.vals[o]
		e.out += v.p
		e.cpuW += v.cpuW
		e.gpuW += v.gpuW
	}
	idle := inc.vals[0]
	for k := int32(0); k < cc.filler; k++ {
		e.out += idle.p
		e.cpuW += idle.cpuW
		e.gpuW += idle.gpuW
	}
	e.convert(inc.m.Chain)
	cc.chassisEval = e
}

// convert fills e's input power and losses from its node output.
func (e *chassisEval) convert(chain ConversionChain) {
	res := chain.Chassis(e.out)
	e.inputW, e.rectLossW, e.sivocLossW = res.InputW, res.RectLossW, res.SivocLossW
}

// wholeEval returns the evaluation of a chassis whose every node carries
// slot s's value, computing it once per value change. The sums repeat
// the value NodesPerChassis times in node order, so they are the same
// floats the mixed-chassis loop would produce.
func (inc *Incremental) wholeEval(s int32) chassisEval {
	sl := &inc.slots[s]
	if !sl.wholeOK {
		v := inc.vals[s]
		var e chassisEval
		for i := 0; i < inc.m.Topo.NodesPerChassis; i++ {
			e.out += v.p
			e.cpuW += v.cpuW
			e.gpuW += v.gpuW
		}
		e.convert(inc.m.Chain)
		sl.whole, sl.wholeOK = e, true
	}
	return sl.whole
}

// resum rebuilds every aggregate from the per-chassis caches in the same
// rack-major order Compute uses, so rack, CDU, and system totals carry
// identical rounding to the dense sweep.
func (inc *Incremental) resum() {
	m := inc.m
	t := m.Topo
	numRacks := t.NumRacks()
	out := &inc.sp
	if cap(out.PerCDUInputW) < t.NumCDUs {
		out.PerCDUInputW = make([]float64, t.NumCDUs)
	}
	out.PerCDUInputW = out.PerCDUInputW[:t.NumCDUs]
	for i := range out.PerCDUInputW {
		out.PerCDUInputW[i] = 0
	}
	if cap(out.PerRackInputW) < numRacks {
		out.PerRackInputW = make([]float64, numRacks)
	}
	out.PerRackInputW = out.PerRackInputW[:numRacks]
	out.TotalW, out.NodeOutW, out.RectLossW, out.SivocLossW, out.SwitchW = 0, 0, 0, 0, 0

	var cpuW, gpuW float64
	ci := 0
	for rack := 0; rack < numRacks; rack++ {
		rackInput := 0.0
		for ch := 0; ch < t.ChassisPerRack; ch++ {
			cc := &inc.chassis[ci]
			ci++
			out.NodeOutW += cc.out
			out.RectLossW += cc.rectLossW
			out.SivocLossW += cc.sivocLossW
			rackInput += cc.inputW
			cpuW += cc.cpuW
			gpuW += cc.gpuW
		}
		sw := float64(t.SwitchesPerRack) * m.Spec.Switch
		rackInput += sw
		out.SwitchW += sw
		out.PerRackInputW[rack] = rackInput
		out.PerCDUInputW[t.CDUOfRack(rack)] += rackInput
		out.TotalW += rackInput
	}
	out.CDUPumpW = float64(t.NumCDUs) * m.Spec.CDUPump
	out.TotalW += out.CDUPumpW
	out.Breakdown = Breakdown{
		CPU: cpuW, GPU: gpuW,
		RAM: inc.ramW, NVMe: inc.nvmeW, NIC: inc.nicW,
		Switches: out.SwitchW,
		RectLoss: out.RectLossW, SivocLoss: out.SivocLossW,
		CDUPumps: out.CDUPumpW,
	}
}
