package power

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// assertSystemPowerExact fails unless got equals the dense reference
// bit for bit: every headline field against Compute's want, and the
// Breakdown's CPU/GPU entries against the node-order reference cpuW/gpuW.
// Those entries (and the Breakdown total) must also agree with Compute's
// own to a relative 1e-12, which ties the engine to Compute's component
// formula rather than to the reference alone.
func assertSystemPowerExact(t *testing.T, step int, want, got *SystemPower, cpuW, gpuW float64) {
	t.Helper()
	check := func(name string, a, b float64) {
		t.Helper()
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("step %d: %s: reference %v vs incremental %v", step, name, a, b)
		}
	}
	near := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-12*math.Max(math.Abs(a), math.Abs(b)) {
			t.Fatalf("step %d: %s: Compute %v vs incremental %v", step, name, a, b)
		}
	}
	near("Breakdown.CPU", want.Breakdown.CPU, got.Breakdown.CPU)
	near("Breakdown.GPU", want.Breakdown.GPU, got.Breakdown.GPU)
	near("Breakdown.Total", want.Breakdown.Total(), got.Breakdown.Total())
	check("TotalW", want.TotalW, got.TotalW)
	check("NodeOutW", want.NodeOutW, got.NodeOutW)
	check("RectLossW", want.RectLossW, got.RectLossW)
	check("SivocLossW", want.SivocLossW, got.SivocLossW)
	check("SwitchW", want.SwitchW, got.SwitchW)
	check("CDUPumpW", want.CDUPumpW, got.CDUPumpW)
	check("Breakdown.CPU", cpuW, got.Breakdown.CPU)
	check("Breakdown.GPU", gpuW, got.Breakdown.GPU)
	check("Breakdown.RAM", want.Breakdown.RAM, got.Breakdown.RAM)
	check("Breakdown.NVMe", want.Breakdown.NVMe, got.Breakdown.NVMe)
	check("Breakdown.NIC", want.Breakdown.NIC, got.Breakdown.NIC)
	check("Breakdown.Switches", want.Breakdown.Switches, got.Breakdown.Switches)
	check("Breakdown.RectLoss", want.Breakdown.RectLoss, got.Breakdown.RectLoss)
	check("Breakdown.SivocLoss", want.Breakdown.SivocLoss, got.Breakdown.SivocLoss)
	check("Breakdown.CDUPumps", want.Breakdown.CDUPumps, got.Breakdown.CDUPumps)
	if len(want.PerRackInputW) != len(got.PerRackInputW) || len(want.PerCDUInputW) != len(got.PerCDUInputW) {
		t.Fatalf("step %d: rack/CDU counts %d/%d vs %d/%d", step,
			len(want.PerRackInputW), len(want.PerCDUInputW), len(got.PerRackInputW), len(got.PerCDUInputW))
	}
	for i := range want.PerRackInputW {
		check(fmt.Sprintf("PerRackInputW[%d]", i), want.PerRackInputW[i], got.PerRackInputW[i])
	}
	for i := range want.PerCDUInputW {
		check(fmt.Sprintf("PerCDUInputW[%d]", i), want.PerCDUInputW[i], got.PerCDUInputW[i])
	}
}

// nodeOrderCPUGPU is the reference for the engine's Breakdown CPU/GPU
// entries: Compute's slot iteration (idle filler included), summed per
// chassis in node order and then over chassis in order.
func nodeOrderCPUGPU(m *Model, cpu, gpu []float64) (cpuW, gpuW float64) {
	t, s := m.Topo, m.Spec
	node := 0
	for c := 0; c < t.NumRacks()*t.ChassisPerRack; c++ {
		var cc, gc float64
		for i := 0; i < t.NodesPerChassis; i++ {
			cu, gu := 0.0, 0.0
			if node < len(cpu) {
				cu, gu = clamp01(cpu[node]), clamp01(gpu[node])
			}
			cc += s.CPUIdle + cu*(s.CPUMax-s.CPUIdle)
			gc += float64(s.GPUsPerNode) * (s.GPUIdle + gu*(s.GPUMax-s.GPUIdle))
			node++
			if node > t.NodesTotal {
				break
			}
		}
		cpuW += cc
		gpuW += gc
	}
	return cpuW, gpuW
}

// randomNodeSet draws an allocation-shaped node list: a contiguous run
// (wrapping), or a scattered draw that may repeat nodes, sometimes with
// out-of-range indices mixed in.
func randomNodeSet(rng *rand.Rand, n int) []int {
	count := 1 + rng.Intn(min(n, 600))
	nodes := make([]int, 0, count+3)
	if rng.Intn(2) == 0 {
		start := rng.Intn(n)
		for i := 0; i < count; i++ {
			nodes = append(nodes, (start+i)%n)
		}
	} else {
		for i := 0; i < count; i++ {
			nodes = append(nodes, rng.Intn(n))
		}
	}
	if rng.Intn(4) == 0 {
		for _, bad := range []int{-1, n, n + 7} {
			k := rng.Intn(len(nodes) + 1)
			nodes = slices.Insert(nodes, k, bad)
		}
	}
	return nodes
}

// checkIncrementalExact drives a random sequence of allocation updates
// through both the dense reference Compute and the incremental engine,
// asserting bit-identical results after every ComputeDelta. The
// sequence mixes fresh allocations, repeat SetNodes on the same set (the
// same slice or an equal copy, new or unchanged utilization), subsets
// and supersets of earlier sets (nodes moving between slots), duplicate
// and out-of-range indices, and idle releases.
func checkIncrementalExact(t *testing.T, m *Model, seed int64, steps int) {
	t.Helper()
	inc := m.NewIncremental()
	rng := rand.New(rand.NewSource(seed))
	n := m.Topo.NodesTotal
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	set := func(nodes []int, cu, gu float64) {
		inc.SetNodes(nodes, cu, gu)
		for _, nd := range nodes {
			if nd >= 0 && nd < n {
				cpu[nd], gpu[nd] = cu, gu
			}
		}
	}
	util := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1.25 // clamped to 1
		case 2:
			return -0.5 // clamped to 0
		default:
			return rng.Float64()
		}
	}
	type alloc struct {
		nodes  []int
		cu, gu float64
	}
	var live []alloc
	var ref SystemPower
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(live) == 0: // fresh allocation
			a := alloc{randomNodeSet(rng, n), util(), util()}
			set(a.nodes, a.cu, a.gu)
			live = append(live, a)
		case op < 6: // repeat on the same set
			a := &live[rng.Intn(len(live))]
			if rng.Intn(3) > 0 {
				a.cu, a.gu = util(), util()
			}
			nodes := a.nodes
			if rng.Intn(2) == 0 {
				nodes = slices.Clone(nodes)
			}
			set(nodes, a.cu, a.gu)
		case op < 8: // a subset or superset of an earlier set
			a := live[rng.Intn(len(live))]
			var b alloc
			if i, j := rng.Intn(len(a.nodes)), rng.Intn(len(a.nodes)+1); rng.Intn(2) == 0 && i < j {
				b.nodes = slices.Clone(a.nodes[i:j])
			} else {
				b.nodes = append(slices.Clone(a.nodes), randomNodeSet(rng, n)...)
			}
			b.cu, b.gu = a.cu, a.gu
			if rng.Intn(2) == 0 {
				b.cu, b.gu = util(), util()
			}
			set(b.nodes, b.cu, b.gu)
			live = append(live, b)
		default: // idle release
			k := rng.Intn(len(live))
			inc.SetNodesIdle(live[k].nodes)
			for _, nd := range live[k].nodes {
				if nd >= 0 && nd < n {
					cpu[nd], gpu[nd] = 0, 0
				}
			}
			live = append(live[:k], live[k+1:]...)
		}
		got := inc.ComputeDelta()
		if inc.Dirty() {
			t.Fatalf("step %d: engine still dirty after ComputeDelta", step)
		}
		m.Compute(cpu, gpu, &ref)
		cpuW, gpuW := nodeOrderCPUGPU(m, cpu, gpu)
		assertSystemPowerExact(t, step, &ref, got, cpuW, gpuW)
	}
}

// TestIncrementalMatchesCompute pins the engine bit-exactly to the dense
// reference on Frontier under every conversion mode.
func TestIncrementalMatchesCompute(t *testing.T) {
	for _, mode := range []Mode{ACBaseline, SmartRectifier, DC380} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewFrontierModel()
			m.Chain.Mode = mode
			checkIncrementalExact(t, m, 42+int64(mode), 300)
		})
	}
}

// TestIncrementalUnalignedTopology covers node counts that do not fill
// the final chassis (the Setonix-style partitions), where the dense loop
// pads with idle filler slots.
func TestIncrementalUnalignedTopology(t *testing.T) {
	for _, mode := range []Mode{ACBaseline, SmartRectifier, DC380} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewFrontierModel()
			m.Chain.Mode = mode
			m.Topo = Topology{
				NodesTotal:      1592, // 12.4 racks — last chassis partial
				NodesPerRack:    128,
				NodesPerChassis: 16,
				ChassisPerRack:  8,
				SwitchesPerRack: 32,
				RacksPerCDU:     3,
				NumCDUs:         5,
			}
			if err := m.Topo.Validate(); err != nil {
				t.Fatal(err)
			}
			checkIncrementalExact(t, m, 9+int64(mode), 300)
		})
	}
}

// TestIncrementalNoOpDelta pins the O(1) fast path: with no pending
// changes ComputeDelta returns the cached state unchanged.
func TestIncrementalNoOpDelta(t *testing.T) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	nodes := []int{0, 1, 2, 100, 5000}
	inc.SetNodes(nodes, 0.5, 0.8)
	first := *inc.ComputeDelta()
	if inc.Dirty() {
		t.Fatal("engine still dirty after ComputeDelta")
	}
	// Re-applying identical utilization must not dirty anything.
	inc.SetNodes(nodes, 0.5, 0.8)
	if inc.Dirty() {
		t.Fatal("identical utilization re-application dirtied the engine")
	}
	second := inc.ComputeDelta()
	if first.TotalW != second.TotalW || first.NodeOutW != second.NodeOutW {
		t.Fatalf("no-op delta changed totals: %v vs %v", first.TotalW, second.TotalW)
	}
}

// TestSetNodesOutOfRange: indices outside the machine are ignored, not
// panicked on (defensive parity with Compute's bounds handling).
func TestSetNodesOutOfRange(t *testing.T) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	before := inc.Power().TotalW
	inc.SetNodes([]int{-1, m.Topo.NodesTotal, m.Topo.NodesTotal + 5}, 1, 1)
	if inc.Dirty() {
		t.Fatal("out-of-range nodes dirtied the engine")
	}
	if got := inc.ComputeDelta().TotalW; got != before {
		t.Fatalf("total changed: %v vs %v", got, before)
	}
}

func BenchmarkDenseCompute(b *testing.B) {
	m := NewFrontierModel()
	n := m.Topo.NodesTotal
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	for i := range cpu {
		cpu[i], gpu[i] = 0.5, 0.7
	}
	var out SystemPower
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute(cpu, gpu, &out)
	}
}

// BenchmarkIncrementalDelta measures a representative event tick: one
// 268-node job (the Table IV average) crosses a trace quantum.
func BenchmarkIncrementalDelta(b *testing.B) {
	m := NewFrontierModel()
	inc := m.NewIncremental()
	nodes := make([]int, 268)
	for i := range nodes {
		nodes[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 0.3 + 0.4*float64(i%2)
		inc.SetNodes(nodes, u, u)
		inc.ComputeDelta()
	}
}
