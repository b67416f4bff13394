package exadigit

// One benchmark per table and figure of the paper's evaluation (§IV).
// Each benchmark regenerates its artifact at a reduced-but-faithful scale
// so the whole suite runs in minutes; cmd/experiments reproduces the
// full-scale numbers.

import (
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"exadigit/internal/exp"
	"exadigit/internal/power"
	"exadigit/internal/service"
)

// BenchmarkTableI regenerates the Frontier component overview.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.TableI(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII regenerates the telemetry/FMU interface contract.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the RAPS power verification (idle 7.24,
// HPL-core 22.3, peak 28.2 MW).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].RAPSMW, "peakMW")
	}
}

// BenchmarkTableIV regenerates the daily replay statistics over a reduced
// two-day window (the paper replays 183 days; cmd/experiments -days 183
// reproduces the full study).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := exp.TableIV(exp.DailyConfig{Days: 2, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.PowerMW.Mean, "avgMW")
		b.ReportMetric(sum.LossPct.Mean, "loss%")
	}
}

// BenchmarkFig4 regenerates the peak power breakdown.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := exp.Fig4()
		b.ReportMetric(rows[0].MW, "gpuMW")
	}
}

// BenchmarkFig7 regenerates the cooling-model validation over a one-hour
// window (the paper validates ~24 h; cmd/experiments runs the full day).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := exp.Fig7(exp.Fig7Config{HorizonSec: 3600, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(data.Channels[3].MAPE, "pueMAPE%")
	}
}

// BenchmarkFig8 regenerates the synthetic benchmark transient (HPL +
// OpenMxP with the cooling model coupled).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := exp.Fig8(900)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(data.HPLPowerMW, "hplMW")
		b.ReportMetric(data.TempRiseHPLC, "tempRiseC")
	}
}

// BenchmarkFig9 regenerates the telemetry-replay validation over a
// two-hour window (full 24 h via cmd/experiments).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := exp.Fig9(exp.Fig9Config{Seed: 7, HorizonSec: 2 * 3600})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(data.MAPEPercent, "MAPE%")
	}
}

// BenchmarkSmartRectifier regenerates what-if 1 (§IV-3) over one day.
func BenchmarkSmartRectifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunWhatIf(power.SmartRectifier, 1, 9, 91.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EtaGain*100, "etaGain%")
	}
}

// BenchmarkDC380 regenerates what-if 2 (§IV-3) over one day.
func BenchmarkDC380(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunWhatIf(power.DC380, 1, 9, 91.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VariantEta, "eta")
		b.ReportMetric(res.CarbonReductionPct, "carbonCut%")
	}
}

// runTwinDay executes one full synthetic day on the requested engine.
func runTwinDay(b *testing.B, engine string) *Result {
	b.Helper()
	tw, err := NewFrontierTwin()
	if err != nil {
		b.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15,
		Engine: engine, NoExport: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTwinDayUncooled measures the headline simulation rate the
// paper quotes ("each 24-hour replay takes about nine minutes ... or just
// three minutes without [cooling]"): one full simulated day per
// iteration on the event-driven engine. Outside the timed loop it also
// replays the same day on the dense reference engine and reports the
// measured speedup and the end-of-run energy divergence (the ISSUE 1
// acceptance gates: ≥3× and <0.01 %).
func BenchmarkTwinDayUncooled(b *testing.B) {
	start := time.Now()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = runTwinDay(b, "event")
	}
	eventNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
	b.StopTimer()
	// The dense baseline runs once per benchmark invocation, not once
	// per b.N-calibration round — it costs a full simulated day.
	denseBaseline.Do(func() {
		denseStart := time.Now()
		denseRes := runTwinDay(b, "dense")
		denseNs = float64(time.Since(denseStart).Nanoseconds())
		denseMWh = denseRes.Report.EnergyMWh
	})
	b.ReportMetric(res.Report.AvgPowerMW, "avgMW")
	b.ReportMetric(denseNs/eventNs, "speedup_vs_dense")
	div := 100 * math.Abs(res.Report.EnergyMWh-denseMWh) / denseMWh
	b.ReportMetric(div, "energyDiv%")
	b.StartTimer()
}

var (
	denseBaseline sync.Once
	denseNs       float64
	denseMWh      float64
)

// BenchmarkTwinDayDense pins the dense reference engine's rate so the
// speedup trend stays visible in the recorded benchmark series.
func BenchmarkTwinDayDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runTwinDay(b, "dense")
	}
}

// BenchmarkRunBatchDays measures the parallel what-if fan-out: one
// synthetic day per logical CPU, spread across the worker pool.
func BenchmarkRunBatchDays(b *testing.B) {
	n := runtime.NumCPU()
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		gen := DefaultGeneratorConfig()
		gen.Seed = int64(100 + i)
		scenarios[i] = Scenario{
			Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15,
			Generator: gen, NoExport: true,
		}
	}
	spec := FrontierSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunBatch(spec, scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res)), "days")
	}
}

// BenchmarkSweepService measures the twin-as-a-service throughput: a
// 16-scenario synthetic sweep submitted cold (every scenario simulated)
// and then re-submitted warm (served entirely from the content-addressed
// result cache), reporting scenarios/sec for both paths. This is the PR 2
// headline: the cache turns repeated what-ifs into O(hash lookup).
func BenchmarkSweepService(b *testing.B) {
	const n = 16
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		gen := DefaultGeneratorConfig()
		gen.Seed = int64(5000 + i)
		scenarios[i] = Scenario{
			Name: "sweep-bench", Workload: WorkloadSynthetic,
			HorizonSec: 6 * 3600, TickSec: 15,
			Generator: gen, NoExport: true,
		}
	}
	spec := FrontierSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewSweepService(SweepServiceOptions{})
		cold := time.Now()
		sw, err := svc.Submit(spec, scenarios, SweepOptions{Name: "cold"})
		if err != nil {
			b.Fatal(err)
		}
		<-sw.Done()
		coldSec := time.Since(cold).Seconds()

		warm := time.Now()
		sw2, err := svc.Submit(spec, scenarios, SweepOptions{Name: "warm"})
		if err != nil {
			b.Fatal(err)
		}
		<-sw2.Done()
		warmSec := time.Since(warm).Seconds()

		st := sw2.Status()
		if st.Cached != n {
			b.Fatalf("warm sweep not served from cache: %+v", st)
		}
		b.ReportMetric(float64(n)/coldSec, "cold_scen/s")
		b.ReportMetric(float64(n)/warmSec, "warm_scen/s")
		b.ReportMetric(warmSec/coldSec*100, "warm/cold%")
	}
}

// BenchmarkSweepWarmRestart measures the durable-store restart path (the
// PR 6 headline): a 16-scenario sweep is persisted once outside the
// timed loop, then each iteration "kill-restarts" the service — a fresh
// store.Open over the same directory plus a cold in-memory cache — and
// re-serves the whole sweep from disk, reporting scenarios/sec for the
// disk tier. Zero results are recomputed (the sweep must come back fully
// cached) and zero power models are rebuilt.
func BenchmarkSweepWarmRestart(b *testing.B) {
	const n = 16
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		gen := DefaultGeneratorConfig()
		gen.Seed = int64(6000 + i)
		scenarios[i] = Scenario{
			Name: "restart-bench", Workload: WorkloadSynthetic,
			HorizonSec: 6 * 3600, TickSec: 15,
			Generator: gen, NoExport: true,
		}
	}
	spec := FrontierSpec()
	dir := b.TempDir()
	seedStore, err := OpenResultStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	seedSvc := NewSweepService(SweepServiceOptions{Store: seedStore})
	sw, err := seedSvc.Submit(spec, scenarios, SweepOptions{Name: "seed"})
	if err != nil {
		b.Fatal(err)
	}
	<-sw.Done()
	if st := sw.Status(); st.Done != n {
		b.Fatalf("seed sweep: %+v", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenResultStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		svc := NewSweepService(SweepServiceOptions{Store: st})
		start := time.Now()
		sw, err := svc.Submit(spec, scenarios, SweepOptions{Name: "after-restart"})
		if err != nil {
			b.Fatal(err)
		}
		<-sw.Done()
		disk := time.Since(start).Seconds()
		if status := sw.Status(); status.Cached != n {
			b.Fatalf("restart sweep recomputed: %+v", status)
		}
		b.ReportMetric(float64(n)/disk, "disk_scen/s")
	}
}

// BenchmarkCoolingVariantSweep measures spec-driven sweep throughput:
// one sweep mixing three cooling plants (hand-calibrated preset, AutoCSM
// synthesis, and a re-sized AutoCSM variant) across three workload
// seeds, each scenario cooled by its own compiled design. The plants
// carry the adaptive solver — the accuracy budget sweeps ride on (the
// adaptive-vs-fixed tolerance is pinned per plant by
// TestAdaptiveSolverMatchesFixedAcrossPlants).
func BenchmarkCoolingVariantSweep(b *testing.B) {
	preset := FrontierSpec().Cooling
	preset.Solver = "adaptive"
	auto := preset
	auto.Preset = ""
	resized := auto
	resized.NumTowers = 4
	resized.TowerFlowGPM = 7500
	resized.PrimaryFlowGPM = 6000
	variants := []CoolingSpec{preset, auto, resized}

	var scenarios []Scenario
	for seed := int64(1); seed <= 3; seed++ {
		for i := range variants {
			gen := DefaultGeneratorConfig()
			gen.Seed = seed
			scenarios = append(scenarios, Scenario{
				Workload: WorkloadSynthetic, Generator: gen,
				HorizonSec: 1800, TickSec: 15, WetBulbC: 20,
				CoolingSpec: &variants[i],
				NoExport:    true, NoHistory: true,
			})
		}
	}
	workers := runtime.NumCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewSweepService(SweepServiceOptions{Workers: workers})
		start := time.Now()
		sw, err := svc.Submit(FrontierSpec(), scenarios, SweepOptions{Name: "cooling-mix"})
		if err != nil {
			b.Fatal(err)
		}
		<-sw.Done()
		if st := sw.Status(); st.Done != len(scenarios) {
			b.Fatalf("sweep status %+v", st)
		}
		b.ReportMetric(float64(len(scenarios))/time.Since(start).Seconds(), "scen/s")
	}
}

// BenchmarkMidDayCancel measures the cancel-to-stop latency of an
// in-flight cooled multi-day simulation — the context-aware abort the
// sweep service relies on (pre-refactor this was the rest of the run).
func BenchmarkMidDayCancel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := NewSweepService(SweepServiceOptions{Workers: 1})
		sw, err := svc.Submit(FrontierSpec(), []Scenario{{
			Workload: WorkloadSynthetic, HorizonSec: 14 * 86400, TickSec: 1,
			Cooling: true, WetBulbC: 20, NoExport: true, NoHistory: true,
		}}, SweepOptions{Name: "long-day"})
		if err != nil {
			b.Fatal(err)
		}
		for sw.Status().Running == 0 {
			time.Sleep(time.Millisecond)
		}
		// Let it get a few simulated hours in before pulling the plug.
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		sw.Cancel()
		<-sw.Done()
		b.ReportMetric(float64(time.Since(start).Microseconds())/1e3, "cancel_ms")
		if st := sw.Status(); st.Cancelled != 1 {
			b.Fatalf("sweep status %+v", st)
		}
	}
}

// BenchmarkTwinDayCooled is the same day with the cooling model coupled.
func BenchmarkTwinDayCooled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tw, err := NewFrontierTwin()
		if err != nil {
			b.Fatal(err)
		}
		res, err := tw.Run(Scenario{
			Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15,
			Cooling: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.AvgPUE, "pue")
	}
}

// BenchmarkTwinDaySetonix measures the multi-partition twin: one full
// cooled day of a Setonix-like system — synthetic jobs on the CPU
// partition, a pinned-peak GPU partition — with both partitions' heat
// coupled into the shared plant. The per-partition power split rides
// along as cpuMW/gpuMW so the heterogeneous axis is tracked PR over PR.
func BenchmarkTwinDaySetonix(b *testing.B) {
	spec := SetonixLikeSpec()
	gen := DefaultGeneratorConfig()
	gen.Seed = 99
	day := Scenario{
		HorizonSec: 86400, TickSec: 15,
		Cooling: true, WetBulbC: 21, NoExport: true,
		Partitions: []PartitionScenario{
			{Workload: WorkloadSynthetic, Generator: gen},
			{Workload: WorkloadPeak},
		},
	}
	for i := 0; i < b.N; i++ {
		tw, err := NewTwin(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tw.Run(day)
		if err != nil {
			b.Fatal(err)
		}
		rep := res.Report
		if len(rep.Partitions) != 2 {
			b.Fatalf("expected 2 partition reports, got %d", len(rep.Partitions))
		}
		b.ReportMetric(rep.AvgPUE, "pue")
		b.ReportMetric(rep.Partitions[0].AvgPowerMW, "cpuMW")
		b.ReportMetric(rep.Partitions[1].AvgPowerMW, "gpuMW")
	}
}

// BenchmarkTwinDayCooledAdaptive is the cooled day under the adaptive
// plant solver (error-controlled integration, equilibrium holds, and
// cooling-boundary coasting) — the PR 4 headline. Outside the timed loop
// it replays the same day under the fixed-step reference solver and
// reports the energy and PUE divergence (acceptance gates: ≤0.1 % and
// ≤0.005) plus the fraction of simulated time the plant fast-forwarded.
// A fixed 20 °C wet bulb keeps the comparison a pure solver-error
// measurement (the seasonal weather generator is stateful, so coarser
// sampling under coasting would otherwise change its noise path).
func BenchmarkTwinDayCooledAdaptive(b *testing.B) {
	spec := FrontierSpec()
	spec.Cooling.Solver = "adaptive"
	day := Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15,
		Cooling: true, WetBulbC: 20, NoExport: true,
	}
	var res *Result
	var quiescent float64
	for i := 0; i < b.N; i++ {
		tw, err := NewTwin(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err = tw.Run(day)
		if err != nil {
			b.Fatal(err)
		}
		quiescent = tw.Simulation().CoolingSolverStats().QuiescentFraction()
	}
	b.StopTimer()
	fixedCooledBaseline.Do(func() {
		tw, err := NewFrontierTwin()
		if err != nil {
			b.Fatal(err)
		}
		ref, err := tw.Run(day)
		if err != nil {
			b.Fatal(err)
		}
		fixedCooledMWh = ref.Report.EnergyMWh
		fixedCooledPUE = ref.Report.AvgPUE
	})
	b.ReportMetric(res.Report.AvgPUE, "pue")
	b.ReportMetric(quiescent*100, "quiescent%")
	b.ReportMetric(100*math.Abs(res.Report.EnergyMWh-fixedCooledMWh)/fixedCooledMWh, "energyDiv%")
	b.ReportMetric(math.Abs(res.Report.AvgPUE-fixedCooledPUE), "pueDiv")
	b.StartTimer()
}

var (
	fixedCooledBaseline sync.Once
	fixedCooledMWh      float64
	fixedCooledPUE      float64
)

// BenchmarkMetricsScrapeUnderLoad measures the /metrics exposition cost
// while the sweep service is mid-sweep with a saturated worker pool —
// the cost a Prometheus scrape interval imposes on a busy server. Each
// iteration is one full scrape through the real HTTP handler; the last
// response is re-parsed under the strict validator outside the timed
// loop and its family/series/byte sizes ride along.
func BenchmarkMetricsScrapeUnderLoad(b *testing.B) {
	svc := NewSweepService(SweepServiceOptions{Workers: runtime.NumCPU()})
	reg := svc.Registry()
	RegisterGoMetrics(reg)
	scenarios := make([]Scenario, 32)
	for i := range scenarios {
		gen := DefaultGeneratorConfig()
		gen.Seed = int64(8000 + i)
		scenarios[i] = Scenario{
			Name: "scrape-load", Workload: WorkloadSynthetic,
			HorizonSec: 6 * 3600, TickSec: 15,
			Generator: gen, NoExport: true, NoHistory: true,
		}
	}
	sw, err := svc.Submit(FrontierSpec(), scenarios, SweepOptions{Name: "scrape-load"})
	if err != nil {
		b.Fatal(err)
	}
	h := reg.Handler()
	var last []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			b.Fatalf("/metrics status = %d", rec.Code)
		}
		last = rec.Body.Bytes()
	}
	b.StopTimer()
	e, err := ParseMetricsExposition(last)
	if err != nil {
		b.Fatalf("scrape under load failed strict validation: %v", err)
	}
	series := 0
	for _, name := range e.FamilyNames() {
		series += len(e.Families[name].Series)
	}
	b.ReportMetric(float64(len(e.FamilyNames())), "families")
	b.ReportMetric(float64(series), "series")
	b.ReportMetric(float64(len(last)), "bytes")
	sw.Cancel()
	<-sw.Done()
}

// BenchmarkCoordinatorSweep measures the distributed sweep fabric (the
// PR 8 headline): a coordinator fans one cold sweep out to in-process
// worker serve instances over real HTTP, at 1 worker node vs 3. Each
// scenario's service time is pinned to a 450 ms floor (an injected wait
// dominating the few ms of actual simulation), so the measured scaling
// isolates what the fabric adds — sharding, HTTP submit/stream,
// result collection — rather than raw simulation CPU, which a
// single-CPU CI host cannot scale anyway. Reported: cold scenarios/sec
// at both topologies, the 3-vs-1 scaling ratio, and parallel
// efficiency (ratio / 3).
func BenchmarkCoordinatorSweep(b *testing.B) {
	const (
		n           = 36
		serviceTime = 450 * time.Millisecond
		slotsPer    = 2 // per-node concurrent simulations, both topologies
	)
	spec := FrontierSpec()
	runTopology := func(nodes int, seedBase int64) float64 {
		var cleanups []func()
		defer func() {
			for i := len(cleanups) - 1; i >= 0; i-- {
				cleanups[i]()
			}
		}()
		urls := make([]string, nodes)
		for w := range urls {
			wsvc := NewSweepService(SweepServiceOptions{Workers: slotsPer})
			wsvc.SetFaultInjector(&service.FaultInjector{
				BeforeRun: func(ctx context.Context, f service.Fault) error {
					t := time.NewTimer(serviceTime)
					defer t.Stop()
					select {
					case <-t.C:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				},
			})
			srv := httptest.NewServer(wsvc.Handler())
			cleanups = append(cleanups, srv.Close, wsvc.CancelAll)
			urls[w] = srv.URL
		}
		pool, err := NewClusterPool(ClusterOptions{Workers: urls})
		if err != nil {
			b.Fatal(err)
		}
		coord := NewSweepService(SweepServiceOptions{Workers: 16, Runner: pool})
		cleanups = append(cleanups, coord.CancelAll)
		scenarios := make([]Scenario, n)
		for i := range scenarios {
			gen := DefaultGeneratorConfig()
			gen.Seed = seedBase + int64(i) // fresh keys: every round is cold
			scenarios[i] = Scenario{
				Name: "coord-bench", Workload: WorkloadSynthetic,
				HorizonSec: 60, TickSec: 15,
				Generator: gen, NoExport: true, NoHistory: true,
			}
		}
		start := time.Now()
		sw, err := coord.Submit(spec, scenarios, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		<-sw.Done()
		elapsed := time.Since(start).Seconds()
		if st := sw.Status(); st.Done != n {
			b.Fatalf("%d-node sweep: %+v", nodes, st)
		}
		return float64(n) / elapsed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := runTopology(1, int64(100000+i*10000))
		r3 := runTopology(3, int64(200000+i*10000))
		b.ReportMetric(r1, "cold_1w_scen/s")
		b.ReportMetric(r3, "cold_3w_scen/s")
		b.ReportMetric(r3/r1, "scaling_x")
		b.ReportMetric(r3/r1/3*100, "efficiency%")
	}
}

// Ablation benchmarks for the twin's design choices: tick size, cooling
// cost, control period and scheduling policy.

// BenchmarkAblationTick measures the 1 s-vs-15 s tick fidelity/cost
// trade (the fast path must stay within 1 % energy).
func BenchmarkAblationTick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, div, err := exp.AblationTick(1800, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(div, "energyDiv%")
	}
}

// BenchmarkAblationCoolingCost measures the cooling-coupling cost ratio
// (paper: ≈3×, 9 min vs 3 min per replayed day).
func BenchmarkAblationCoolingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, ratio, err := exp.AblationCoolingCost(1800, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio, "ratio")
	}
}

// BenchmarkAblationControlDt measures the plant integration-period trade
// (Finding 6's fidelity-vs-complexity balance).
func BenchmarkAblationControlDt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationControlDt([]float64{1, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures the surrogate-accelerated inner loop of
// the co-design optimizer (the PR 10 headline): the same study — an
// 8-generation, population-384 energy minimisation over workload
// arrival rate and job wall time — runs twice, once with every
// candidate twin-evaluated (DisableSurrogate) and once with the
// conformal-gated surrogate screening. Both arms settle the same number
// of candidates; the surrogate arm promotes only UQ fallbacks, the
// predicted Pareto frontier, and the predicted top K to the twin.
// Reported: candidate-settling throughput per arm, the screening
// speedup (target ≥20×), the fallback share, and the divergence of the
// surrogate arm's twin-exact best from the full arm's (target ≤1%).
func BenchmarkOptimize(b *testing.B) {
	study := OptimizeStudySpec{
		Knobs: []OptimizeKnob{
			{Name: "workload.arrival_mean_sec", Min: 30, Max: 300, Step: 0.5},
			{Name: "workload.wall_mean_sec", Min: 300, Max: 3600, Step: 10},
		},
		Objectives: []OptimizeObjective{
			{Metric: "energy_mwh"},
		},
		Population:  384,
		Generations: 8,
		InitSample:  16,
		PromoteTopK: 2,
		Seed:        17,
	}
	base := Scenario{
		Name: "optimize-bench", Workload: WorkloadSynthetic,
		HorizonSec: 1800, TickSec: 15,
		Generator: DefaultGeneratorConfig(), NoExport: true, NoHistory: true,
	}
	base.Generator.Seed = 9000
	spec := FrontierSpec()

	runArm := func(disable bool) (sec float64, res *OptimizeStudyResult) {
		svc := NewSweepService(SweepServiceOptions{})
		arm := study
		arm.DisableSurrogate = disable
		start := time.Now()
		st, err := svc.SubmitStudy(spec, base, arm, StudyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		status := st.Status()
		if status.State != service.StudyDone {
			b.Fatalf("arm(disable=%v): %s (%s)", disable, status.State, status.Error)
		}
		return time.Since(start).Seconds(), st.Result()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullSec, full := runArm(true)
		surrSec, surr := runArm(false)
		// Candidates settled = twin evaluations + surrogate screenings;
		// both arms face the same deduplicated candidate stream.
		fullCands := float64(full.TwinEvals + full.Screened)
		surrCands := float64(surr.TwinEvals + surr.Screened)
		fullRate := fullCands / fullSec
		surrRate := surrCands / surrSec
		if full.Best == nil || surr.Best == nil {
			b.Fatal("an arm found no feasible best")
		}
		div := math.Abs(surr.Best.Objectives["energy_mwh"]-full.Best.Objectives["energy_mwh"]) /
			full.Best.Objectives["energy_mwh"] * 100
		b.ReportMetric(fullRate, "twin_cands/s")
		b.ReportMetric(surrRate, "surr_cands/s")
		b.ReportMetric(surrRate/fullRate, "speedup_x")
		b.ReportMetric(float64(surr.Fallbacks)/surrCands*100, "fallback%")
		b.ReportMetric(div, "divergence%")
	}
}

// BenchmarkAblationSchedulers compares FCFS/SJF/EASY on an
// oversubscribed day.
func BenchmarkAblationSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, reports, err := exp.AblationSchedulers(1800, 21)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(reports["easy"].JobsCompleted), "easyJobs")
	}
}
