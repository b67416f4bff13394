package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
	"exadigit/internal/sched"
	"exadigit/internal/service"
	"exadigit/internal/store"
	"exadigit/internal/telemetry"
)

// The layer probes drive each engine and service layer through its
// public functions on inputs the workload seed produces, timing each
// call from outside. They run after the traced phase and fill every
// per-layer metric the workload's own traffic did not.

// probeHorizonSec is the simulated span the engine probes replay.
const probeHorizonSec = 6 * 3600

func probeLayers(ctx context.Context, e *env, workload, work string, inst instance, l *layerSet, tr *tracer, rec *recorder) {
	jobsFor := func() []*job.Job {
		return job.NewGenerator(generator(newSeedStream(e.seed, "probe/jobs").next())).GenerateHorizon(probeHorizonSec)
	}
	probeSchedPower(l, jobsFor())
	if err := probeCooling(l, jobsFor(), e.spec.Cooling); err != nil {
		rec.op(0, 0, fmt.Errorf("cooling probe: %w", err))
	}
	probeUA(l, e.seed)
	rec.op(0, 0, probeRerun(ctx, e, l, inst.interrupted()))
	rec.op(0, 0, probeStore(e, l, inst, filepath.Join(work, "probe-store")))

	// Layers only another workload's traffic exercises, run small.
	if workload != "serve-mix" && !l.has("httpmw.submit_ms") {
		rec.op(0, 0, probeWith(ctx, l, filepath.Join(work, "probe-serve"), rec, func(dir string) (instance, error) {
			return newServeMix(e, dir, true)
		}))
	}
	if workload != "co-design-study" && !l.has("optimize.twin_evals") {
		rec.op(0, 0, probeWith(ctx, l, filepath.Join(work, "probe-study"), rec, func(dir string) (instance, error) {
			return newStudy(e, dir, true)
		}))
	}
}

// probeWith sets up a small instance of another workload, runs it
// traced for a second, and takes the layer metrics it produces.
func probeWith(ctx context.Context, l *layerSet, dir string, rec *recorder, setup func(string) (instance, error)) error {
	defer os.RemoveAll(dir)
	inst, err := setup(dir)
	if err != nil {
		return err
	}
	defer inst.close()
	tr := newTracer()
	from := time.Now()
	inst.run(ctx, time.Now().Add(time.Second), tr, rec)
	inst.layers(l, from, tr)
	return nil
}

// probeSchedPower replays the jobs through the scheduler on 15 s trace
// quanta, calling the scheduler only when a job arrives or ends (as the
// event engine does) and updating the incremental power engine with
// every running job's utilization each quantum.
func probeSchedPower(l *layerSet, jobs []*job.Job) {
	model := power.NewFrontierModel()
	inc := model.NewIncremental()
	s := sched.NewScheduler(model.Topo.NodesTotal, sched.FCFS{})
	next, setCalls, schedCalls := 0, 0, 0
	for t := 0.0; t < probeHorizonSec; t += job.TraceQuantaSec {
		t0 := time.Now()
		changed := false
		for _, j := range s.Reap(t) {
			inc.SetNodesIdle(j.Nodes)
			changed = true
		}
		for ; next < len(jobs) && jobs[next].SubmitTime <= t; next++ {
			s.Submit(jobs[next])
			changed = true
		}
		if changed {
			s.Schedule(t)
			schedCalls++
			l.sample("sched.schedule_us", "us", 1, time.Since(t0).Seconds())
		}
		running := s.Running()
		t1 := time.Now()
		for _, j := range running {
			cpu, gpu := j.UtilAt(t - j.StartTime)
			inc.SetNodes(j.Nodes, cpu, gpu)
		}
		if n := len(running); n > 0 {
			l.sample("power.set_nodes_us", "us", n, time.Since(t1).Seconds()/float64(n))
			setCalls += n
		}
		t2 := time.Now()
		inc.ComputeDelta()
		l.sample("power.compute_delta_us", "us", 1, time.Since(t2).Seconds())
	}
	hours := probeHorizonSec / 3600.0
	l.set("power.calls_per_sim_h", float64(setCalls)/hours, setCalls)
	l.set("sched.calls_per_sim_h", float64(schedCalls)/hours, schedCalls)
}

// probeCooling captures the CDU heat sequence of the jobs with
// raps.Config.RecordCDUHeat and steps the plant through it once per
// 15 s control period, under each solver.
func probeCooling(l *layerSet, jobs []*job.Job, plant config.CoolingSpec) error {
	cfg := raps.DefaultConfig()
	cfg.TickSec = 15
	cfg.RecordCDUHeat = true
	const horizon = 2 * 3600
	sim, err := raps.New(cfg, power.NewFrontierModel(), jobs)
	if err != nil {
		return err
	}
	if _, err := sim.Run(horizon); err != nil {
		return err
	}
	hist := sim.History()
	base, err := autocsm.Compile(plant)
	if err != nil {
		return err
	}
	for _, solver := range []string{cooling.SolverRK4, cooling.SolverAdaptive} {
		c := base
		c.Solver = solver
		p, err := cooling.New(c)
		if err != nil {
			return err
		}
		var steps []float64
		for _, smp := range hist {
			t0 := time.Now()
			if err := p.Step(15, cooling.Inputs{CDUHeatW: smp.CDUHeatW, WetBulbC: coolingWetBulbC, ITPowerW: smp.PowerW}); err != nil {
				return err
			}
			steps = append(steps, time.Since(t0).Seconds())
		}
		if pue := p.PUE(); !(pue > 1 && pue < 1.5) {
			return fmt.Errorf("%s plant PUE %v outside (1, 1.5)", solver, pue)
		}
		if solver == cooling.SolverRK4 {
			l.sample("cooling.step_fixed_ms", "ms", 1, steps...)
			continue
		}
		l.sample("cooling.step_adaptive_ms", "ms", 1, steps...)
		st := p.SolverStats()
		simH := float64(len(hist)) * 15 / 3600
		l.set("cooling.accepted_per_sim_h", float64(st.Accepted)/simH, st.Accepted)
		l.set("cooling.rejected_per_sim_h", float64(st.Rejected)/simH, st.Rejected)
		l.set("cooling.quiescent_frac", st.QuiescentFraction(), st.Holds)
	}
	return nil
}

// uaSink keeps the UA calls observable so they are not optimised away.
var uaSink float64

// probeUA times the CDU heat exchanger's UA over seed-drawn flows, in
// batches of calls too short to time one by one.
func probeUA(l *layerSet, seed int64) {
	hx := cooling.Frontier().CDUHex
	rng := stream(seed, "probe/ua")
	const batch = 1000
	hot, cold := make([]float64, batch), make([]float64, batch)
	for i := range hot {
		hot[i] = hx.MdotHotN * (0.3 + rng.Float64())
		cold[i] = hx.MdotColdN * (0.3 + rng.Float64())
	}
	for rep := 0; rep < 200; rep++ {
		t0 := time.Now()
		for i := range hot {
			uaSink += hx.UA(hot[i], cold[i])
		}
		l.sample("thermal.ua_ns", "ns", batch, time.Since(t0).Seconds()/batch)
	}
}

// probeRerun re-runs the first scenario of the workload's family on the
// twin with its export on: the report must match the service's, and
// the run gives the quiet-tick share and a dataset to encode.
func probeRerun(ctx context.Context, e *env, l *layerSet, it *interruptedSweep) error {
	cs, err := core.Compile(e.spec)
	if err != nil {
		return err
	}
	tw := cs.Twin()
	sc := it.scenarios[0]
	sc.NoExport, sc.NoHistory = false, false
	res, err := tw.RunContext(ctx, sc)
	if err != nil {
		return err
	}
	if !sameReport(res.Report, it.want[0]) {
		return fmt.Errorf("twin re-run of %q differs from the service's report", sc.Name)
	}
	tick := sc.TickSec
	ticks := int(sc.HorizonSec / tick)
	l.set("raps.quiet_tick_frac", float64(tw.Simulation().QuietTicks())/float64(ticks), ticks)
	if res.Dataset != nil {
		encodeLayer(l, res.Dataset)
	}
	return nil
}

// countingWriter counts the bytes an encoder produces.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// encodeLayer times telemetry.WriteStream on a dataset.
func encodeLayer(l *layerSet, d *telemetry.Dataset) {
	if l.has("telemetry.encode_mb_s") {
		return
	}
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		w := &countingWriter{}
		t0 := time.Now()
		if err := telemetry.WriteStream(w, d); err != nil {
			return
		}
		rates = append(rates, float64(w.n)/1e6/time.Since(t0).Seconds())
	}
	l.sample("telemetry.encode_mb_s", "MB/s", 1, rates...)
}

// probeStore times the store's reads, journal and lease calls: reads on
// the workload's store, writes on a scratch store beside it.
func probeStore(e *env, l *layerSet, inst instance, scratch string) error {
	defer os.RemoveAll(scratch)
	it := inst.interrupted()
	st, err := store.Open(inst.storeDir())
	if err != nil {
		return err
	}
	specHash, err := e.spec.Hash()
	if err != nil {
		return err
	}
	var hashes []string
	for rep := 0; rep < 20; rep++ {
		for _, sc := range it.scenarios {
			t0 := time.Now()
			h, err := service.HashScenario(sc)
			l.sample("service.hash_us", "us", 1, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			if rep == 0 {
				hashes = append(hashes, h)
			}
		}
	}
	var sizes []float64
	timeGets := !l.has("store.get_ms")
	for _, h := range hashes {
		if fi, err := os.Stat(st.EntryPath(specHash, h)); err == nil {
			sizes = append(sizes, float64(fi.Size())/1e3)
		}
		if timeGets {
			for rep := 0; rep < 5; rep++ {
				t0 := time.Now()
				if _, err := st.Get(specHash, h); err != nil {
					return fmt.Errorf("store get: %w", err)
				}
				l.sample("store.get_ms", "ms", 1, time.Since(t0).Seconds())
			}
		}
	}
	l.sample("store.entry_kb", "KB", 1, sizes...)

	sst, err := store.Open(scratch)
	if err != nil {
		return err
	}
	for rep := 0; rep < 10; rep++ {
		t0 := time.Now()
		j, err := sst.CreateJournal(&store.SweepManifest{
			ID: fmt.Sprintf("sw-%016x-%08x", rep+1, rep+1), SpecHash: specHash, ScenarioHashes: hashes,
		})
		if err != nil {
			return fmt.Errorf("create journal: %w", err)
		}
		l.sample("store.journal_create_ms", "ms", 1, time.Since(t0).Seconds())
		for i, h := range hashes {
			t0 := time.Now()
			if err := j.Append(store.ScenarioRecord{Index: i, Hash: h, State: "done"}); err != nil {
				return fmt.Errorf("journal append: %w", err)
			}
			l.sample("store.journal_append_ms", "ms", 1, time.Since(t0).Seconds())
		}
		if err := j.End("complete"); err != nil {
			return err
		}
	}
	for rep := 0; rep < 50; rep++ {
		h := hashes[rep%len(hashes)]
		t0 := time.Now()
		lease, err := sst.AcquireLease(specHash, h, "twinbench-"+strconv.Itoa(rep), 30*time.Second)
		if err != nil {
			return fmt.Errorf("acquire lease: %w", err)
		}
		lease.Release()
		l.sample("store.lease_ms", "ms", 1, time.Since(t0).Seconds())
	}
	return nil
}
