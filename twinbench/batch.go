package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/service"
	"exadigit/internal/store"
	"exadigit/internal/telemetry"
)

// batchInst is a cold sweep workload: one client submits a sweep of
// distinct-seed scenarios through a SweepService (local pool, Workers =
// nproc) over a fresh durable store and journal, waits for it, and
// submits the next.
type batchInst struct {
	e      *env
	name   string
	dir    string
	svc    *service.Service
	it     *interruptedSweep
	seeds  *seedStream
	perReq int
	// scenario builds stream scenario i from its generator seed.
	scenario func(genSeed int64, i int) core.Scenario
	cooled   bool
	golden   []string
	next     int                // stream index of the next scenario
	dataset  *telemetry.Dataset // the last telemetry export received
}

func setupColdReplay(e *env, dir string) (instance, error) {
	return setupBatch(e, dir, "cold-replay", e.workers, func(s int64, _ int) core.Scenario { return uncooledDay(s) }, false, e.golden.ColdReplay)
}

func setupCooledPlant(e *env, dir string) (instance, error) {
	return setupBatch(e, dir, "cooled-plant", len(coolingVariants), cooledWindow, true, e.golden.CooledPlant)
}

func setupBatch(e *env, dir, name string, perReq int, scenario func(int64, int) core.Scenario, cooled bool, golden []string) (*batchInst, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	b := &batchInst{
		e: e, name: name, dir: dir, perReq: perReq, scenario: scenario, cooled: cooled,
		svc:   service.New(service.Options{Workers: e.workers, Store: st}),
		seeds: newSeedStream(e.seed, name),
	}
	if e.checked {
		b.golden = golden
	}
	// The interrupted sweep doubles as the warm-up: it compiles the spec
	// and every plant the stream uses before anything is timed.
	restartSeeds := newSeedStream(e.seed, name+"/restart")
	family := make([]core.Scenario, perReq)
	for i := range family {
		family[i] = scenario(restartSeeds.next(), i)
	}
	b.it, err = leaveInterrupted(context.Background(), e, st, family, perReq/2)
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// nextRequest returns the next sweep's scenarios and the stream index
// of the first.
func (b *batchInst) nextRequest() ([]core.Scenario, int) {
	first := b.next
	scs := make([]core.Scenario, b.perReq)
	for i := range scs {
		scs[i] = b.scenario(b.seeds.next(), b.next)
		b.next++
	}
	return scs, first
}

func (b *batchInst) run(ctx context.Context, until time.Time, tr *tracer, rec *recorder) {
	for time.Now().Before(until) {
		scs, first := b.nextRequest()
		t0 := time.Now()
		id, end := tr.begin("service.sweep", 0)
		sw, err := b.svc.Submit(b.e.spec, scs, service.SweepOptions{Name: b.name})
		if err == nil {
			err = sw.Wait(ctx)
		}
		end()
		lat := time.Since(t0).Seconds()
		if err != nil {
			rec.op(lat, 0, err)
			continue
		}
		simSec, err := b.check(sw, first, tr, id)
		rec.op(lat, simSec, err)
	}
}

// check verifies every report of a finished sweep and returns the
// simulated seconds it delivered.
func (b *batchInst) check(sw *service.Sweep, first int, tr *tracer, parent int64) (float64, error) {
	_, end := tr.begin("check", parent)
	defer end()
	if st := sw.Status(); st.Done != st.Total {
		return 0, fmt.Errorf("%s sweep %s: %d of %d scenarios done", b.name, sw.ID(), st.Done, st.Total)
	}
	var simSec float64
	var errs []error
	for i, res := range sw.Results() {
		if res == nil {
			errs = append(errs, fmt.Errorf("scenario %d: no result", first+i))
			continue
		}
		if err := checkPhysical(res.Report, b.cooled); err != nil {
			errs = append(errs, fmt.Errorf("scenario %d: %w", first+i, err))
		}
		if err := checkGolden(b.golden, first+i, res.Report); err != nil {
			errs = append(errs, err)
		}
		if res.Dataset != nil {
			b.dataset = res.Dataset
		}
		simSec += res.Report.SimSeconds
	}
	return simSec, errors.Join(errs...)
}

func (b *batchInst) interrupted() *interruptedSweep { return b.it }
func (b *batchInst) storeDir() string               { return b.dir }

func (b *batchInst) layers(l *layerSet, from time.Time, tr *tracer) {
	spanLayers(l, from, b.svc, []*service.Service{b.svc})
	if b.dataset != nil {
		encodeLayer(l, b.dataset)
	}
}

func (b *batchInst) close() { shutdown(b.svc) }
