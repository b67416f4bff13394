package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/cluster"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/raps"
	"exadigit/internal/service"
	"exadigit/internal/store"
)

// Serve-mix sizing. Each request is a small sweep of scenariosPerReq
// one-hour scenarios. memoryKeys are warmed into the coordinator's
// memory at set-up; diskKeys are persisted by an earlier service
// instance only. A disk key is served from disk once and from memory
// after, so disk draws take keys from the pool without replacement; the
// pool is sized above what one timed phase consumes on 2 CPUs (doubled
// for the traced run's second phase), and a draw on an exhausted pool
// falls back to a memory key.
const (
	scenariosPerReq = 1
	memoryKeys      = 64
	diskKeys        = 768
)

// serveInst is the serving path: nproc closed-loop HTTP clients POST
// small sweeps to a coordinator SweepService on loopback, whose
// cluster.Pool runner dispatches cache misses to in-process worker
// services sharing one store directory with leases.
type serveInst struct {
	e       *env
	dir     string
	servers []*loopback
	workers []*service.Service
	coord   *service.Service
	cstore  *store.Store
	runner  *timedRunner
	url     string
	client  *http.Client
	it      *interruptedSweep

	mem     []int64                // generator seeds of the memory keys
	want    map[int64]*raps.Report // reports first computed, by seed
	mu      sync.Mutex
	disk    []int64 // disk keys not yet requested
	newKeys *seedStream
	clients []*rand.Rand // per-client kind streams
}

// loopback is one HTTP server on 127.0.0.1.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return lb, nil
}

func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// timedRunner is the coordinator's Runner: the cluster pool, timed per
// dispatch while a tracer is installed.
type timedRunner struct {
	pool *cluster.Pool
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	secs map[string]float64 // scenario hash → dispatch seconds
}

func (r *timedRunner) RunScenario(ctx context.Context, req service.RunRequest) (*core.Result, error) {
	tr := r.tr.Load()
	if tr == nil {
		return r.pool.RunScenario(ctx, req)
	}
	t0 := time.Now()
	res, err := r.pool.RunScenario(ctx, req)
	t1 := time.Now()
	tr.record("cluster.dispatch", 0, t0, t1)
	if err == nil {
		r.mu.Lock()
		r.secs[req.ScenarioHash] = t1.Sub(t0).Seconds()
		r.mu.Unlock()
	}
	return res, err
}

func setupServeMix(e *env, dir string) (instance, error) { return newServeMix(e, dir, false) }

// newServeMix sets up the serving path; small sizes it down for the
// layer probes of other workloads.
func newServeMix(e *env, dir string, small bool) (*serveInst, error) {
	nMem, nDisk := memoryKeys, diskKeys
	switch {
	case small:
		nMem, nDisk = 8, 16
	case e.traced:
		nDisk *= 2
	}
	s := &serveInst{e: e, dir: dir, want: map[int64]*raps.Report{},
		newKeys: newSeedStream(e.seed, "serve-mix/new")}
	keys := newSeedStream(e.seed, "serve-mix/keys")
	for i := 0; i < nMem; i++ {
		s.mem = append(s.mem, keys.next())
	}
	for i := 0; i < nDisk; i++ {
		s.disk = append(s.disk, keys.next())
	}
	for c := 0; c < e.workers; c++ {
		s.clients = append(s.clients, stream(e.seed, "serve-mix/client-"+strconv.Itoa(c)))
	}
	if err := s.prepopulate(); err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prepopulate has an earlier service instance compute and persist every
// memory and disk key, and leave the interrupted journal.
func (s *serveInst) prepopulate() error {
	ctx := context.Background()
	st, err := store.Open(s.dir)
	if err != nil {
		return err
	}
	seeds := append(append([]int64(nil), s.mem...), s.disk...)
	scs := make([]core.Scenario, len(seeds))
	for i, g := range seeds {
		scs[i] = serveScenario(g)
	}
	earlier := service.New(service.Options{Workers: s.e.workers, Store: st})
	defer shutdown(earlier)
	sw, err := earlier.Submit(s.e.spec, scs, service.SweepOptions{Name: "prepopulate"})
	if err != nil {
		return err
	}
	if err := sw.Wait(ctx); err != nil {
		return err
	}
	for i, res := range sw.Results() {
		if res == nil {
			return fmt.Errorf("prepopulate: scenario %d failed", i)
		}
		if err := checkPhysical(res.Report, false); err != nil {
			return fmt.Errorf("prepopulate: scenario %d: %w", i, err)
		}
		s.want[seeds[i]] = res.Report
	}
	restart := newSeedStream(s.e.seed, "serve-mix/restart")
	family := make([]core.Scenario, 4*s.e.workers)
	for i := range family {
		family[i] = restartWindow(restart.next())
	}
	s.it, err = leaveInterrupted(ctx, s.e, st, family, len(family)/2)
	return err
}

// start brings up the workers, the coordinator and its HTTP front, and
// warms the memory keys into the coordinator's cache.
func (s *serveInst) start() error {
	var urls []string
	for w := 0; w < s.e.workers; w++ {
		st, err := store.Open(s.dir)
		if err != nil {
			return err
		}
		wsvc := service.New(service.Options{Workers: 1, Store: st, LeaseTTL: 30 * time.Second})
		s.workers = append(s.workers, wsvc)
		lb, err := serveLoopback(wsvc.Handler())
		if err != nil {
			return err
		}
		s.servers = append(s.servers, lb)
		urls = append(urls, lb.url)
	}
	var err error
	if s.cstore, err = store.Open(s.dir); err != nil {
		return err
	}
	pool, err := cluster.New(cluster.Options{Workers: urls, Store: s.cstore})
	if err != nil {
		return err
	}
	s.runner = &timedRunner{pool: pool, secs: map[string]float64{}}
	s.coord = service.New(service.Options{Workers: s.e.workers, Store: s.cstore, Runner: s.runner})
	mux := http.NewServeMux()
	mux.Handle("/", s.coord.Handler())
	mux.Handle("GET /metrics", s.coord.Registry().Handler())
	lb, err := serveLoopback(mux)
	if err != nil {
		return err
	}
	s.servers = append(s.servers, lb)
	s.url = lb.url
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.e.workers}}

	scs := make([]core.Scenario, len(s.mem))
	for i, g := range s.mem {
		scs[i] = serveScenario(g)
	}
	sw, err := s.coord.Submit(s.e.spec, scs, service.SweepOptions{Name: "warm"})
	if err != nil {
		return err
	}
	if err := sw.Wait(context.Background()); err != nil {
		return err
	}
	for i, res := range sw.Results() {
		if res == nil || !sameReport(res.Report, s.want[s.mem[i]]) {
			return fmt.Errorf("warm-up: memory key %d differs from the report first computed", i)
		}
	}
	return nil
}

// serveReq is one drawn request: its scenarios' generator seeds and key
// kinds, and whether the client asks for a journaled sweep.
type serveReq struct {
	seeds   []int64
	kinds   []int
	durable bool
}

// draw picks the next request for client c.
func (s *serveInst) draw(c int) serveReq {
	rng := s.clients[c]
	req := serveReq{
		seeds:   make([]int64, scenariosPerReq),
		kinds:   make([]int, scenariosPerReq),
		durable: rng.Float64() < durableShare,
	}
	seeds, kinds := req.seeds, req.kinds
	for i := range seeds {
		kind := keyDraw(rng)
		pick := rng.Intn(len(s.mem))
		s.mu.Lock()
		switch {
		case kind == keyDisk && len(s.disk) > 0:
			seeds[i], s.disk = s.disk[0], s.disk[1:]
		case kind == keyNew:
			seeds[i] = s.newKeys.next()
		default:
			kind, seeds[i] = keyMemory, s.mem[pick]
		}
		s.mu.Unlock()
		kinds[i] = kind
	}
	return req
}

func (s *serveInst) run(ctx context.Context, until time.Time, tr *tracer, rec *recorder) {
	s.runner.tr.Store(tr)
	defer s.runner.tr.Store(nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.scrape(tr, rec, stop)
		}()
	}
	var clients sync.WaitGroup
	for c := range s.clients {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for time.Now().Before(until) {
				req := s.draw(c)
				t0 := time.Now()
				err := s.request(ctx, req, tr)
				rec.op(time.Since(t0).Seconds(), float64(len(req.seeds))*3600, err)
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
}

// request POSTs one small sweep, streams its results back and checks
// them: memory- and disk-served reports must be bit-identical to the
// ones first computed, new ones physically plausible.
func (s *serveInst) request(ctx context.Context, req serveReq, tr *tracer) error {
	seeds, kinds := req.seeds, req.kinds
	body := service.SubmitRequest{Name: "serve-mix", Ephemeral: !req.durable}
	for _, g := range seeds {
		body.Scenarios = append(body.Scenarios, serveRequest(g))
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	parent, end := tr.begin("request", 0)
	defer end()
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/api/sweeps", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	accepted := time.Now()
	tr.record("httpmw.submit", parent, t0, accepted)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	entries, err := s.stream(ctx, sub.ID, len(seeds))
	tr.record("httpmw.result", parent, accepted, time.Now())
	if err != nil {
		return err
	}
	var errs []error
	for i, en := range entries {
		switch {
		case en.State != service.StateDone && en.State != service.StateCached:
			errs = append(errs, fmt.Errorf("scenario %d: state %s %s", i, en.State, en.Error))
		case kinds[i] == keyNew:
			errs = append(errs, checkPhysical(en.Report, false))
		case !sameReport(en.Report, s.want[seeds[i]]):
			errs = append(errs, fmt.Errorf("scenario %d (kind %d): report differs from the one first computed", i, kinds[i]))
		}
	}
	return errors.Join(errs...)
}

// stream reads a sweep's NDJSON result stream to its end.
func (s *serveInst) stream(ctx context.Context, id string, n int) ([]service.ResultEntry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/api/sweeps/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	entries := make([]service.ResultEntry, n)
	got := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var en service.ResultEntry
		if err := json.Unmarshal(sc.Bytes(), &en); err != nil {
			return nil, err
		}
		if en.Index < 0 || en.Index >= n {
			return nil, fmt.Errorf("stream: index %d out of range", en.Index)
		}
		entries[en.Index] = en
		got++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("stream: %d of %d results", got, n)
	}
	return entries, nil
}

// scrape GETs the coordinator's /metrics while the traced run goes on
// and checks each exposition parses.
func (s *serveInst) scrape(tr *tracer, rec *recorder, stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := s.client.Get(s.url + "/metrics")
		if err != nil {
			rec.op(0, 0, fmt.Errorf("scrape: %w", err))
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.record("obs.scrape", 0, t0, time.Now())
		if err == nil {
			_, err = obs.ParseExposition(b)
		}
		if err != nil {
			rec.op(0, 0, fmt.Errorf("scrape: %w", err))
		}
	}
}

func (s *serveInst) interrupted() *interruptedSweep { return s.it }
func (s *serveInst) storeDir() string               { return s.dir }

func (s *serveInst) layers(l *layerSet, from time.Time, tr *tracer) {
	spanLayers(l, from, s.coord, s.workers)
	l.fromTracer(tr, "httpmw.submit", "httpmw.submit_ms", "ms")
	l.fromTracer(tr, "httpmw.result", "httpmw.result_ms", "ms")
	l.fromTracer(tr, "cluster.dispatch", "cluster.dispatch_ms", "ms")
	l.fromTracer(tr, "obs.scrape", "obs.scrape_ms", "ms")

	// Dispatch overhead: the coordinator's dispatch time minus the
	// worker's simulation time for the same scenario.
	run := map[string]float64{}
	for _, w := range s.workers {
		for _, sp := range spansSince(w, from) {
			for _, a := range sp.Attempts {
				if a.Outcome == "ok" {
					run[sp.ScenarioHash] = a.RunSec
				}
			}
		}
	}
	var over []float64
	s.runner.mu.Lock()
	for h, d := range s.runner.secs {
		if r, ok := run[h]; ok {
			over = append(over, d-r)
		}
	}
	s.runner.mu.Unlock()
	if !l.has("cluster.dispatch_overhead_ms") {
		l.sample("cluster.dispatch_overhead_ms", "ms", 1, over...)
	}

	// Store reads of keys that live only on disk.
	if !l.has("store.get_ms") {
		s.mu.Lock()
		keys := append([]int64(nil), s.disk...)
		s.mu.Unlock()
		specHash, err := s.e.spec.Hash()
		if err != nil {
			return
		}
		for _, g := range keys[:min(len(keys), 64)] {
			h, err := service.HashScenario(serveScenario(g))
			if err != nil {
				continue
			}
			t0 := time.Now()
			if _, err := s.cstore.Get(specHash, h); err == nil {
				l.sample("store.get_ms", "ms", 1, time.Since(t0).Seconds())
			}
		}
	}
}

func (s *serveInst) close() {
	if s.coord != nil {
		shutdown(s.coord)
	}
	for _, w := range s.workers {
		shutdown(w)
	}
	for _, lb := range s.servers {
		lb.close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
