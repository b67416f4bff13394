// Package service turns the digital twin into a long-running
// scenario-sweep service — the paper's twin-as-a-service deployment
// (§III-B6), where the REST backend runs each what-if experiment as its
// own worker. A Service owns a bounded simulation worker pool, compiles
// each submitted SystemSpec once (power models + cooling FMU design,
// shared read-only by every scenario of every sweep against that spec),
// deduplicates work through a content-addressed result cache keyed by
// (spec hash, scenario hash), and exposes submit/status/cancel plus
// streaming results over HTTP (http.go).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/httpmw"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// Options configures a Service.
type Options struct {
	// Workers bounds concurrently running simulations across all sweeps
	// (0 → runtime.NumCPU()).
	Workers int
	// CacheCap bounds the number of cached scenario results; the oldest
	// completed entries are evicted first (0 → 1024).
	CacheCap int
	// CacheMaxBytes bounds the cache by approximate resident size —
	// the primary production bound, since results vary from a bare
	// report (~2 KB) to multi-day telemetry exports (megabytes). Each
	// result's size is estimated at insert; the oldest completed entries
	// are evicted until the total fits (0 → 256 MiB).
	CacheMaxBytes int64
	// MaxSweeps bounds how many finished sweeps are retained for status
	// and result recall; beyond it the oldest finished sweeps (and the
	// results they pin) are dropped so a long-running server's memory
	// stays bounded (0 → 256).
	MaxSweeps int
	// Store layers a durable on-disk result store under the in-memory
	// cache: lookups go memory → disk → compute (single-flight preserved
	// across all tiers), and every computed result is persisted, so a
	// killed-and-restarted service re-serves finished sweeps mostly warm.
	// nil keeps the service memory-only.
	Store *store.Store
	// ScenarioTimeout bounds each scenario attempt's wall time, enforced
	// via context so a runaway attempt aborts at its next tick boundary
	// (0 → no deadline). Overridable per sweep.
	ScenarioTimeout time.Duration
	// MaxAttempts is how many times a failing scenario is tried before
	// its failure is reported as permanent. Panics, deadline overruns,
	// and simulation errors all retry with capped exponential backoff +
	// jitter; sweep cancellation never retries (0 → 3).
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the backoff between
	// attempts: base doubles per attempt, capped at max, ±50% jitter
	// (0 → 100ms and 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// MaxPending bounds the queued+running scenario count across all
	// sweeps — the admission control that makes an overloaded service
	// refuse work (Submit returns ErrSaturated, HTTP 429 + Retry-After)
	// instead of accepting sweeps it will never finish (0 → 4096).
	MaxPending int
	// Registry receives the service's metric families (cache, failure,
	// store, HTTP, model/FMU build counters) for the Prometheus /metrics
	// exposition. nil → a private registry, still reachable via
	// Service.Registry(). One Service per registry: the service owns the
	// exadigit_sweep_*/exadigit_cache_* family names it registers.
	Registry *obs.Registry
	// TraceCap bounds the per-scenario lifecycle span ring buffer served
	// at /api/sweeps/trace (0 → 1024).
	TraceCap int
	// Runner, when non-nil, replaces local simulation as the compute
	// tier: each cache-missing scenario is dispatched through it (the
	// cluster coordinator installs its worker client pool here). The
	// memory cache and single-flight still apply, and the durable store
	// is still read for hits — but computed results are NOT written back
	// (the runner's workers own persistence, so a shared store counts
	// each key's Put exactly once). Scenarios that cannot cross the wire
	// are rejected at Submit (replay datasets) or computed locally
	// (telemetry writers).
	Runner ScenarioRunner
	// LeaseTTL enables cross-node single-flight when several services
	// share one Store directory: before computing a key locally, the
	// service acquires a time-bounded lease on it and other nodes wait
	// for the holder's Put instead of duplicating the run. Size it for
	// the worst-case scenario compute; a holder renews every TTL/3, and
	// a dead holder's lease is stolen after expiry. 0 disables leasing.
	// Ignored when Runner is set — the coordinator must not lease before
	// remote dispatch, or it would deadlock against the worker that
	// leases the same key to compute it.
	LeaseTTL time.Duration
}

// Service is the sweep server. Create with New; it has no background
// goroutines of its own until sweeps are submitted.
type Service struct {
	workers   int
	maxSweeps int
	slots     chan struct{} // global simulation-worker pool
	cache     *resultCache
	store     *store.Store   // durable tier; nil → memory-only
	runner    ScenarioRunner // remote compute tier; nil → local pool
	leaseTTL  time.Duration  // cross-node single-flight; 0 → no leasing
	owner     string         // this service's lease identity
	logf      httpmw.Logf
	metrics   *httpmw.Metrics
	reg       *obs.Registry
	tracer    *obs.Tracer

	// Failure-domain configuration (service-wide defaults; sweeps may
	// override timeout and attempts).
	scenarioTimeout time.Duration
	maxAttempts     int
	retryBase       time.Duration
	retryMax        time.Duration
	maxPending      int

	// Cache and failure/recovery accounting. These registry instruments
	// ARE the counters — the /metrics exposition, Summary and
	// FailureMetricsSnapshot all read the same storage.
	hits       *obs.Counter
	misses     *obs.Counter
	retries    *obs.Counter
	panics     *obs.Counter
	timeouts   *obs.Counter
	rejections *obs.Counter
	scenRate   *obs.Gauge   // scenarios/sec of the most recently finished sweep
	pending    atomic.Int64 // queued+running scenarios across all sweeps (CAS admission)
	drain      drainRate    // completion-rate EWMA behind Retry-After
	drainBy    atomic.Int64 // shutdown drain deadline (unixnano; 0 = none) behind the 503 Retry-After

	// Journal-recovery and idempotency accounting (journal.go).
	recAdopted  *obs.Counter
	recFinished *obs.Counter
	requeued    *obs.Counter
	idemHits    *obs.Counter

	// Optimizer accounting (optimize.go).
	optEvals       *obs.CounterVec
	optFallbacks   *obs.Counter
	optGenerations *obs.Counter
	optFrontier    *obs.Gauge

	faults faultHolder // test-only chaos hook

	mu        sync.Mutex
	closed    bool
	specs     map[string]*core.CompiledSpec // spec hash → shared compiled spec
	specOrder []string                      // spec hashes, oldest first
	sweeps    map[string]*Sweep
	order     []string          // sweep ids in submission order
	keys      map[string]string // idempotency key → sweep id

	// Optimization studies (optimize.go).
	studies    map[string]*Study
	studyOrder []string // study ids in submission order
}

// maxCompiledSpecs bounds the compiled-spec cache: HTTP accepts
// arbitrary inline specs, so distinct hashes must not pin models
// forever. Evicted specs keep working for sweeps that hold them; a
// re-submission simply recompiles.
const maxCompiledSpecs = 64

// New builds a Service.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.CacheCap <= 0 {
		opts.CacheCap = 1024
	}
	if opts.CacheMaxBytes <= 0 {
		opts.CacheMaxBytes = 256 << 20
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = 256
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 100 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 5 * time.Second
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{
		workers:         opts.Workers,
		maxSweeps:       opts.MaxSweeps,
		slots:           make(chan struct{}, opts.Workers),
		cache:           newResultCache(opts.CacheCap, opts.CacheMaxBytes),
		store:           opts.Store,
		runner:          opts.Runner,
		leaseTTL:        opts.LeaseTTL,
		owner:           leaseOwnerID(),
		metrics:         &httpmw.Metrics{},
		reg:             reg,
		tracer:          obs.NewTracer(opts.TraceCap),
		scenarioTimeout: opts.ScenarioTimeout,
		maxAttempts:     opts.MaxAttempts,
		retryBase:       opts.RetryBaseDelay,
		retryMax:        opts.RetryMaxDelay,
		maxPending:      opts.MaxPending,
		specs:           make(map[string]*core.CompiledSpec),
		sweeps:          make(map[string]*Sweep),
		keys:            make(map[string]string),
		studies:         make(map[string]*Study),
	}
	s.registerMetrics()
	return s
}

// registerMetrics attaches every service counter to the registry. The
// hot-path counters (cache hits/misses, retries, panics, timeouts,
// rejections) are registry instruments written directly by the workers;
// owner-held state (pending, cache occupancy, store counters, global
// model-build counters) is collected at scrape time.
func (s *Service) registerMetrics() {
	reg := s.reg
	s.hits = reg.Counter("exadigit_cache_hits_total",
		"Scenarios served from a cache tier (memory or durable store).")
	s.misses = reg.Counter("exadigit_cache_misses_total",
		"Scenario simulation attempts started (cache misses).")
	s.retries = reg.Counter("exadigit_sweep_retries_total",
		"Scenario re-attempts after a transient failure.")
	s.panics = reg.Counter("exadigit_sweep_panics_recovered_total",
		"Worker panics recovered into per-scenario failures.")
	s.timeouts = reg.Counter("exadigit_sweep_timeouts_total",
		"Scenario attempts that exceeded their deadline.")
	s.rejections = reg.Counter("exadigit_sweep_queue_rejections_total",
		"Sweep submissions refused because the queue was saturated.")
	s.scenRate = reg.Gauge("exadigit_sweep_scenarios_per_second",
		"Throughput of the most recently finished sweep.")
	s.recAdopted = reg.Counter("exadigit_sweep_recovered_total",
		"Incomplete sweeps re-adopted from the durable journal at startup.")
	s.recFinished = reg.Counter("exadigit_sweep_recovered_finished_total",
		"Finished sweeps re-registered from the journal for status serving.")
	s.requeued = reg.Counter("exadigit_sweep_requeued_scenarios_total",
		"Scenarios re-enqueued by journal recovery (non-terminal at the crash).")
	s.idemHits = reg.Counter("exadigit_sweep_idempotent_hits_total",
		"Submissions deduplicated onto an existing sweep by idempotency key.")
	reg.GaugeFunc("exadigit_sweep_pending_scenarios",
		"Queued+running scenarios across all sweeps.",
		func() float64 { return float64(s.pending.Load()) })
	reg.GaugeFunc("exadigit_sweep_max_pending",
		"Admission bound on pending scenarios.",
		func() float64 { return float64(s.maxPending) })
	reg.GaugeFunc("exadigit_sweep_workers",
		"Simulation worker-pool capacity.",
		func() float64 { return float64(s.workers) })
	reg.CounterFunc("exadigit_cache_evictions_total",
		"Completed results dropped by the cache capacity bounds.",
		func() float64 {
			ev, _, _, _ := s.cache.stats()
			return float64(ev)
		})
	reg.GaugeFunc("exadigit_cache_entries",
		"Live result-cache entries.",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("exadigit_cache_bytes",
		"Approximate resident size of cached results.",
		func() float64 {
			_, _, bytes, _ := s.cache.stats()
			return float64(bytes)
		})
	reg.GaugeFunc("exadigit_cache_capacity_bytes",
		"Byte bound the cache evicts against.",
		func() float64 {
			_, _, _, maxBytes := s.cache.stats()
			return float64(maxBytes)
		})
	reg.GaugeFunc("exadigit_cache_capacity_entries",
		"Entry-count bound the cache evicts against.",
		func() float64 { return float64(s.cache.cap) })
	reg.CounterFunc("exadigit_model_builds_total",
		"Partition power models built process-wide (spec compilations).",
		func() float64 { return float64(config.ModelBuilds()) })
	reg.CounterFunc("exadigit_fmu_description_builds_total",
		"Cooling FMU model descriptions built process-wide.",
		func() float64 { return float64(fmu.DescriptionBuilds()) })
	reg.CounterFunc("exadigit_trace_spans_total",
		"Scenario lifecycle spans emitted.",
		func() float64 { return float64(s.tracer.Total()) })
	if st := s.store; st != nil {
		reg.VecFunc(obs.KindCounter, "exadigit_store_ops_total",
			"Durable result-store operations by kind.",
			[]string{"op"},
			func(emit func([]string, float64)) {
				m := st.Stats()
				emit([]string{"hit"}, float64(m.Hits))
				emit([]string{"miss"}, float64(m.Misses))
				emit([]string{"put"}, float64(m.Puts))
				emit([]string{"put_error"}, float64(m.PutErrors))
				emit([]string{"corrupt_quarantined"}, float64(m.CorruptQuarantined))
				emit([]string{"quarantine_purged"}, float64(m.QuarantinePurged))
				emit([]string{"lease_acquired"}, float64(m.LeasesAcquired))
				emit([]string{"lease_wait"}, float64(m.LeaseWaits))
				emit([]string{"lease_steal"}, float64(m.LeaseSteals))
				emit([]string{"journal_create"}, float64(m.JournalCreates))
				emit([]string{"journal_append"}, float64(m.JournalAppends))
				emit([]string{"journal_error"}, float64(m.JournalErrors))
			})
		reg.GaugeFunc("exadigit_store_entries",
			"Results resident in the durable store.",
			func() float64 { return float64(st.Stats().Entries) })
		reg.GaugeFunc("exadigit_store_bytes",
			"Bytes resident in the durable store.",
			func() float64 { return float64(st.Stats().Bytes) })
	}
	s.registerOptimizeMetrics()
	s.metrics.Register(reg, "sweeps")
}

// Registry returns the metric registry the service reports into — mount
// Registry().Handler() as /metrics.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Tracer returns the per-scenario lifecycle tracer (served at
// /api/sweeps/trace; attach an NDJSON file sink via Tracer().SetSink).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Summary renders the service counters as one log line — the periodic
// metrics heartbeat and the shutdown flush. It reads the instruments
// /metrics serves, plus the durable store's counters when one is
// configured.
func (s *Service) Summary() string {
	ev, entries, bytes, _ := s.cache.stats()
	line := fmt.Sprintf("pending=%d hits=%d misses=%d evictions=%d cache_entries=%d cache_mb=%.1f retries=%d panics=%d timeouts=%d rejections=%d spans=%d",
		s.pending.Load(), s.hits.Value(), s.misses.Value(), ev, entries, float64(bytes)/(1<<20),
		s.retries.Value(), s.panics.Value(), s.timeouts.Value(), s.rejections.Value(), s.tracer.Total())
	if s.store != nil {
		m := s.store.Stats()
		line += fmt.Sprintf(" store_hits=%d store_misses=%d store_puts=%d store_put_errors=%d store_corrupt=%d store_entries=%d store_bytes=%d",
			m.Hits, m.Misses, m.Puts, m.PutErrors, m.CorruptQuarantined, m.Entries, m.Bytes)
	}
	return line
}

// Store returns the durable result store, or nil when memory-only.
func (s *Service) Store() *store.Store { return s.store }

// Workers returns the pool capacity.
func (s *Service) Workers() int { return s.workers }

// SetLogf enables request logging through the shared middleware stack
// (log.Printf-shaped; nil keeps logging off). Call before Handler.
func (s *Service) SetLogf(logf httpmw.Logf) { s.logf = logf }

// Metrics exposes the HTTP middleware counters.
func (s *Service) Metrics() *httpmw.Metrics { return s.metrics }

// compiledFor returns the shared CompiledSpec for the spec, compiling it
// on first submission. Sweeps of the same spec — byte-identical after
// canonical JSON encoding — share one compiled instance. The spec is
// compiled before the registry lookup so the map key is the hash the
// CompiledSpec itself carries (one hash computation, no second registry
// read that a concurrent preset re-registration could skew).
func (s *Service) compiledFor(spec config.SystemSpec) (*core.CompiledSpec, error) {
	cs, err := core.Compile(spec)
	if err != nil {
		return nil, err
	}
	hash := cs.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.specs[hash]; ok {
		return existing, nil
	}
	s.specs[hash] = cs
	s.specOrder = append(s.specOrder, hash)
	for len(s.specOrder) > maxCompiledSpecs {
		delete(s.specs, s.specOrder[0])
		s.specOrder = s.specOrder[1:]
	}
	return cs, nil
}

// SweepOptions parameterizes one submission.
type SweepOptions struct {
	// Name labels the sweep in listings.
	Name string
	// MaxConcurrent caps this sweep's in-flight scenarios on top of the
	// global pool (0 → no per-sweep cap).
	MaxConcurrent int
	// ScenarioTimeout overrides the service's per-attempt deadline for
	// this sweep (0 → Options.ScenarioTimeout).
	ScenarioTimeout time.Duration
	// MaxAttempts overrides the service's retry budget for this sweep
	// (0 → Options.MaxAttempts).
	MaxAttempts int
	// Key is a client-supplied idempotency key: a submission carrying a
	// key already bound to a live or journaled sweep returns that sweep
	// instead of creating (and computing) a new one. Keys survive
	// restarts via the durable journal.
	Key string
	// Ephemeral skips the durable journal: the sweep will not be
	// re-adopted after a restart. Cluster shard dispatches set this —
	// durability belongs to the coordinator that owns the parent sweep,
	// and a worker re-adopting a half-done shard would race the
	// coordinator's own re-dispatch of the same scenarios.
	Ephemeral bool
}

// ScenarioState is the lifecycle of one scenario within a sweep.
type ScenarioState string

// Scenario states.
const (
	StateQueued    ScenarioState = "queued"
	StateRunning   ScenarioState = "running"
	StateDone      ScenarioState = "done"
	StateCached    ScenarioState = "cached"
	StateFailed    ScenarioState = "failed"
	StateCancelled ScenarioState = "cancelled"
)

// ScenarioStatus is the observable state of one scenario of a sweep.
type ScenarioStatus struct {
	Index    int           `json:"index"`
	Name     string        `json:"name"`
	Hash     string        `json:"scenario_hash"`
	State    ScenarioState `json:"state"`
	Error    string        `json:"error,omitempty"`
	WallSec  float64       `json:"wall_sec,omitempty"`
	CacheHit bool          `json:"cache_hit,omitempty"`
	// Attempts is how many simulation attempts the scenario consumed
	// (>1 means transient failures were retried; 0 for scenarios served
	// from a cache tier or never dispatched).
	Attempts int `json:"attempts,omitempty"`
}

// Terminal reports whether the scenario has reached a final state.
func (st ScenarioStatus) Terminal() bool {
	switch st.State {
	case StateDone, StateCached, StateFailed, StateCancelled:
		return true
	}
	return false
}

// SweepStatus is a point-in-time snapshot of a sweep.
type SweepStatus struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	SpecHash  string    `json:"spec_hash"`
	CreatedAt time.Time `json:"created_at"`
	Total     int       `json:"total"`
	Queued    int       `json:"queued"`
	Running   int       `json:"running"`
	Done      int       `json:"done"`
	Cached    int       `json:"cached"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	Finished  bool      `json:"finished"`
	// Recovered marks a sweep reconstructed from the durable journal
	// after a restart; Key echoes its idempotency key when one was set.
	Recovered bool             `json:"recovered,omitempty"`
	Key       string           `json:"sweep_key,omitempty"`
	Scenarios []ScenarioStatus `json:"scenarios,omitempty"`
}

// Sweep is one submitted battery of scenarios working through the pool.
type Sweep struct {
	id         string
	name       string
	spec       config.SystemSpec // retained for remote dispatch (RunRequest.Spec)
	specHash   string
	createdAt  time.Time
	compileSec float64            // spec-compile wall time, stamped on every span
	compiled   *core.CompiledSpec // released when the sweep finishes
	scenarios  []core.Scenario    // released when the sweep finishes
	hashes     []string
	spans      []spanState // per-scenario lifecycle accounting
	svc        *Service
	key        string              // idempotency key ("" = none)
	recovered  bool                // reconstructed from the journal after a restart
	journal    *store.SweepJournal // durable manifest + terminal records; nil = not journaled

	timeout     time.Duration // per-attempt deadline (0 → none)
	maxAttempts int

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	statuses []ScenarioStatus
	results  []*core.Result
	notify   chan struct{} // closed and replaced on every state change
	done     chan struct{} // closed when every scenario is terminal
}

// Cache tiers a scenario span reports (obs.Span.CacheTier).
const (
	tierMemory  = "memory"
	tierDisk    = "disk"
	tierCompute = "compute"
	tierNone    = "none"
	// tierJournal marks a scenario whose terminal state was restored
	// from the sweep journal at recovery — neither recomputed nor
	// re-read, just trusted (the result store holds its entry).
	tierJournal = "journal"
)

// spanState accumulates one scenario's lifecycle timings until the
// terminal state emits them as an obs.Span.
type spanState struct {
	mu       sync.Mutex
	queued   bool    // queueSec recorded (first attempt got a slot)
	queueSec float64 // submit → first worker slot
	storeSec float64 // durable-store persist time (leader only)
	attempts []obs.AttemptSpan
}

// firstSlot records the submit→first-slot queue wait once.
func (sp *spanState) firstSlot(since time.Time) {
	sp.mu.Lock()
	if !sp.queued {
		sp.queued = true
		sp.queueSec = time.Since(since).Seconds()
	}
	sp.mu.Unlock()
}

func (sp *spanState) addAttempt(a obs.AttemptSpan) {
	sp.mu.Lock()
	sp.attempts = append(sp.attempts, a)
	sp.mu.Unlock()
}

func (sp *spanState) setStoreSec(sec float64) {
	sp.mu.Lock()
	sp.storeSec = sec
	sp.mu.Unlock()
}

// emitSpan publishes scenario i's lifecycle span to the service tracer.
// Called exactly once per scenario, at its terminal state.
func (sw *Sweep) emitSpan(i int, st ScenarioStatus, tier string) {
	sp := &sw.spans[i]
	sp.mu.Lock()
	span := obs.Span{
		Time:          time.Now(),
		Sweep:         sw.id,
		Index:         i,
		Scenario:      st.Name,
		SpecHash:      sw.specHash,
		ScenarioHash:  st.Hash,
		State:         string(st.State),
		CacheTier:     tier,
		Error:         st.Error,
		Recovered:     sw.recovered,
		CompileSec:    sw.compileSec,
		QueueSec:      sp.queueSec,
		TotalSec:      time.Since(sw.createdAt).Seconds(),
		StoreWriteSec: sp.storeSec,
		Attempts:      sp.attempts,
	}
	if !sp.queued {
		// No attempt ever got a slot: the whole lifetime was queueing.
		span.QueueSec = span.TotalSec
	}
	sp.mu.Unlock()
	sw.svc.tracer.Emit(span)
}

// Submit registers a sweep and starts working it asynchronously through
// the pool. The returned Sweep is immediately observable via Status,
// Results, and Done.
func (s *Service) Submit(spec config.SystemSpec, scenarios []core.Scenario, opts SweepOptions) (*Sweep, error) {
	sw, _, err := s.SubmitIdempotent(spec, scenarios, opts)
	return sw, err
}

// SubmitIdempotent is Submit with idempotency-key deduplication made
// observable: when opts.Key is already bound to a sweep — live, or
// journaled and recovered after a restart — that sweep is returned with
// existing=true and nothing is admitted or computed. The dedup is
// key-based only; the caller owns keeping (key → scenarios) stable.
func (s *Service) SubmitIdempotent(spec config.SystemSpec, scenarios []core.Scenario, opts SweepOptions) (sw *Sweep, existing bool, err error) {
	if prev, ok := s.sweepForKey(opts.Key); ok {
		return prev, true, nil
	}
	if len(scenarios) == 0 {
		return nil, false, fmt.Errorf("service: sweep needs at least one scenario")
	}
	compileStart := time.Now()
	compiled, err := s.compiledFor(spec)
	if err != nil {
		return nil, false, err
	}
	compileSec := time.Since(compileStart).Seconds()
	hashes := make([]string, len(scenarios))
	for i, sc := range scenarios {
		if hashes[i], err = HashScenario(sc); err != nil {
			return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
		}
		// Per-partition workload lists must cover the spec's partitions,
		// and replay — programmatic-only, never valid per partition — is
		// knowable now; catching both here fails the submission instead
		// of a worker mid-sweep.
		if n := len(sc.Partitions); n != 0 && n != len(spec.Partitions) {
			return nil, false, fmt.Errorf("service: scenario %d: %d partition workloads for a %d-partition spec",
				i, n, len(spec.Partitions))
		}
		for p := range sc.Partitions {
			if sc.Partitions[p].Workload == core.WorkloadReplay {
				return nil, false, fmt.Errorf("service: scenario %d: partition %d: replay is not a per-partition workload", i, p)
			}
		}
		// A coordinator cannot ship replay datasets to a remote worker
		// (they are programmatic-only and never cross the wire), so the
		// rejection belongs here, not mid-sweep on a worker.
		if s.runner != nil && (sc.Dataset != nil || sc.Workload == core.WorkloadReplay) {
			return nil, false, fmt.Errorf("service: scenario %d: replay scenarios cannot be dispatched to remote workers", i)
		}
		// Resolve each cooled scenario's plant design up front (they are
		// cached and shared with the run), so an invalid or infeasible
		// CoolingSpec fails the submission instead of a worker mid-sweep.
		if sc.CoolingSpec != nil {
			if err := sc.CoolingSpec.Validate(); err != nil {
				return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
			}
			if _, err := compiled.CoolingDesignFor(*sc.CoolingSpec); err != nil {
				return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
			}
		} else if sc.Cooling {
			if _, err := compiled.CoolingDesign(); err != nil {
				return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
			}
		}
	}
	// Admission control: an overloaded queue refuses the sweep up front
	// (ErrSaturated → HTTP 429) rather than accepting scenarios it will
	// not reach for a long time. The reservation is released per scenario
	// as each reaches a terminal state.
	if err := s.admit(len(scenarios)); err != nil {
		return nil, false, err
	}
	timeout := opts.ScenarioTimeout
	if timeout <= 0 {
		timeout = s.scenarioTimeout
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = s.maxAttempts
	}
	ctx, cancel := context.WithCancel(context.Background())
	sw = &Sweep{
		name:        opts.Name,
		key:         opts.Key,
		spec:        spec,
		specHash:    compiled.Hash(),
		createdAt:   time.Now(),
		compileSec:  compileSec,
		compiled:    compiled,
		scenarios:   scenarios,
		hashes:      hashes,
		spans:       make([]spanState, len(scenarios)),
		svc:         s,
		timeout:     timeout,
		maxAttempts: attempts,
		ctx:         ctx,
		cancel:      cancel,
		statuses:    make([]ScenarioStatus, len(scenarios)),
		results:     make([]*core.Result, len(scenarios)),
		notify:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	for i := range sw.statuses {
		name := scenarios[i].Name
		if name == "" {
			name = string(scenarios[i].Workload)
		}
		sw.statuses[i] = ScenarioStatus{Index: i, Name: name, Hash: hashes[i], State: StateQueued}
	}

	s.mu.Lock()
	if opts.Key != "" {
		// Re-check under the registry lock: a concurrent submission with
		// the same key may have registered between our fast-path check
		// and here. Losing the race means undoing the admission without
		// feeding the drain estimator (nothing completed).
		if id, ok := s.keys[opts.Key]; ok {
			if prev := s.sweeps[id]; prev != nil {
				s.mu.Unlock()
				s.pending.Add(-int64(len(scenarios)))
				cancel()
				s.idemHits.Inc()
				return prev, true, nil
			}
		}
	}
	for {
		sw.id = newSweepID()
		if _, taken := s.sweeps[sw.id]; !taken {
			break
		}
	}
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	if opts.Key != "" {
		s.keys[opts.Key] = sw.id
	}
	s.pruneLocked()
	s.mu.Unlock()

	// Durability point: the manifest must be on disk before any work is
	// admitted to the pool, so a crash from here on is recoverable. A
	// journal that cannot be created degrades to today's in-memory-only
	// sweep (logged + counted), never a failed submission.
	s.journalSweep(sw, opts)
	go sw.run(opts.MaxConcurrent)
	return sw, false, nil
}

// sweepForKey resolves an idempotency key to its live sweep.
func (s *Service) sweepForKey(key string) (*Sweep, bool) {
	if key == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.keys[key]
	if !ok {
		return nil, false
	}
	sw, ok := s.sweeps[id]
	if ok {
		s.idemHits.Inc()
	}
	return sw, ok
}

// pruneLocked drops the oldest finished sweeps beyond the retention cap
// so the registry (and the results each sweep pins) stays bounded.
// Callers hold s.mu.
func (s *Service) pruneLocked() {
	excess := len(s.order) - s.maxSweeps
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		sw := s.sweeps[id]
		finished := false
		if sw != nil {
			select {
			case <-sw.done:
				finished = true
			default:
			}
		}
		if excess > 0 && (sw == nil || finished) {
			delete(s.sweeps, id)
			s.forgetLocked(id, sw)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// forgetLocked releases a dropped sweep's registry side state: its
// idempotency-key binding and its durable journal (a pruned sweep must
// not be re-adopted at the next restart). Callers hold s.mu.
func (s *Service) forgetLocked(id string, sw *Sweep) {
	if sw != nil && sw.key != "" && s.keys[sw.key] == id {
		delete(s.keys, sw.key)
	}
	if s.store != nil {
		if err := s.store.RemoveJournal(id); err != nil && s.logf != nil {
			s.logf("service: sweep %s journal remove: %v", id, err)
		}
	}
}

// admit reserves queue capacity for n scenarios, refusing when the
// service is closed or the reservation would exceed MaxPending.
func (s *Service) admit(n int) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for {
		cur := s.pending.Load()
		if int(cur)+n > s.maxPending {
			s.rejections.Inc()
			return fmt.Errorf("%w: %d pending + %d submitted exceeds %d",
				ErrSaturated, cur, n, s.maxPending)
		}
		if s.pending.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// release returns n scenarios' worth of queue capacity and feeds the
// drain-rate estimate the saturated-queue Retry-After hint is derived
// from.
func (s *Service) release(n int) {
	s.pending.Add(-int64(n))
	s.drain.note(n, time.Now())
}

// Close stops admitting new sweeps (Submit returns ErrClosed). Already
// submitted sweeps keep working; pair with Drain or CancelAll for the
// graceful-shutdown sequence. Safe to call repeatedly.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// CloseDraining closes the service and records when the drain window
// will end, so refused submissions (ErrClosed → 503) can carry a
// Retry-After derived from the time actually remaining — the shutdown
// counterpart of the saturated-queue hint.
func (s *Service) CloseDraining(d time.Duration) {
	if d > 0 {
		s.drainBy.Store(time.Now().Add(d).UnixNano())
	}
	s.Close()
}

// closedRetryAfterSec derives the ErrClosed Retry-After hint from the
// remaining drain window: a client told to come back after the deadline
// finds either a restarted instance or a connection refused it can
// handle. With no recorded deadline (Close without CloseDraining) a
// minimal hint still beats none.
func (s *Service) closedRetryAfterSec() int {
	dl := s.drainBy.Load()
	if dl == 0 {
		return 1
	}
	sec := int(time.Until(time.Unix(0, dl)).Seconds()) + 1
	switch {
	case sec < 1:
		return 1
	case sec > 60:
		return 60
	}
	return sec
}

// Drain blocks until every submitted sweep reaches a terminal state or
// ctx expires — the shutdown step that lets in-flight sweeps finish (and
// streaming clients receive their final lines) before the HTTP server
// goes away. Call Close first so the set of sweeps being waited on
// cannot grow.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	sweeps := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		sweeps = append(sweeps, sw)
	}
	s.mu.Unlock()
	for _, sw := range sweeps {
		select {
		case <-sw.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Studies fail fast once the service is closed (their next
	// generation submission refuses), so this converges too.
	return s.drainStudies(ctx)
}

// CancelAll aborts every sweep — the impatient half of shutdown (second
// SIGINT): queued scenarios become cancelled and running simulations
// stop at their next tick boundary.
func (s *Service) CancelAll() {
	s.mu.Lock()
	sweeps := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		sweeps = append(sweeps, sw)
	}
	s.mu.Unlock()
	for _, sw := range sweeps {
		sw.Cancel()
	}
	s.cancelAllStudies()
}

// Remove drops a finished sweep from the registry, releasing the
// results it pins (cached entries stay until the result cache evicts
// them). It refuses to remove a sweep that is still working.
func (s *Service) Remove(id string) error {
	sw, ok := s.Sweep(id)
	if !ok {
		return fmt.Errorf("service: no sweep %q", id)
	}
	select {
	case <-sw.done:
	default:
		return fmt.Errorf("service: sweep %q still running; cancel it first", id)
	}
	s.mu.Lock()
	delete(s.sweeps, id)
	s.forgetLocked(id, sw)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	return nil
}

// Sweep resolves a sweep by id.
func (s *Service) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// List snapshots every sweep in submission order (summary form, without
// per-scenario detail).
func (s *Service) List() []SweepStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]SweepStatus, 0, len(ids))
	for _, id := range ids {
		if sw, ok := s.Sweep(id); ok {
			st := sw.Status()
			st.Scenarios = nil
			out = append(out, st)
		}
	}
	return out
}

// Cancel aborts a sweep by id: queued scenarios become cancelled and
// running simulations stop at their next tick boundary (mid-day). Safe
// to call repeatedly.
func (s *Service) Cancel(id string) error {
	sw, ok := s.Sweep(id)
	if !ok {
		return fmt.Errorf("service: no sweep %q", id)
	}
	sw.Cancel()
	return nil
}

// ID returns the sweep's identifier.
func (sw *Sweep) ID() string { return sw.id }

// SpecHash returns the compiled spec's content hash.
func (sw *Sweep) SpecHash() string { return sw.specHash }

// ScenarioHashes returns the per-scenario content hashes, indexed like
// the submitted scenarios.
func (sw *Sweep) ScenarioHashes() []string { return append([]string(nil), sw.hashes...) }

// Cancel aborts the sweep (see Service.Cancel).
func (sw *Sweep) Cancel() { sw.cancel() }

// Done returns a channel closed once every scenario is terminal.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Wait blocks until the sweep finishes or ctx expires.
func (sw *Sweep) Wait(ctx context.Context) error {
	select {
	case <-sw.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status snapshots the sweep including per-scenario states.
func (sw *Sweep) Status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:        sw.id,
		Name:      sw.name,
		SpecHash:  sw.specHash,
		CreatedAt: sw.createdAt,
		Total:     len(sw.statuses),
		Recovered: sw.recovered,
		Key:       sw.key,
		Scenarios: append([]ScenarioStatus(nil), sw.statuses...),
	}
	for _, s := range sw.statuses {
		switch s.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateCached:
			st.Cached++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	st.Finished = st.Queued == 0 && st.Running == 0
	return st
}

// Results snapshots the per-scenario results, indexed like the submitted
// scenarios; unfinished or failed entries are nil. Results may be served
// from the shared cache — treat them as read-only. For a sweep recovered
// from the journal, results of journal-terminal scenarios are loaded
// lazily from the durable store on first demand (recovery itself only
// verifies they exist, so startup stays cheap).
func (sw *Sweep) Results() []*core.Result {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.recovered {
		sw.loadRecoveredLocked()
	}
	return append([]*core.Result(nil), sw.results...)
}

// loadRecoveredLocked fills nil result slots of done/cached scenarios
// from the durable store. Entries that have since been deleted or
// quarantined simply stay nil — status is served from the journal
// either way. Callers hold sw.mu.
func (sw *Sweep) loadRecoveredLocked() {
	st := sw.svc.store
	if st == nil {
		return
	}
	for i := range sw.statuses {
		if sw.results[i] != nil {
			continue
		}
		sc := &sw.statuses[i]
		if sc.State != StateDone && sc.State != StateCached {
			continue
		}
		if res, err := st.Get(sw.specHash, sc.Hash); err == nil {
			sw.results[i] = res
		}
	}
}

// changed returns a channel closed at the next state change — the
// broadcast primitive behind the streaming endpoints.
func (sw *Sweep) changed() <-chan struct{} {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.notify
}

func (sw *Sweep) update(mutate func()) {
	sw.mu.Lock()
	mutate()
	close(sw.notify)
	sw.notify = make(chan struct{})
	sw.mu.Unlock()
}

// run drives the sweep: spawn one bounded goroutine per scenario, each
// gated by the per-sweep limit and the service-wide worker pool.
func (sw *Sweep) run(maxConcurrent int) {
	var sem chan struct{}
	if maxConcurrent > 0 {
		sem = make(chan struct{}, maxConcurrent)
	}
	var wg sync.WaitGroup
loop:
	for i := range sw.scenarios {
		if sw.terminalAt(i) {
			// Journal-restored terminal state (recovered sweep): the
			// outcome is already recorded and its reservation was never
			// re-admitted — nothing to dispatch.
			continue
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-sw.ctx.Done():
				break loop
			}
		} else if sw.ctx.Err() != nil {
			break loop
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			sw.runOne(i)
		}(i)
	}
	wg.Wait()
	// Anything never dispatched (cancel hit the dispatch loop) is
	// cancelled in place; each released scenario returns its queue
	// reservation and still emits its lifecycle span (state=cancelled,
	// tier=none, no attempts).
	var undispatched []ScenarioStatus
	sw.update(func() {
		for i := range sw.statuses {
			if !sw.statuses[i].Terminal() && sw.statuses[i].State == StateQueued {
				sw.statuses[i].State = StateCancelled
				undispatched = append(undispatched, sw.statuses[i])
			}
		}
	})
	sw.svc.release(len(undispatched))
	for _, st := range undispatched {
		sw.emitSpan(st.Index, st, tierNone)
	}
	if elapsed := time.Since(sw.createdAt).Seconds(); elapsed > 0 {
		sw.svc.scenRate.Set(float64(len(sw.statuses)) / elapsed)
	}
	// Seal the journal: an end line tells the next startup this sweep
	// owes nothing. Cancelled scenarios are deliberately not recorded as
	// terminal facts, so the disposition carries whether any exist.
	if j := sw.journal; j != nil {
		disposition := "complete"
		if st := sw.Status(); st.Cancelled > 0 {
			disposition = "cancelled"
		}
		if err := j.End(disposition); err != nil && sw.svc.logf != nil {
			sw.svc.logf("service: sweep %s journal end: %v", sw.id, err)
		}
	}
	// Release per-sweep resources promptly: the scenario slice can pin
	// multi-gigabyte replay datasets and the compiled spec pins power
	// models — neither is needed once every scenario is terminal (status
	// and results live in their own slices). Without this, a cancelled
	// sweep kept its inputs pinned until the registry pruned it, which on
	// a long-running server could be process lifetime.
	sw.cancel()
	sw.mu.Lock()
	sw.scenarios, sw.compiled = nil, nil
	sw.mu.Unlock()
	close(sw.done)
}

// runOne resolves one scenario through the cache or the simulator.
func (sw *Sweep) runOne(i int) {
	if sw.scenarios[i].TelemetryTo != nil {
		// Streaming scenarios bypass the cache entirely: serving a hit
		// (or waiting on another submitter's run) would silently skip
		// the writer side effect the caller asked for.
		sw.runDirect(i)
		return
	}
	key := sw.specHash + ":" + sw.hashes[i]
	for {
		entry, leader := sw.svc.cache.acquire(key)
		if leader {
			sw.lead(i, key, entry)
			return
		}
		// Someone else — possibly a concurrently submitted duplicate —
		// is simulating this exact (spec, scenario); wait for it.
		select {
		case <-entry.done:
		case <-sw.ctx.Done():
			sw.record(i, nil, sw.ctx.Err(), tierNone)
			return
		}
		if errors.Is(entry.err, errAbandoned) {
			continue // leader cancelled before running; take over
		}
		if entry.err != nil {
			// The leader simulated and failed; failures are not cached
			// (complete() dropped the entry), so this is not a hit.
			sw.record(i, nil, entry.err, tierNone)
			return
		}
		sw.svc.hits.Inc()
		sw.record(i, entry.res, nil, tierMemory)
		return
	}
}

// errAbandoned marks a cache entry whose leader was cancelled before
// producing a result; waiters retry leadership instead of failing.
var errAbandoned = errors.New("service: scenario abandoned by cancelled sweep")

// simulate drives scenario i through the retry loop: each attempt runs
// inside the panic-isolation and deadline scope, transient failures —
// recovered panics, deadline overruns, simulation errors — retry with
// capped exponential backoff + jitter up to the sweep's attempt budget,
// and what survives is wrapped in a *ScenarioError so callers see the
// scenario's identity, attempt count, and cause. Sweep cancellation is
// never retried; ran is false when the sweep was cancelled before a pool
// slot freed.
func (sw *Sweep) simulate(i int) (res *core.Result, ran bool, err error) {
	for attempt := 1; ; attempt++ {
		res, ran, err = sw.attempt(i, attempt)
		if err == nil || !ran {
			return res, ran, err
		}
		if sw.ctx.Err() != nil {
			// The sweep itself was cancelled (possibly mid-attempt);
			// report the cancellation, not the attempt's error.
			return nil, ran, sw.ctx.Err()
		}
		if attempt >= sw.maxAttempts {
			return nil, true, &ScenarioError{
				ScenarioHash: sw.hashes[i], Index: i, Attempts: attempt, Cause: err,
			}
		}
		sw.svc.retries.Inc()
		if !sleepBackoff(sw.ctx, sw.svc.retryBase, sw.svc.retryMax, attempt) {
			return nil, true, sw.ctx.Err()
		}
	}
}

// attempt acquires a pool slot and runs scenario i once — the single run
// sequence shared by the cached and direct paths. The sweep context is
// threaded through the run, so a cancel aborts an in-flight simulation
// at its next tick boundary (mid-day); the per-attempt deadline, when
// configured, is layered on top and reported as a timeout rather than a
// cancellation.
func (sw *Sweep) attempt(i, attempt int) (res *core.Result, ran bool, err error) {
	waitStart := time.Now()
	select {
	case sw.svc.slots <- struct{}{}:
	case <-sw.ctx.Done():
		return nil, false, sw.ctx.Err()
	}
	defer func() { <-sw.svc.slots }()
	waitSec := time.Since(waitStart).Seconds()
	sw.spans[i].firstSlot(sw.createdAt)
	sw.update(func() {
		sw.statuses[i].State = StateRunning
		sw.statuses[i].Attempts = attempt
	})
	sw.svc.misses.Inc()
	ctx := sw.ctx
	if sw.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sw.timeout)
		defer cancel()
	}
	runStart := time.Now()
	res, err = sw.runRecovered(ctx, i, attempt)
	runSec := time.Since(runStart).Seconds()
	// Outcome classification shares its branches with the failure
	// counters — one increment per "timeout"/"panic" attempt span, so
	// the trace and FailureMetrics reconcile exactly.
	outcome := ""
	if err != nil && ctx.Err() == context.DeadlineExceeded && sw.ctx.Err() == nil {
		// The attempt's own deadline expired (not a sweep cancel):
		// normalize whatever surfaced — the context error itself or a
		// mid-tick wrap of it — into a typed, retriable timeout.
		sw.svc.timeouts.Inc()
		outcome = "timeout"
		err = fmt.Errorf("service: scenario deadline %v exceeded: %w",
			sw.timeout, context.DeadlineExceeded)
	}
	if outcome == "" {
		var pe *PanicError
		switch {
		case err == nil:
			outcome = "ok"
		case errors.As(err, &pe):
			outcome = "panic"
		case errors.Is(err, context.Canceled):
			outcome = "cancelled"
		default:
			outcome = "error"
		}
	}
	span := obs.AttemptSpan{Attempt: attempt, WaitSec: waitSec, RunSec: runSec, Outcome: outcome}
	if err != nil {
		span.Error = err.Error()
	}
	sw.spans[i].addAttempt(span)
	return res, true, err
}

// runDirect simulates the scenario without cache participation (used
// when the scenario carries runtime side effects a cached result could
// not reproduce).
func (sw *Sweep) runDirect(i int) {
	res, _, err := sw.simulate(i)
	tier := tierCompute
	if err != nil {
		tier = tierNone
	}
	sw.record(i, res, err, tier)
}

// lead resolves the scenario for every waiter on its cache key: disk
// first (the durable tier — a restart-surviving hit costs one file read
// and zero model builds), then simulation. Because only the key's leader
// reaches the store, single-flight semantics extend across all three
// tiers: N concurrent submissions of one scenario cost at most one disk
// read plus one simulation. With a shared store and a LeaseTTL, the
// single-flight extends across nodes too: the leader leases the key
// before computing locally, so of N services sharing the directory only
// one simulates while the others poll for its Put.
func (sw *Sweep) lead(i int, key string, entry *cacheEntry) {
	st := sw.svc.store
	if st != nil && sw.ctx.Err() == nil {
		if res, err := st.Get(sw.specHash, sw.hashes[i]); err == nil {
			sw.svc.hits.Inc()
			sw.svc.cache.complete(key, entry, res, nil)
			sw.record(i, res, nil, tierDisk)
			return
		}
		// ErrNotFound and ErrCorrupt (quarantined) both mean compute; the
		// recomputed result re-persists below, healing corrupt entries.
	}
	// Cross-node single-flight, local compute only: a coordinator never
	// leases before remote dispatch (the worker that computes the key
	// takes the lease; a coordinator holding it would deadlock them).
	var lease *store.Lease
	if st != nil && sw.svc.leaseTTL > 0 && sw.svc.runner == nil {
		var res *core.Result
		var err error
		lease, res, err = sw.waitLease(i)
		if res != nil {
			// Another node computed and persisted the key while we waited.
			sw.svc.hits.Inc()
			sw.svc.cache.complete(key, entry, res, nil)
			sw.record(i, res, nil, tierDisk)
			return
		}
		if err != nil {
			sw.svc.cache.complete(key, entry, nil, errAbandoned)
			sw.record(i, nil, err, tierNone)
			return
		}
	}
	var stopRenew chan struct{}
	if lease != nil {
		stopRenew = make(chan struct{})
		go sw.renewLease(lease, stopRenew)
	}
	res, ran, err := sw.simulate(i)
	if stopRenew != nil {
		close(stopRenew)
	}
	if !ran || errors.Is(err, context.Canceled) {
		// Never got a slot, or this sweep's cancel aborted the run
		// mid-day: release the key so another submitter can take over,
		// rather than publishing the cancellation to unrelated waiters.
		if lease != nil {
			lease.Release()
		}
		sw.svc.cache.complete(key, entry, nil, errAbandoned)
		sw.record(i, nil, err, tierNone)
		return
	}
	sw.svc.cache.complete(key, entry, res, err)
	if err == nil {
		if st != nil && sw.svc.runner == nil {
			// Persist after publishing so waiters are never delayed by
			// disk I/O. A failed Put is an observability event (store
			// put_errors), not a scenario failure — the result is already
			// served from memory. Skipped in coordinator mode: the worker
			// that computed the result persists it, so a shared store
			// counts each key exactly once.
			putStart := time.Now()
			perr := st.Put(sw.specHash, sw.hashes[i], res)
			sw.spans[i].setStoreSec(time.Since(putStart).Seconds())
			if perr != nil && sw.svc.logf != nil {
				sw.svc.logf("service: store put %s/%s: %v", sw.specHash, sw.hashes[i], perr)
			}
		}
	}
	if lease != nil {
		// Release only after the Put: a waiter that sees the lease go
		// away must find the result on its next store poll.
		lease.Release()
	}
	tier := tierCompute
	if err != nil {
		tier = tierNone
	}
	sw.record(i, res, err, tier)
}

// waitLease acquires the cross-node lease for scenario i, waiting out
// (and polling the store under) any other node's live lease. It returns
// exactly one of: a held lease (compute locally), a result another node
// persisted while we waited, or an error (the sweep was cancelled). All
// nil means lease I/O failed — fail open and compute without one; the
// worst case is a duplicate compute, never a stuck scenario.
func (sw *Sweep) waitLease(i int) (*store.Lease, *core.Result, error) {
	st := sw.svc.store
	ttl := sw.svc.leaseTTL
	poll := ttl / 10
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	for {
		lease, err := st.AcquireLease(sw.specHash, sw.hashes[i], sw.svc.owner, ttl)
		if err == nil {
			// Re-check the store before computing: the previous holder may
			// have Put between our miss and this acquire.
			if res, gerr := st.Get(sw.specHash, sw.hashes[i]); gerr == nil {
				lease.Release()
				return nil, res, nil
			}
			return lease, nil, nil
		}
		if !errors.Is(err, store.ErrLeaseHeld) {
			if sw.svc.logf != nil {
				sw.svc.logf("service: lease %s/%s: %v (computing without lease)",
					sw.specHash, sw.hashes[i], err)
			}
			return nil, nil, nil
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-sw.ctx.Done():
			t.Stop()
			return nil, nil, sw.ctx.Err()
		}
		t.Stop()
		if res, gerr := st.Get(sw.specHash, sw.hashes[i]); gerr == nil {
			return nil, res, nil
		}
	}
}

// renewLease extends the held lease every TTL/3 until stop closes. A
// failed renew means a holder that overran its TTL lost the lease to a
// stealer; the compute still finishes and publishes (Puts are atomic and
// idempotent) — the stealer's duplicate run is the documented
// degradation mode, so the renewer just stops.
func (sw *Sweep) renewLease(l *store.Lease, stop <-chan struct{}) {
	interval := sw.svc.leaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-sw.ctx.Done():
			return
		case <-t.C:
			if err := l.Renew(sw.svc.leaseTTL); err != nil {
				return
			}
		}
	}
}

// record finalizes one scenario's status, returns its queue
// reservation, and emits the scenario's lifecycle span. tier is the
// cache tier that resolved it (tierMemory/tierDisk count as cache
// hits). It is called exactly once per dispatched scenario.
func (sw *Sweep) record(i int, res *core.Result, err error, tier string) {
	defer sw.svc.release(1)
	cacheHit := tier == tierMemory || tier == tierDisk
	var final ScenarioStatus
	sw.update(func() {
		st := &sw.statuses[i]
		st.CacheHit = cacheHit
		switch {
		case err != nil && errors.Is(err, context.Canceled):
			st.State = StateCancelled
		case err != nil:
			st.State = StateFailed
			st.Error = err.Error()
		case cacheHit:
			st.State = StateCached
			sw.results[i] = res
		default:
			st.State = StateDone
			sw.results[i] = res
		}
		if res != nil {
			st.WallSec = res.WallSec
		}
		final = *st
	})
	sw.appendJournal(final)
	sw.emitSpan(i, final, tier)
}

// terminalAt reports whether scenario i is already terminal — true only
// for journal-restored states on a recovered sweep at dispatch time.
func (sw *Sweep) terminalAt(i int) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statuses[i].Terminal()
}

// cacheEntry is one in-flight or completed scenario result. done is
// closed once res/err are final; bytes is the entry's approximate
// resident size, fixed at completion.
type cacheEntry struct {
	done  chan struct{}
	res   *core.Result
	err   error
	bytes int64
}

// resultCache is the content-addressed result store with single-flight
// semantics: the first acquirer of a key leads (simulates); concurrent
// acquirers wait on the same entry, so N identical submissions cost one
// simulation. It is bounded both by entry count and — the production
// bound — by approximate resident bytes, since one result can be a bare
// report or a multi-megabyte telemetry export.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	maxBytes  int64
	bytes     int64 // Σ entry bytes over completed entries
	entries   map[string]*cacheEntry
	order     []string // completed keys, oldest first, for eviction
	evictions uint64   // completed entries dropped by the capacity bounds
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{cap: capacity, maxBytes: maxBytes, entries: make(map[string]*cacheEntry)}
}

// approxResultBytes estimates a result's resident size at insert time.
// It counts the dominant variable-size members — history samples and the
// exported telemetry's series points and per-job power traces — plus a
// fixed overhead for the report and bookkeeping. Precision is not the
// point; the estimate keeps eviction pressure proportional to what the
// cache actually pins.
func approxResultBytes(res *core.Result) int64 {
	const (
		base       = int64(2 << 10) // report, scenario copy, headers
		sampleSize = int64(14*8 + 2*24)
		pointSize  = int64(3*8 + 24)
		jobBase    = int64(256)
	)
	if res == nil {
		return base
	}
	n := base
	n += int64(len(res.History)) * sampleSize
	for i := range res.History {
		n += int64(len(res.History[i].CDUHeatW)+len(res.History[i].PartPowerW)) * 8
	}
	if d := res.Dataset; d != nil {
		n += int64(len(d.Series)) * pointSize
		for i := range d.Series {
			n += int64(len(d.Series[i].PartPowerW)) * 8
		}
		for i := range d.Jobs {
			n += jobBase + int64(len(d.Jobs[i].CPUPowerW)+len(d.Jobs[i].GPUPowerW))*8
		}
	}
	return n
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// acquire returns the entry for key and whether the caller leads its
// computation.
func (c *resultCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// complete publishes the leader's outcome. Failed and abandoned runs are
// dropped from the cache (a later submission may retry); successes are
// retained while they fit both the entry cap and the byte bound,
// evicting oldest-completed first (a result larger than the whole byte
// bound is published to its waiters but not retained).
func (c *resultCache) complete(key string, e *cacheEntry, res *core.Result, err error) {
	e.res, e.err = res, err
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else if e.bytes = approxResultBytes(res); e.bytes > c.maxBytes {
		// Larger than the whole byte bound: evicting every other entry
		// would not make it fit, so drop just this one instead of
		// flushing a warm cache.
		delete(c.entries, key)
		c.evictions++
	} else {
		c.bytes += e.bytes
		c.order = append(c.order, key)
		for len(c.order) > 0 && (len(c.order) > c.cap || c.bytes > c.maxBytes) {
			evict := c.order[0]
			c.order = c.order[1:]
			if old, ok := c.entries[evict]; ok {
				c.bytes -= old.bytes
				delete(c.entries, evict)
			}
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// stats returns the cache's eviction count, live entries, resident
// bytes, and byte capacity.
func (c *resultCache) stats() (evictions uint64, entries int, bytes, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, len(c.entries), c.bytes, c.maxBytes
}
