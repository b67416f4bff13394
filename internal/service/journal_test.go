package service

// Durable sweep journal tests: crash-recovering an in-flight sweep
// without recomputing journaled-terminal scenarios, re-registering
// finished sweeps for status/result serving across restarts, idempotent
// submission (in-process, concurrent, and across a restart), journal
// degradation on I/O failure, and journal cleanup on sweep removal.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/store"
)

// waitJournalAppends polls until the store has durably appended at
// least n journal records — the only reliable "these scenarios are on
// disk" barrier, since in-memory status flips before the fsync.
func waitJournalAppends(t *testing.T, st *store.Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for st.Stats().JournalAppends < n {
		if time.Now().After(deadline) {
			t.Fatalf("journal appends stuck at %d, want >= %d", st.Stats().JournalAppends, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoverResumesKilledSweep is the tentpole acceptance test in the
// local-pool shape: a sweep is killed mid-flight (journal detached to
// fabricate kill -9), a fresh service over the same store directory
// re-adopts it, restores the journaled-terminal scenarios without
// recompute, re-runs only the remainder, and finishes the sweep —
// idempotency key included.
func TestRecoverResumesKilledSweep(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	const n, blocked = 8, 2 // indices 6,7 never finish before the "kill"
	gate := make(chan struct{})
	svc1.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.Index < n-blocked {
				return nil
			}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			if err := ctx.Err(); err != nil {
				return err // killed: the scenario must die cancelled, not finish
			}
			return nil
		},
	})
	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(900+i), 1800)
	}
	sw, err := svc1.Submit(config.Frontier(), scenarios, SweepOptions{Name: "kill-me", Key: "kill-key"})
	if err != nil {
		t.Fatal(err)
	}
	waitJournalAppends(t, st1, n-blocked)

	// Fabricate kill -9: sever the journal exactly as a crash would
	// leave it, then tear the old process down.
	sw.DetachJournal()
	svc1.CancelAll()
	close(gate)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Finished != 0 {
		t.Fatalf("recover stats %+v, want 1 adopted", stats)
	}
	if stats.Terminal != n-blocked || stats.Requeued != blocked {
		t.Fatalf("recover stats %+v, want %d terminal / %d requeued", stats, n-blocked, blocked)
	}
	got, ok := svc2.Sweep(sw.ID())
	if !ok {
		t.Fatalf("recovered service does not serve sweep %s", sw.ID())
	}
	if !got.Recovered() {
		t.Fatal("adopted sweep not marked recovered")
	}
	final := waitSweep(t, got)
	if !final.Recovered {
		t.Fatal("status does not carry recovered flag")
	}
	if final.Key != "kill-key" {
		t.Fatalf("status key = %q, want kill-key", final.Key)
	}
	if final.Done+final.Cached != n || final.Failed != 0 || final.Cancelled != 0 {
		t.Fatalf("recovered sweep final status %+v", final)
	}
	// Zero recompute of journaled-terminal scenarios: only the two
	// requeued ones computed (and Put) after the restart.
	if p := st2.Stats().Puts; p != blocked {
		t.Fatalf("post-restart puts = %d, want %d (restored scenarios recomputed?)", p, blocked)
	}
	for i, res := range got.Results() {
		if res == nil || res.Report == nil {
			t.Fatalf("scenario %d: no result after recovery", i)
		}
	}
	// Resubmission with the original idempotency key returns the
	// recovered sweep, not a new one.
	dup, existing, err := svc2.SubmitIdempotent(config.Frontier(), scenarios, SweepOptions{Key: "kill-key"})
	if err != nil {
		t.Fatal(err)
	}
	if !existing || dup.ID() != sw.ID() {
		t.Fatalf("same-key resubmission: existing=%v id=%s, want dedup to %s", existing, dup.ID(), sw.ID())
	}
}

// TestRecoverFinishedSweepServesStatusAndResults: a sweep that finished
// (end line journaled, including a permanent per-scenario failure)
// survives a restart as queryable status — failure text and attempt
// count intact — with results lazily re-read from the store and zero
// recompute.
func TestRecoverFinishedSweepServesStatusAndResults(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	const failIdx = 2
	svc1.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.Index == failIdx {
				return errors.New("chaos: injected permanent failure")
			}
			return nil
		},
	})
	scenarios := []core.Scenario{
		synthScenario(801, 1800), synthScenario(802, 1800),
		synthScenario(803, 1800), synthScenario(804, 1800),
	}
	sw, err := svc1.Submit(config.Frontier(), scenarios, SweepOptions{Name: "finished", Key: "fin-key"})
	if err != nil {
		t.Fatal(err)
	}
	first := waitSweep(t, sw)
	if first.Done != 3 || first.Failed != 1 {
		t.Fatalf("setup sweep status %+v", first)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 1 || stats.Adopted != 0 || stats.Requeued != 0 {
		t.Fatalf("recover stats %+v, want 1 finished", stats)
	}
	got, ok := svc2.Sweep(sw.ID())
	if !ok {
		t.Fatalf("finished sweep %s not served after restart", sw.ID())
	}
	// Already terminal: Wait must return immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := got.Wait(ctx); err != nil {
		t.Fatalf("recovered finished sweep not done: %v", err)
	}
	gs := got.Status()
	if !gs.Recovered || !gs.Finished || gs.Done != 3 || gs.Failed != 1 {
		t.Fatalf("recovered status %+v", gs)
	}
	fs := gs.Scenarios[failIdx]
	if fs.State != StateFailed || !strings.Contains(fs.Error, "injected permanent failure") || fs.Attempts != 3 {
		t.Fatalf("failure record lost across restart: %+v", fs)
	}
	if p := st2.Stats().Puts; p != 0 {
		t.Fatalf("recovery of a finished sweep computed something: %d puts", p)
	}
	res := got.Results()
	for i := range scenarios {
		if i == failIdx {
			if res[i] != nil {
				t.Fatalf("failed scenario %d has a result", i)
			}
			continue
		}
		if res[i] == nil || res[i].Report == nil {
			t.Fatalf("scenario %d: result not lazily loaded from store", i)
		}
	}
	if p := st2.Stats().Puts; p != 0 {
		t.Fatalf("lazy result load wrote to the store: %d puts", p)
	}
	// The rebound key dedupes too.
	dup, existing, err := svc2.SubmitIdempotent(config.Frontier(), scenarios, SweepOptions{Key: "fin-key"})
	if err != nil {
		t.Fatal(err)
	}
	if !existing || dup.ID() != sw.ID() {
		t.Fatalf("same-key resubmission after restart: existing=%v id=%s", existing, dup.ID())
	}
}

// TestSubmitIdempotentConcurrent drives one key from many goroutines:
// exactly one submission creates the sweep, every other call returns the
// same id with existing=true, and the admission ledger is not leaked by
// the losers (a full second sweep still fits afterwards).
func TestSubmitIdempotentConcurrent(t *testing.T) {
	svc := New(Options{Workers: 4, MaxPending: 8})
	scenarios := []core.Scenario{synthScenario(701, 1800), synthScenario(702, 1800)}
	spec := config.Frontier()

	const callers = 8
	ids := make([]string, callers)
	created := make([]bool, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sw, existing, err := svc.SubmitIdempotent(spec, scenarios, SweepOptions{Key: "same-key"})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
				return
			}
			ids[g] = sw.ID()
			created[g] = !existing
		}(g)
	}
	wg.Wait()
	creators := 0
	for g := 0; g < callers; g++ {
		if ids[g] != ids[0] {
			t.Fatalf("caller %d got id %s, caller 0 got %s", g, ids[g], ids[0])
		}
		if created[g] {
			creators++
		}
	}
	if creators != 1 {
		t.Fatalf("%d callers created the sweep, want exactly 1", creators)
	}
	sw, _ := svc.Sweep(ids[0])
	waitSweep(t, sw)
	// Losers must have returned their admission reservations: the queue
	// has room for a fresh 8-scenario sweep (MaxPending is 8).
	big := make([]core.Scenario, 8)
	for i := range big {
		big[i] = synthScenario(int64(710+i), 1800)
	}
	sw2, err := svc.Submit(spec, big, SweepOptions{})
	if err != nil {
		t.Fatalf("admission ledger leaked by dedup losers: %v", err)
	}
	waitSweep(t, sw2)
}

// TestJournalErrorDegradesToInMemory: a store whose journal directory
// cannot be created (a file squats on the name) must not fail
// submissions — the sweep runs in-memory-only and the failure is
// counted.
func TestJournalErrorDegradesToInMemory(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the journal directory name so MkdirAll fails with ENOTDIR.
	if err := os.WriteFile(filepath.Join(dir, "sweeps"), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st})
	sw, err := svc.Submit(config.Frontier(), []core.Scenario{synthScenario(601, 1800)}, SweepOptions{})
	if err != nil {
		t.Fatalf("journal failure leaked into submission: %v", err)
	}
	final := waitSweep(t, sw)
	if final.Done != 1 {
		t.Fatalf("degraded sweep did not finish: %+v", final)
	}
	m := st.Stats()
	if m.JournalErrors == 0 {
		t.Fatal("journal create failure not counted")
	}
	if m.JournalCreates != 0 {
		t.Fatalf("JournalCreates = %d with an unwritable journal dir", m.JournalCreates)
	}
}

// TestRemoveSweepRemovesJournal: dropping a finished sweep from the
// registry deletes its journal, so the sweeps/ directory is bounded by
// sweep retention exactly like the in-memory registry.
func TestRemoveSweepRemovesJournal(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st})
	sw, err := svc.Submit(config.Frontier(), []core.Scenario{synthScenario(501, 1800)}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	if st.JournalCount() != 1 {
		t.Fatalf("JournalCount = %d after submit, want 1", st.JournalCount())
	}
	if err := svc.Remove(sw.ID()); err != nil {
		t.Fatal(err)
	}
	if st.JournalCount() != 0 {
		t.Fatalf("journal survived sweep removal")
	}
}

// postSweepRaw submits without asserting the status code, optionally
// with an Idempotency-Key header, and returns the response.
func postSweepRaw(t *testing.T, url string, req SubmitRequest, key string) (*http.Response, SubmitResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/api/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if key != "" {
		hr.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return resp, ack
}

func smallSubmit(name string, seeds ...int64) SubmitRequest {
	req := SubmitRequest{Name: name}
	for _, seed := range seeds {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = seed
		req.Scenarios = append(req.Scenarios, ScenarioRequest{
			Workload:   "synthetic",
			HorizonSec: 1800,
			TickSec:    15,
			Generator:  &gen,
		})
	}
	return req
}

// TestHTTPIdempotencyKeyDedupes: the first submission with a key is a
// 202; a resubmission with the same key — via header or the sweep_key
// field — is a 200 carrying the original id and deduplicated=true, and
// no second sweep exists.
func TestHTTPIdempotencyKeyDedupes(t *testing.T) {
	svc := New(Options{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp1, ack1 := postSweepRaw(t, srv.URL, smallSubmit("idem", 1, 2), "key-http-1")
	if resp1.StatusCode != http.StatusAccepted || ack1.Deduplicated {
		t.Fatalf("first submit: status %d deduplicated=%v", resp1.StatusCode, ack1.Deduplicated)
	}
	resp2, ack2 := postSweepRaw(t, srv.URL, smallSubmit("idem", 1, 2), "key-http-1")
	if resp2.StatusCode != http.StatusOK || !ack2.Deduplicated || ack2.ID != ack1.ID {
		t.Fatalf("header resubmit: status %d deduplicated=%v id=%s want %s",
			resp2.StatusCode, ack2.Deduplicated, ack2.ID, ack1.ID)
	}
	// The body field works too (header absent).
	req := smallSubmit("idem", 1, 2)
	req.SweepKey = "key-http-1"
	resp3, ack3 := postSweepRaw(t, srv.URL, req, "")
	if resp3.StatusCode != http.StatusOK || !ack3.Deduplicated || ack3.ID != ack1.ID {
		t.Fatalf("sweep_key resubmit: status %d deduplicated=%v id=%s", resp3.StatusCode, ack3.Deduplicated, ack3.ID)
	}
	if got := len(svc.List()); got != 1 {
		t.Fatalf("%d sweeps registered after deduped resubmissions, want 1", got)
	}
	sw, _ := svc.Sweep(ack1.ID)
	waitSweep(t, sw)
}

// TestHTTPClosedSendsRetryAfter: once the service enters its drain
// window, submissions are refused 503 with a Retry-After derived from
// the remaining drain deadline — not a bare connection error.
func TestHTTPClosedSendsRetryAfter(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	svc.CloseDraining(10 * time.Second)
	resp, _ := postSweepRaw(t, srv.URL, smallSubmit("late", 9), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After header %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra < 1 || ra > 11 {
		t.Fatalf("Retry-After = %d, want within the 10s drain window (+1)", ra)
	}
}

// TestNewSweepIDCollisionFree pins the id shape: "sw-" + hex time +
// random suffix, valid for both the journal alphabet and route
// normalization, and unique across rapid minting.
func TestNewSweepIDCollisionFree(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := newID("sw")
		if !strings.HasPrefix(id, "sw-") || !store.ValidSweepID(id) {
			t.Fatalf("minted invalid sweep id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate sweep id %q after %d mints", id, i)
		}
		seen[id] = true
	}
}
