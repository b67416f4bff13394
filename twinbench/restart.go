package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/service"
	"exadigit/internal/store"
)

// interruptedSweep is the sweep set-up leaves behind as a crashed
// process would: its journal holds the manifest but no terminal record
// and no end trailer. Every result reached the store, but the restart
// copies leave out the entries of the first lost scenarios, as if the
// crash came before they were persisted, so recovery recomputes those
// and serves the rest from disk.
type interruptedSweep struct {
	id        string
	scenarios []core.Scenario
	lost      map[string]bool // entry paths, relative to the store dir
	want      []*raps.Report  // each scenario's report when first computed
}

// leaveInterrupted runs scenarios through a service over st with the
// journal detached right after admission, as the chaos test's killed
// coordinator does. The sweep itself completes, so its reports are
// known; the journal stays incomplete.
func leaveInterrupted(ctx context.Context, e *env, st *store.Store, scenarios []core.Scenario, lost int) (*interruptedSweep, error) {
	svc := service.New(service.Options{Workers: e.workers, Store: st})
	defer shutdown(svc)
	sw, err := svc.Submit(e.spec, scenarios, service.SweepOptions{Name: "interrupted"})
	if err != nil {
		return nil, err
	}
	sw.DetachJournal()
	if err := sw.Wait(ctx); err != nil {
		return nil, err
	}
	if s := sw.Status(); s.Done != len(scenarios) {
		return nil, fmt.Errorf("interrupted sweep: %d of %d done", s.Done, len(scenarios))
	}
	it := &interruptedSweep{id: sw.ID(), scenarios: scenarios, lost: map[string]bool{}}
	for _, res := range sw.Results() {
		it.want = append(it.want, res.Report)
	}
	for _, h := range sw.ScenarioHashes()[:lost] {
		rel, err := filepath.Rel(st.Dir(), st.EntryPath(sw.SpecHash(), h))
		if err != nil {
			return nil, err
		}
		it.lost[rel] = true
	}
	return it, nil
}

// measureRestart times one restart over a copy of the store directory:
// OpenResultStore + NewSweepService + Recover until the re-adopted
// sweep reports done. The recovered reports must be bit-identical to
// the ones first computed.
func measureRestart(ctx context.Context, e *env, src, dst string, it *interruptedSweep, l *layerSet) (float64, error) {
	defer os.RemoveAll(dst)
	if err := copyTree(src, dst, it.lost); err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := store.Open(dst)
	if err != nil {
		return 0, err
	}
	tOpen := time.Now()
	svc := service.New(service.Options{Workers: e.workers, Store: st})
	defer shutdown(svc)
	tRec := time.Now()
	stats, err := svc.Recover()
	if err != nil {
		return 0, err
	}
	recovered := time.Since(tRec).Seconds()
	sw, ok := svc.Sweep(it.id)
	if !ok || stats.Adopted != 1 {
		return 0, fmt.Errorf("restart re-adopted %d sweeps, interrupted sweep found: %v", stats.Adopted, ok)
	}
	if err := sw.Wait(ctx); err != nil {
		return 0, err
	}
	sec := time.Since(t0).Seconds()
	l.sample("store.open_s", "s", 1, tOpen.Sub(t0).Seconds())
	l.sample("service.recover_s", "s", 1, recovered)
	for i, res := range sw.Results() {
		if res == nil || !sameReport(res.Report, it.want[i]) {
			return sec, fmt.Errorf("restart: scenario %d report differs from the one first computed", i)
		}
	}
	return sec, nil
}

// copyTree copies the regular files under src to dst, skipping the
// relative paths in skip.
func copyTree(src, dst string, skip map[string]bool) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case info.IsDir():
			return os.MkdirAll(target, 0o755)
		case !info.Mode().IsRegular() || skip[rel]:
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// shutdown stops a service the way a server does: refuse new work,
// cancel what runs, and wait until every sweep and study has ended.
func shutdown(svc *service.Service) {
	svc.Close()
	svc.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = svc.Drain(ctx) // cancelled sweeps end at their next tick; a timeout leaves nothing to do
}
