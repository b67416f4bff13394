package store

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"exadigit/internal/core"
)

const (
	leaseSpec = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	leaseScen = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
)

func TestLeaseAcquireHoldRelease(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.AcquireLease(leaseSpec, leaseScen, "node-a", time.Minute)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// A second owner is refused while the lease is live.
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "node-b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second owner got %v, want ErrLeaseHeld", err)
	}
	// Re-entrant acquire by the holder renews instead of refusing.
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "node-a", time.Minute); err != nil {
		t.Fatalf("re-entrant acquire: %v", err)
	}
	l.Release()
	// Released: anyone can claim.
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "node-b", time.Minute); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	m := s.Stats()
	if m.LeasesAcquired < 2 || m.LeaseWaits != 1 {
		t.Fatalf("lease metrics %+v", m)
	}
}

func TestLeaseStealOnExpiry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "dead-node", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	l, err := s.AcquireLease(leaseSpec, leaseScen, "survivor", time.Minute)
	if err != nil {
		t.Fatalf("steal of expired lease failed: %v", err)
	}
	if m := s.Stats(); m.LeaseSteals != 1 {
		t.Fatalf("steals = %d, want 1 (%+v)", m.LeaseSteals, m)
	}
	// The dead node's handle can no longer renew or release the lease.
	dead := &Lease{s: s, path: l.path, owner: "dead-node"}
	if err := dead.Renew(time.Minute); err == nil {
		t.Fatal("dead node renewed a stolen lease")
	}
	dead.Release()
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "third", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("stolen lease not held after dead-node Release: %v", err)
	}
}

// TestLeaseConcurrentStealSingleWinner drives N goroutines at one
// expired lease; exactly one must win each round (the others see
// ErrLeaseHeld from the winner's fresh lease or lose the tombstone
// race and retry internally).
func TestLeaseConcurrentStealSingleWinner(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if _, err := s.AcquireLease(leaseSpec, leaseScen, "dead", time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		var mu sync.Mutex
		winners := 0
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				l, err := s.AcquireLease(leaseSpec, leaseScen, string(rune('a'+g))+"-stealer", time.Minute)
				if err == nil {
					mu.Lock()
					winners++
					mu.Unlock()
					_ = l
				} else if !errors.Is(err, ErrLeaseHeld) {
					t.Errorf("stealer %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		if winners != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, winners)
		}
		// Clean the slate for the next round.
		_ = os.Remove(s.EntryPath(leaseSpec, leaseScen) + leaseSuffix)
	}
}

// TestOpenSweepsStaleLeases: a long-expired lease file is collected at
// startup; a live one survives.
func TestOpenSweepsStaleLeases(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireLease(leaseSpec, leaseScen, "live", time.Hour); err != nil {
		t.Fatal(err)
	}
	stale := s.EntryPath(leaseSpec, "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc") + leaseSuffix
	if err := overwriteLease(stale, "long-dead", -2*staleLeaseAge); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale lease survived the startup sweep")
	}
	live := s.EntryPath(leaseSpec, leaseScen) + leaseSuffix
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("live lease was swept: %v", err)
	}
	_ = s2
}

// TestGetOrLeaseProtocol pins the one-call lease protocol: a waiter is
// served the holder's Put, a renewing holder keeps its lease past one
// TTL, an expired holder's lease is stolen, and a waiter's context ends
// its wait.
func TestGetOrLeaseProtocol(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ttl = 300 * time.Millisecond
	res, holder, err := s.GetOrLease(ctx, leaseSpec, leaseScen, "holder", ttl)
	if res != nil || holder == nil || err != nil {
		t.Fatalf("first caller got (%v, %v, %v), want the lease", res, holder, err)
	}

	type outcome struct {
		res   *core.Result
		lease *Lease
		err   error
	}
	waiter := make(chan outcome, 1)
	go func() {
		r, l, err := s.GetOrLease(ctx, leaseSpec, leaseScen, "waiter", ttl)
		waiter <- outcome{r, l, err}
	}()
	// Two TTLs: only the holder's renewal keeps its lease live this long.
	time.Sleep(2 * ttl)
	select {
	case o := <-waiter:
		t.Fatalf("waiter returned %+v while the holder was computing", o)
	default:
	}
	if m := s.Stats(); m.LeaseSteals != 0 {
		t.Fatalf("renewed lease was stolen: %+v", m)
	}
	want := sampleResult()
	if err := s.Put(leaseSpec, leaseScen, want); err != nil {
		t.Fatal(err)
	}
	holder.Release()
	select {
	case o := <-waiter:
		if o.err != nil || o.lease != nil || o.res == nil {
			t.Fatalf("waiter got (%v, %v, %v), want the holder's result", o.res, o.lease, o.err)
		}
		if !reflect.DeepEqual(o.res.Report, want.Report) {
			t.Fatalf("waiter served %+v, want %+v", o.res.Report, want.Report)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never saw the holder's Put")
	}

	// A holder that stops renewing (AcquireLease alone) loses the key
	// once its TTL passes.
	scen := strings.Repeat("c", 64)
	if _, err := s.AcquireLease(leaseSpec, scen, "dead", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	res, stolen, err := s.GetOrLease(ctx, leaseSpec, scen, "survivor", ttl)
	if res != nil || stolen == nil || err != nil {
		t.Fatalf("survivor got (%v, %v, %v), want the stolen lease", res, stolen, err)
	}
	defer stolen.Release()
	if m := s.Stats(); m.LeaseSteals != 1 {
		t.Fatalf("steals = %d, want 1", m.LeaseSteals)
	}

	// A waiter whose context ends gives up with the context's error.
	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if res, l, err := s.GetOrLease(cctx, leaseSpec, scen, "impatient", ttl); res != nil || l != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter got (%v, %v, %v), want the deadline", res, l, err)
	}
}
