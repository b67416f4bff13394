package service

// The job lifecycle sweeps and studies share: id minting, the retained
// registry, and the change broadcast behind the /stream endpoints.

import (
	cryptorand "crypto/rand"
	"fmt"
	"sync"
	"time"
)

// tracked is what a registry holds: a Sweep or a Study.
type tracked interface {
	ID() string
	Done() <-chan struct{}
	Cancel()
	changed() <-chan struct{}
	// pinned estimates the resident bytes of the results j holds, and
	// reports whether a reader has taken them whole since j finished.
	pinned() (bytes int64, read bool)
}

// finished reports whether j has reached a terminal state.
func finished(j tracked) bool {
	select {
	case <-j.Done():
		return true
	default:
		return false
	}
}

// newID mints a collision-free job id: prefix + "-" + the submission
// instant in hex nanoseconds + "-" + a random suffix. Ids from different
// processes (or the same store directory across restarts) cannot
// collide, which the durable journal requires, since a recovered sweep
// keeps its id. The alphabet stays within what httpmw.RouteLabel
// normalizes and store.ValidSweepID accepts.
func newID(prefix string) string {
	var b [4]byte
	_, _ = cryptorand.Read(b[:])
	return fmt.Sprintf("%s-%x-%x", prefix, time.Now().UnixNano(), b)
}

// registry indexes sweeps or studies by id in submission order. Past
// max entries, or past maxBytes of results pinned by its finished
// entries, add drops the oldest finished ones, so a long-running
// server's memory stays bounded. It never drops a running entry, whose
// results count against the result cache instead, nor, for the byte
// bound, a finished one whose results nobody has read yet: a client that
// submits and then fetches or streams must find its sweep. Callers hold
// Service.mu.
type registry[J tracked] struct {
	max      int
	maxBytes int64 // bound on Σ pinned over finished entries
	byID     map[string]J
	order    []string // ids, oldest first
}

func newRegistry[J tracked](max int, maxBytes int64) registry[J] {
	return registry[J]{max: max, maxBytes: maxBytes, byID: make(map[string]J)}
}

func (r *registry[J]) get(id string) (J, bool) {
	j, ok := r.byID[id]
	return j, ok
}

// add registers j and returns the finished jobs it pruned.
func (r *registry[J]) add(j J) (pruned []J) {
	r.byID[j.ID()] = j
	r.order = append(r.order, j.ID())
	excess := len(r.order) - r.max
	done := make([]bool, len(r.order)) // snapshot: a job may finish meanwhile
	var bytes int64
	for i, id := range r.order {
		if done[i] = finished(r.byID[id]); done[i] {
			b, _ := r.byID[id].pinned()
			bytes += b
		}
	}
	if excess <= 0 && bytes <= r.maxBytes {
		return nil
	}
	kept := r.order[:0]
	for i, id := range r.order {
		old := r.byID[id]
		b, read := old.pinned()
		if done[i] && (excess > 0 || (bytes > r.maxBytes && read)) {
			delete(r.byID, id)
			pruned = append(pruned, old)
			excess--
			bytes -= b
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
	return pruned
}

func (r *registry[J]) remove(id string) {
	delete(r.byID, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// list returns the jobs in submission order.
func (r *registry[J]) list() []J {
	out := make([]J, len(r.order))
	for i, id := range r.order {
		out[i] = r.byID[id]
	}
	return out
}

// changes guards a job's mutable state and broadcasts every change:
// update closes the channel changed handed out, waking each waiter.
type changes struct {
	mu     sync.Mutex
	notify chan struct{} // nil until someone waits
}

// changed returns a channel closed at the next update.
func (c *changes) changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.notify == nil {
		c.notify = make(chan struct{})
	}
	return c.notify
}

// update applies mutate under the lock and wakes every waiter.
func (c *changes) update(mutate func()) {
	c.mu.Lock()
	mutate()
	if c.notify != nil {
		close(c.notify)
		c.notify = nil
	}
	c.mu.Unlock()
}
