// Package store is the durable, content-addressed scenario-result store
// behind the sweep service — the persistence tier that lets a killed and
// restarted `exadigit serve` re-serve a finished sweep from disk instead
// of recomputing it (ROADMAP item 1's restart-survival requirement).
//
// Each completed scenario result is one NDJSON file keyed by the same
// (spec hash, scenario hash) pair the in-memory result cache uses, laid
// out as dir/<spec-hash>/<scenario-hash>.ndjson:
//
//	{"type":"result","spec_hash":"…","scenario_hash":"…","name":"…","wall_sec":1.2,"report":{…}}
//	{"type":"sample",…}        // one per retained history sample
//	{"type":"meta",…}          // telemetry stream lines (when the result
//	{"type":"series",…}        // carries a Dataset export), in the same
//	{"type":"job",…}           // NDJSON format internal/telemetry streams
//	{"type":"end"}
//
// Entries are written atomically (temp file in the same directory, fsync,
// rename), and the trailing end line makes truncation detectable: Open
// rebuilds the index on startup and quarantines any entry whose trailer
// is missing (renaming it aside as <file>.corrupt), and Get quarantines
// entries that fail to decode at read time. The store never returns a
// partially written result.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/telemetry"
)

// Sentinel errors.
var (
	// ErrNotFound reports a key with no durable entry.
	ErrNotFound = errors.New("store: entry not found")
	// ErrCorrupt reports an entry that existed but failed integrity
	// checks; the offending file has been quarantined.
	ErrCorrupt = errors.New("store: entry corrupt")
)

// entrySuffix is the durable entry file extension; quarantineSuffix is
// appended (after entrySuffix) when an entry fails integrity checks.
const (
	entrySuffix      = ".ndjson"
	quarantineSuffix = ".corrupt"
)

// endLine is the integrity trailer every complete entry ends with.
var endLine = []byte(`{"type":"end"}`)

// Store is a durable scenario-result store rooted at one directory. All
// methods are safe for concurrent use. The store does not bound its disk
// usage — operators manage the directory like any other data dir (every
// entry is independently deletable; a deleted entry is simply recomputed
// on next demand).
type Store struct {
	dir string

	// leaseMu serializes AcquireLease within this process (lease.go);
	// it is never held together with mu.
	leaseMu sync.Mutex

	mu      sync.Mutex
	index   map[string]int64 // "spec/scen" → entry size in bytes
	bytes   int64
	hits    uint64
	misses  uint64
	puts    uint64
	putErrs uint64
	corrupt uint64 // entries quarantined (startup scan + read-time)

	// Quarantine aging and cross-node lease accounting.
	quarantinePurged uint64 // aged-out *.corrupt files deleted at Open
	leaseAcquired    uint64 // leases successfully claimed (incl. steals)
	leaseWaits       uint64 // acquires refused because a live owner held the key
	leaseSteals      uint64 // expired/unreadable leases taken over

	// Sweep-journal accounting (journal.go).
	journalCreates uint64 // manifests durably written
	journalAppends uint64 // scenario/end records durably appended
	journalErrs    uint64 // journal I/O failures (degraded to in-memory)
}

// Options configures Open behavior beyond the directory itself.
type Options struct {
	// QuarantineTTL ages out quarantined entries: at Open, *.corrupt
	// files older than this are deleted (they were kept for forensics;
	// past the TTL they are just dead bytes). 0 keeps quarantine files
	// forever — the pre-TTL behavior.
	QuarantineTTL time.Duration
}

// Metrics is a point-in-time copy of the store's counters (exported on
// /metrics as the exadigit_store_* families).
type Metrics struct {
	Hits               uint64
	Misses             uint64
	Puts               uint64
	PutErrors          uint64
	CorruptQuarantined uint64
	// QuarantinePurged counts quarantine files aged out by the startup
	// sweep (Options.QuarantineTTL).
	QuarantinePurged uint64
	// Lease accounting for the cross-node single-flight protocol.
	LeasesAcquired uint64
	LeaseWaits     uint64
	LeaseSteals    uint64
	// Sweep-journal accounting: manifests written, records appended,
	// and I/O failures that degraded journaling to in-memory-only.
	JournalCreates uint64
	JournalAppends uint64
	JournalErrors  uint64
	Entries        int
	Bytes          int64
}

// Open roots a store at dir (created if missing) and rebuilds the index
// by scanning existing entries. Entries without the integrity trailer —
// e.g. a process killed mid-write before the atomic rename, or a file
// truncated by the filesystem — are quarantined, not served.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with startup-sweep configuration: quarantined
// entries older than Options.QuarantineTTL are deleted, and long-dead
// lease files (expired past any plausible TTL) are collected.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]int64)}
	specs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	now := time.Now()
	for _, sd := range specs {
		if !sd.IsDir() || !validKey(sd.Name()) {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, sd.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				continue
			}
			path := filepath.Join(dir, sd.Name(), name)
			if !strings.HasSuffix(name, entrySuffix) {
				s.sweepSidecar(path, name, now, opts)
				continue
			}
			scen := strings.TrimSuffix(name, entrySuffix)
			if !validKey(scen) {
				continue
			}
			size, ok := checkTrailer(path)
			if !ok {
				s.quarantine(path)
				s.corrupt++
				continue
			}
			s.index[sd.Name()+"/"+scen] = size
			s.bytes += size
		}
	}
	return s, nil
}

// sweepSidecar handles the non-entry files the startup scan walks past:
// quarantined entries past their TTL are deleted (they were kept for
// forensics and nobody came), lease files expired by a generous margin
// are junk from dead processes (live stealers handle freshly expired
// leases themselves — the margin guarantees no live holder or stealer
// is racing this removal), and orphaned lease tombstones from a crash
// mid-steal are collected on the same schedule.
func (s *Store) sweepSidecar(path, name string, now time.Time, opts Options) {
	switch {
	case strings.HasSuffix(name, quarantineSuffix):
		if opts.QuarantineTTL <= 0 {
			return
		}
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > opts.QuarantineTTL {
			if os.Remove(path) == nil {
				s.quarantinePurged++
			}
		}
	case strings.HasSuffix(name, leaseSuffix):
		if rec, err := readLease(path); err == nil {
			if now.Sub(time.Unix(0, rec.ExpiresUnixNano)) > staleLeaseAge {
				_ = os.Remove(path)
			}
			return
		}
		// Unreadable lease: fall back to file age.
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > staleLeaseAge {
			_ = os.Remove(path)
		}
	case strings.Contains(name, ".tomb-"):
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > staleLeaseAge {
			_ = os.Remove(path)
		}
	}
}

// specDirOf returns the per-spec subdirectory for a spec hash.
func specDirOf(dir, specHash string) string { return filepath.Join(dir, specHash) }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a point-in-time metrics snapshot.
func (s *Store) Stats() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Hits:               s.hits,
		Misses:             s.misses,
		Puts:               s.puts,
		PutErrors:          s.putErrs,
		CorruptQuarantined: s.corrupt,
		QuarantinePurged:   s.quarantinePurged,
		LeasesAcquired:     s.leaseAcquired,
		LeaseWaits:         s.leaseWaits,
		LeaseSteals:        s.leaseSteals,
		JournalCreates:     s.journalCreates,
		JournalAppends:     s.journalAppends,
		JournalErrors:      s.journalErrs,
		Entries:            len(s.index),
		Bytes:              s.bytes,
	}
}

// EntryPath returns where the entry for (specHash, scenHash) lives —
// exposed for the fault-injection harness (chaos tests corrupt or
// truncate entries in place) and for operators inspecting the store.
func (s *Store) EntryPath(specHash, scenHash string) string {
	return filepath.Join(s.dir, specHash, scenHash+entrySuffix)
}

// validKey accepts lowercase-hex content hashes only, which both spec
// and scenario hashes are. Anything else (path separators, dotfiles,
// quarantined names) is rejected before touching the filesystem.
func validKey(k string) bool {
	if k == "" {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkTrailer reports the file's size and whether it ends with the
// integrity trailer — the cheap startup check (a tail read, not a full
// parse) that catches truncation.
func checkTrailer(path string) (int64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false
	}
	size := fi.Size()
	n := int64(len(endLine) + 2) // trailer + up to \r\n
	if n > size {
		return size, false
	}
	tail := make([]byte, n)
	if _, err := f.ReadAt(tail, size-n); err != nil {
		return size, false
	}
	return size, bytes.HasSuffix(bytes.TrimRight(tail, "\r\n"), endLine)
}

// quarantine renames a failed entry aside so it is never served again
// but stays on disk for forensics. Rename failures fall back to removal.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		_ = os.Remove(path)
	}
}

// resultLine is the entry header: identity, the end-of-run report, and
// the scalar result fields. History samples and the telemetry dataset
// follow as their own lines so multi-megabyte exports stream instead of
// materializing one giant JSON value.
type resultLine struct {
	Type         string       `json:"type"`
	SpecHash     string       `json:"spec_hash"`
	ScenarioHash string       `json:"scenario_hash"`
	Name         string       `json:"name,omitempty"`
	WallSec      float64      `json:"wall_sec"`
	Report       *raps.Report `json:"report,omitempty"`
}

// sampleLine is one retained history sample.
type sampleLine struct {
	Type string `json:"type"`
	raps.Sample
}

// Put durably persists a completed result under (specHash, scenHash),
// atomically: the entry is visible in full or not at all. The persisted
// form carries the report, history, wall time, and telemetry export;
// the originating Scenario struct is not persisted (the content hash is
// the scenario's durable identity), so results served from disk carry
// only the scenario name.
func (s *Store) Put(specHash, scenHash string, res *core.Result) error {
	err := s.put(specHash, scenHash, res)
	s.mu.Lock()
	if err != nil {
		s.putErrs++
	} else {
		s.puts++
	}
	s.mu.Unlock()
	return err
}

func (s *Store) put(specHash, scenHash string, res *core.Result) error {
	if !validKey(specHash) || !validKey(scenHash) {
		return fmt.Errorf("store: put: invalid key %q/%q", specHash, scenHash)
	}
	if res == nil {
		return fmt.Errorf("store: put: nil result")
	}
	specDir := filepath.Join(s.dir, specHash)
	if err := os.MkdirAll(specDir, 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	tmp, err := os.CreateTemp(specDir, "."+scenHash+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err := writeEntry(bw, specHash, scenHash, res); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", specHash, scenHash, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	fi, err := tmp.Stat()
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	size := fi.Size()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	path := s.EntryPath(specHash, scenHash)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	tmp = nil // renamed away; skip the cleanup defer

	key := specHash + "/" + scenHash
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes -= old
	}
	s.index[key] = size
	s.bytes += size
	s.mu.Unlock()
	return nil
}

func writeEntry(w io.Writer, specHash, scenHash string, res *core.Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(resultLine{
		Type:         "result",
		SpecHash:     specHash,
		ScenarioHash: scenHash,
		Name:         res.Scenario.Name,
		WallSec:      res.WallSec,
		Report:       res.Report,
	}); err != nil {
		return err
	}
	for i := range res.History {
		if err := enc.Encode(sampleLine{Type: "sample", Sample: res.History[i]}); err != nil {
			return err
		}
	}
	if res.Dataset != nil {
		if err := telemetry.WriteStream(w, res.Dataset); err != nil {
			return err
		}
	}
	if _, err := w.Write(append(endLine, '\n')); err != nil {
		return err
	}
	return nil
}

// Get loads the durable result for (specHash, scenHash). A missing entry
// returns ErrNotFound; an entry that fails to decode — truncated past
// the startup check, bit-rotted, or hand-edited — is quarantined and
// returns ErrCorrupt. Both are misses to the caller: the scenario is
// simply recomputed (and re-persisted) by the sweep worker.
func (s *Store) Get(specHash, scenHash string) (*core.Result, error) {
	key := specHash + "/" + scenHash
	s.mu.Lock()
	size, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		// The index is a startup scan plus our own Puts — but when
		// several nodes share this directory (the distributed-sweep
		// deployment), a sibling may have persisted the key since. Probe
		// the disk before declaring a miss: Put renames are atomic, so a
		// visible file is a complete entry. One Stat per cold miss is
		// noise next to the recompute a false miss would cause — and the
		// cross-node lease protocol depends on waiters seeing the
		// holder's Put through exactly this path.
		var fi os.FileInfo
		var statErr error
		if validKey(specHash) && validKey(scenHash) {
			fi, statErr = os.Stat(s.EntryPath(specHash, scenHash))
		} else {
			statErr = ErrNotFound
		}
		if statErr != nil {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			return nil, ErrNotFound
		}
		size = fi.Size()
		s.mu.Lock()
		if _, dup := s.index[key]; !dup {
			s.index[key] = size
			s.bytes += size
		}
		s.mu.Unlock()
	}

	res, err := readEntry(s.EntryPath(specHash, scenHash), specHash, scenHash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.quarantine(s.EntryPath(specHash, scenHash))
		s.corrupt++
		s.misses++
		if _, ok := s.index[key]; ok {
			delete(s.index, key)
			s.bytes -= size
		}
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, specHash, scenHash, err)
	}
	s.hits++
	return res, nil
}

// readEntry decodes one entry file back into a Result. The NDJSON lines
// are free of ordering assumptions except that the result header must
// come first and the end trailer must be present (its absence is how
// truncation past the last complete line is caught).
func readEntry(path, specHash, scenHash string) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var res *core.Result
	var ds *telemetry.Dataset
	ended := false
	for line := 0; ; line++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if ended {
			return nil, fmt.Errorf("line %d: content after end trailer", line)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch probe.Type {
		case "result":
			var rl resultLine
			if err := json.Unmarshal(raw, &rl); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if line != 0 {
				return nil, fmt.Errorf("line %d: result header not first", line)
			}
			if rl.SpecHash != specHash || rl.ScenarioHash != scenHash {
				return nil, fmt.Errorf("line %d: entry is keyed %s/%s", line, rl.SpecHash, rl.ScenarioHash)
			}
			res = &core.Result{
				Scenario: core.Scenario{Name: rl.Name},
				Report:   rl.Report,
				WallSec:  rl.WallSec,
			}
		case "sample":
			if res == nil {
				return nil, fmt.Errorf("line %d: sample before result header", line)
			}
			var sl sampleLine
			if err := json.Unmarshal(raw, &sl); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			res.History = append(res.History, sl.Sample)
		case "meta":
			var m struct {
				Epoch       string  `json:"epoch"`
				SeriesDtSec float64 `json:"series_dt_sec"`
			}
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if ds == nil {
				ds = &telemetry.Dataset{}
			}
			ds.Epoch, ds.SeriesDtSec = m.Epoch, m.SeriesDtSec
		case "series":
			var p telemetry.SeriesPoint
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if ds == nil {
				ds = &telemetry.Dataset{}
			}
			ds.Series = append(ds.Series, p)
		case "job":
			var j telemetry.JobRecord
			if err := json.Unmarshal(raw, &j); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if ds == nil {
				ds = &telemetry.Dataset{}
			}
			ds.Jobs = append(ds.Jobs, j)
		case "end":
			ended = true
		default:
			return nil, fmt.Errorf("line %d: unknown type %q", line, probe.Type)
		}
	}
	if !ended {
		return nil, errors.New("missing end trailer (truncated entry)")
	}
	if res == nil {
		return nil, errors.New("missing result header")
	}
	res.Dataset = ds
	return res, nil
}
