package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/fmu"
	"exadigit/internal/power"
)

// CompiledSpec is a validated SystemSpec with its expensive derived
// artifacts — the per-mode power models and the cooling design —
// built once and shared read-only by every scenario run against it. A
// RunBatch worker or service sweep that rebuilds these per scenario pays
// the full 9472-node model assembly and 300+-variable model description
// walk each time; compiling once amortizes that across the whole sweep.
//
// All methods are safe for concurrent use; the cached artifacts are
// immutable once built (simulations read them but never write).
type CompiledSpec struct {
	spec config.SystemSpec
	hash string

	mu     sync.Mutex
	models map[string][]*power.Model // power-mode key → per-partition models

	coolMu      sync.Mutex
	coolDesigns map[string]*fmu.Design // resolved-plant content hash → compiled design
	coolOrder   []string               // design keys, oldest first, for eviction
}

// maxCoolingDesigns bounds the per-spec design cache: scenarios may
// carry arbitrary per-scenario cooling overrides over HTTP, so distinct
// plants must not pin designs forever. Evicted designs keep working for
// running simulations; a re-submission recompiles.
const maxCoolingDesigns = 32

// Compile validates the spec and wraps it for shared use. Power models
// and the cooling design are built lazily, on first demand per power
// mode, and cached for the lifetime of the CompiledSpec.
func Compile(spec config.SystemSpec) (*CompiledSpec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	return &CompiledSpec{
		spec:        spec,
		hash:        hash,
		models:      make(map[string][]*power.Model),
		coolDesigns: make(map[string]*fmu.Design),
	}, nil
}

// Spec returns a copy of the underlying system specification.
func (cs *CompiledSpec) Spec() config.SystemSpec { return cs.spec }

// Hash returns the spec's canonical content hash — the spec half of the
// (spec, scenario) result-cache key.
func (cs *CompiledSpec) Hash() string { return cs.hash }

// Models returns every partition's power model with the given power mode
// applied ("" keeps each partition's own mode), building them on first
// use and serving the shared instances afterwards. The returned slice is
// indexed like the spec's partitions and must be treated as read-only.
func (cs *CompiledSpec) Models(mode string) ([]*power.Model, error) {
	key := mode
	if key != "" {
		// An explicit mode that matches every partition's own mode is the
		// spec's default spelled out — share the default build.
		same := true
		for i := range cs.spec.Partitions {
			if cs.spec.Partitions[i].Power.Mode != mode {
				same = false
				break
			}
		}
		if same {
			key = ""
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ms, ok := cs.models[key]; ok {
		return ms, nil
	}
	ms := make([]*power.Model, len(cs.spec.Partitions))
	for i := range cs.spec.Partitions {
		part := cs.spec.Partitions[i]
		if mode != "" {
			part.Power.Mode = mode
		}
		m, err := part.BuildModel()
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	cs.models[key] = ms
	return ms, nil
}

// CoolingDesign returns the shared cooling design for the spec's own cooling
// plant, compiling it on first use. SystemSpec.Cooling is the single
// source of truth: a preset name resolves to its hand-calibrated plant
// (the default Frontier spec is bit-identical to the paper-validated
// model), anything else is synthesized by AutoCSM from the spec's design
// quantities.
func (cs *CompiledSpec) CoolingDesign() (*fmu.Design, error) {
	return cs.CoolingDesignFor(cs.spec.Cooling)
}

// CoolingDesignFor returns the shared cooling design for an arbitrary
// cooling spec — the path scenarios take when they override the system's
// plant, letting one sweep mix cooling variants against the same compute
// spec. A design is the validated plant configuration each run builds
// its coupled plant from, plus the FMI-style model description (the
// 317-output contract) that dashboards label outputs with; RAPS steps
// the plant directly, not through the description. The spec is resolved to a concrete plant first (one registry
// read) and the cache keyed by the resolved content, so a preset
// re-registered concurrently can never cache a design under another
// plant's hash; designs are compiled once per distinct plant and served
// from a bounded cache.
func (cs *CompiledSpec) CoolingDesignFor(spec config.CoolingSpec) (*fmu.Design, error) {
	cfg, err := autocsm.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	sum := sha256.Sum256(raw)
	key := hex.EncodeToString(sum[:])
	cs.coolMu.Lock()
	defer cs.coolMu.Unlock()
	if d, ok := cs.coolDesigns[key]; ok {
		return d, nil
	}
	// The simulation couples one heat input per topology CDU across all
	// partitions (each partition claims a contiguous loop range of the
	// shared plant), so the plant must expose at least the summed count;
	// catching it here gives submitters a clear error before any
	// scenario reaches raps.NewMulti's own guard inside a worker.
	topo := 0
	for i := range cs.spec.Partitions {
		topo += cs.spec.Partitions[i].NumCDUs
	}
	if cfg.NumCDUs < topo {
		return nil, fmt.Errorf("core: cooling design: plant has %d CDU loops but the spec's %d partition(s) couple %d",
			cfg.NumCDUs, len(cs.spec.Partitions), topo)
	}
	d, err := fmu.NewDesign(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: cooling design: %w", err)
	}
	cs.coolDesigns[key] = d
	cs.coolOrder = append(cs.coolOrder, key)
	for len(cs.coolOrder) > maxCoolingDesigns {
		delete(cs.coolDesigns, cs.coolOrder[0])
		cs.coolOrder = cs.coolOrder[1:]
	}
	return d, nil
}

// Twin returns a fresh Twin bound to the compiled spec. Twins are cheap
// (all heavy state is shared through the CompiledSpec) but not safe for
// concurrent use themselves — create one per worker.
func (cs *CompiledSpec) Twin() *Twin {
	return &Twin{Spec: cs.spec, compiled: cs}
}
