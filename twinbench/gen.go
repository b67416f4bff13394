package main

import (
	"hash/fnv"
	"math/rand"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/service"
)

// Every input the program receives is drawn here from the workload
// seed. Each purpose gets its own stream, so adding draws to one stream
// never shifts another.

// stream returns the deterministic random stream for one purpose of
// one seed.
func stream(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// seedStream hands out distinct generator seeds; a scenario's content
// (and so its cache key) is fixed by its generator seed.
type seedStream struct{ rng *rand.Rand }

func newSeedStream(seed int64, purpose string) *seedStream {
	return &seedStream{rng: stream(seed, purpose)}
}

func (s *seedStream) next() int64 { return s.rng.Int63() }

func generator(genSeed int64) job.GeneratorConfig {
	g := job.DefaultGeneratorConfig()
	g.Seed = genSeed
	return g
}

// uncooledDay is one 24 h synthetic Frontier day on the event engine
// with the telemetry export kept: the paper's replay path.
func uncooledDay(genSeed int64) core.Scenario {
	return core.Scenario{
		Name: "day", Workload: core.WorkloadSynthetic,
		HorizonSec: 86400, TickSec: 15, Engine: "event",
		Generator: generator(genSeed),
	}
}

// coolingVariants are the four plants a cooled-plant sweep mixes: the
// hand-calibrated frontier preset and the AutoCSM-synthesized plant,
// each under the fixed RK4 and the adaptive solver.
var coolingVariants = func() []config.CoolingSpec {
	preset := config.Frontier().Cooling
	adaptive := preset
	adaptive.Solver = "adaptive"
	auto := preset
	auto.Preset = ""
	autoAdaptive := auto
	autoAdaptive.Solver = "adaptive"
	return []config.CoolingSpec{preset, adaptive, auto, autoAdaptive}
}()

// coolingWetBulbC fixes the outdoor wet bulb of every cooled window.
const coolingWetBulbC = 20

// cooledWindow is one 3 h window of the coupled twin on plant variant
// v. Windows are 3 h rather than the 6 h of the reference sweeps so a
// run holds enough sweeps (about 20) for its median and tail.
func cooledWindow(genSeed int64, v int) core.Scenario {
	cs := coolingVariants[v%len(coolingVariants)]
	return core.Scenario{
		Name: "cooled", Workload: core.WorkloadSynthetic,
		HorizonSec: 3 * 3600, TickSec: 15,
		Generator: generator(genSeed), CoolingSpec: &cs, Cooling: true,
		WetBulbC: coolingWetBulbC, NoExport: true,
	}
}

// serveRequest is one 1 h uncooled scenario in its HTTP wire form, with
// the HTTP defaults (no export, no history).
func serveRequest(genSeed int64) service.ScenarioRequest {
	g := generator(genSeed)
	return service.ScenarioRequest{
		Name: "serve", Workload: string(core.WorkloadSynthetic),
		HorizonSec: 3600, TickSec: 15, Generator: &g,
	}
}

// serveScenario is serveRequest as the service sees it after decoding,
// so set-up and HTTP clients address the same cache keys.
func serveScenario(genSeed int64) core.Scenario {
	r := serveRequest(genSeed)
	return r.Scenario()
}

// restartWindow is one 6 h uncooled window, report only: the
// interrupted sweep of the serve-mix and co-design set-ups. Their own
// scenarios take milliseconds, so a restart recomputing them would time
// little but the store's fsyncs, whose latency drifts with the host's
// disk; 6 h windows make the recompute the larger part.
func restartWindow(genSeed int64) core.Scenario {
	return core.Scenario{
		Name: "restart", Workload: core.WorkloadSynthetic,
		HorizonSec: 6 * 3600, TickSec: 15,
		Generator: generator(genSeed), NoExport: true, NoHistory: true,
	}
}

// studyBase is the base scenario of one co-design study: 30 minutes of
// synthetic load, report only.
func studyBase(genSeed int64) core.Scenario {
	return core.Scenario{
		Name: "study", Workload: core.WorkloadSynthetic,
		HorizonSec: 1800, TickSec: 15,
		Generator: generator(genSeed), NoExport: true, NoHistory: true,
	}
}

// Key kinds of the serve-mix stream.
const (
	keyMemory = iota // already in the coordinator's memory cache
	keyDisk          // persisted by an earlier service instance only
	keyNew           // never seen
)

// Serve-mix key shares: mostly memory, some disk, a minority new.
const (
	memoryShare = 0.85
	diskShare   = 0.05
)

// durableShare is the share of serve-mix requests that ask for a
// journaled sweep; the rest are ephemeral. Each journaled request pays
// three to four serial fsyncs, whose latency on a shared virtual disk
// drifts several-fold over minutes; journaling every request made the
// serve-mix median track the host's disk rather than the service.
const durableShare = 0.25

// keyDraw picks the kind of the next serve-mix key.
func keyDraw(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < memoryShare:
		return keyMemory
	case u < memoryShare+diskShare:
		return keyDisk
	default:
		return keyNew
	}
}
