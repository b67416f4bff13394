// Command experiments regenerates every table and figure of the paper's
// evaluation (§IV): Tables I-IV, Figs. 4 and 7-9, and the two §IV-3
// what-if studies. Each experiment prints in the paper's format, next
// to the published values where the paper gives them.
//
// Usage:
//
//	experiments [-run all|tableI,tableII,tableIII,tableIV,fig4,fig7,fig8,fig9,smartrect,dc380,expansion,weather,engine,ablation]
//	            [-days 183] [-seed 42] [-fig7-hours 24] [-fig9-hours 24]
//
// Ids are case-insensitive. An unknown id exits with status 2 and lists
// the valid ones.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"exadigit/internal/exp"
)

var (
	days       = flag.Int("days", 183, "days for the Table IV / what-if studies")
	seed       = flag.Int64("seed", 42, "study random seed")
	fig7Hours  = flag.Float64("fig7-hours", 24, "Fig. 7 validation window")
	fig9Hours  = flag.Float64("fig9-hours", 24, "Fig. 9 replay window")
	whatIfDays = flag.Int("whatif-days", 14, "days for the what-if studies")
	workers    = flag.Int("workers", 0, "parallel day simulations (0 = all CPUs)")
	runIDs     = flag.String("run", "all", "comma-separated experiment ids ("+validIDs()+") or 'all'")
)

// experiment is one -run id and the tables it prints.
type experiment struct {
	id  string
	run func() ([]*exp.Table, error)
}

// experiments is the set of valid -run ids, in the order they run.
var experiments = []experiment{
	{"tableI", func() ([]*exp.Table, error) { return []*exp.Table{exp.TableI()}, nil }},
	{"tableII", func() ([]*exp.Table, error) { return table(exp.TableII()) }},
	{"tableIII", func() ([]*exp.Table, error) { return tableOf(exp.TableIII()) }},
	{"tableIV", func() ([]*exp.Table, error) {
		return tableOf(exp.TableIV(exp.DailyConfig{Days: *days, Seed: *seed, Workers: *workers}))
	}},
	{"fig4", func() ([]*exp.Table, error) {
		t, _ := exp.Fig4()
		return []*exp.Table{t}, nil
	}},
	{"fig7", func() ([]*exp.Table, error) {
		return tableOf(exp.Fig7(exp.Fig7Config{HorizonSec: *fig7Hours * 3600, Seed: *seed}))
	}},
	{"fig8", func() ([]*exp.Table, error) { return tableOf(exp.Fig8(3600)) }},
	{"fig9", func() ([]*exp.Table, error) {
		return tableOf(exp.Fig9(exp.Fig9Config{Seed: *seed, HorizonSec: *fig9Hours * 3600}))
	}},
	{"smartrect", func() ([]*exp.Table, error) { return tableOf(exp.SmartRectifier(*whatIfDays, *seed)) }},
	{"dc380", func() ([]*exp.Table, error) { return tableOf(exp.DC380(*whatIfDays, *seed)) }},
	{"expansion", func() ([]*exp.Table, error) { return tableOf(exp.VirtualExpansion(8, nil, 33.0)) }},
	{"weather", func() ([]*exp.Table, error) { return tableOf(exp.WeatherCorrelation(3, *seed)) }},
	{"engine", func() ([]*exp.Table, error) { return tableOf(exp.EngineComparison(*seed)) }},
	{"ablation", func() ([]*exp.Table, error) {
		controlDt, err := exp.AblationControlDt(nil)
		if err != nil {
			return nil, err
		}
		tick, _, err := exp.AblationTick(0, *seed)
		if err != nil {
			return nil, err
		}
		coolingCost, _, err := exp.AblationCoolingCost(0, *seed)
		if err != nil {
			return nil, err
		}
		schedulers, _, err := exp.AblationSchedulers(0, *seed)
		if err != nil {
			return nil, err
		}
		return []*exp.Table{controlDt, tick, coolingCost, schedulers}, nil
	}},
}

func table(t *exp.Table, err error) ([]*exp.Table, error) { return []*exp.Table{t}, err }

// tableOf keeps an experiment's printable table and drops its raw data.
func tableOf[D any](t *exp.Table, _ D, err error) ([]*exp.Table, error) { return table(t, err) }

func validIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ", ")
}

// selectExperiments resolves a comma-separated, case-insensitive -run
// list ("all" selects every experiment) to table entries in table order.
// It rejects the whole list if any id is unknown.
func selectExperiments(list string) ([]experiment, error) {
	ids := strings.Split(list, ",")
	want := map[string]bool{}
	for i, id := range ids {
		ids[i] = strings.ToLower(strings.TrimSpace(id))
		want[ids[i]] = true
	}
	known := map[string]bool{"all": true}
	var out []experiment
	for _, e := range experiments {
		id := strings.ToLower(e.id)
		known[id] = true
		if want[id] || want["all"] {
			out = append(out, e)
		}
	}
	for _, id := range ids {
		if !known[id] {
			return nil, fmt.Errorf("unknown -run id %q; valid ids: all, %s", id, validIDs())
		}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	flag.Parse()

	selected, err := selectExperiments(*runIDs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, e := range selected {
		start := time.Now()
		tables, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}
