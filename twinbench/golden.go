package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"exadigit/internal/config"
	"exadigit/internal/core"
)

// Golden coverage: more stream scenarios and studies than a traced run
// at the default length consumes on a 2-CPU machine.
const (
	goldenColdDays      = 256
	goldenCooledWindows = 128
	goldenStudies       = 128
)

// regenerateGolden recomputes the default-seed digests. The sweep
// streams run through core.RunBatch, not the sweep service, so the
// golden file also pins the service to the twin's direct results.
func regenerateGolden(path string) error {
	spec := config.Frontier()
	var g goldenFile
	for _, s := range []struct {
		name   string
		n      int
		build  func(int64, int) core.Scenario
		digest *[]string
	}{
		{"cold-replay", goldenColdDays, func(s int64, _ int) core.Scenario { return uncooledDay(s) }, &g.ColdReplay},
		{"cooled-plant", goldenCooledWindows, cooledWindow, &g.CooledPlant},
	} {
		seeds := newSeedStream(defaultSeed, s.name)
		scs := make([]core.Scenario, s.n)
		for i := range scs {
			scs[i] = s.build(seeds.next(), i)
			scs[i].NoExport = true
		}
		res, err := core.RunBatch(spec, scs, runtime.NumCPU())
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, r := range res {
			*s.digest = append(*s.digest, digest(r.Report))
		}
	}
	e := &env{seed: defaultSeed, workers: runtime.NumCPU(), spec: spec}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := newStudy(e, dir, false)
	if err != nil {
		return err
	}
	defer st.close()
	for i := 0; i < goldenStudies; i++ {
		spec := studySpec(st.seeds.next(), false)
		base := studyBase(st.seeds.next())
		res, err := st.study(context.Background(), spec, base)
		if err != nil {
			return fmt.Errorf("study %d: %w", i, err)
		}
		g.StudyBest = append(g.StudyBest, res.Best.Objectives["energy_mwh"])
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
