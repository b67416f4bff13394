package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	ids := func(es []experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.id)
		}
		return strings.Join(out, ",")
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d of %d experiments, err %v", len(all), len(experiments), err)
	}
	// Case-insensitive, whitespace-tolerant, and run in table order.
	got, err := selectExperiments(" FIG4,tablei ")
	if err != nil || ids(got) != "tableI,fig4" {
		t.Fatalf("selected %q, err %v", ids(got), err)
	}
	for _, bad := range []string{"fig10", "tableI,bogus", ""} {
		if got, err := selectExperiments(bad); err == nil {
			t.Errorf("-run %q selected %q, want an unknown-id error", bad, ids(got))
		}
	}
}
