package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJournal: readJournal never panics on any file content, never
// returns more records than the input has scenario lines, never returns
// two records for one index, and a journal it accepts decodes to a fixed
// point — written back out line by line as the journal writer does and
// read again, it is the same entry. The seed corpus under testdata/fuzz
// holds a valid journal, a torn tail, interleaved records for one index,
// a missing manifest and content after the end line.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "sw-1"+journalSuffix)
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := readJournal(path)
		if err != nil {
			return
		}
		if n := scenarioLines(in); len(e.Records) > n {
			t.Fatalf("%d records from %d scenario lines", len(e.Records), n)
		}
		seen := map[int]bool{}
		for _, r := range e.Records {
			if seen[r.Index] {
				t.Fatalf("index %d recorded twice: %+v", r.Index, e.Records)
			}
			seen[r.Index] = true
		}
		out := encodeJournal(t, e)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readJournal(path)
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("round trip changed the journal\nfirst %+v\nagain %+v\nre-encoded as:\n%s", e, again, out)
		}
	})
}

// scenarioLines counts the lines of in that are, whole, one scenario
// record.
func scenarioLines(in []byte) int {
	n := 0
	for _, line := range bytes.Split(in, []byte("\n")) {
		var l journalLine
		if json.Unmarshal(line, &l) == nil && l.Type == "scenario" && l.Scenario != nil {
			n++
		}
	}
	return n
}

// encodeJournal writes e as the journal writer would have: the manifest
// line, one line per record, and the end line of a finished sweep.
func encodeJournal(t *testing.T, e *JournalEntry) []byte {
	t.Helper()
	lines := []journalLine{{Type: "sweep", Sweep: &e.Manifest}}
	for i := range e.Records {
		lines = append(lines, journalLine{Type: "scenario", Scenario: &e.Records[i]})
	}
	if e.EndDisposition != "" {
		lines = append(lines, journalLine{Type: "end", Disposition: e.EndDisposition})
	}
	var buf bytes.Buffer
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}
