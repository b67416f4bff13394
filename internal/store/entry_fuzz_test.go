package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadEntry: readEntry never panics on any file content, and an
// entry it accepts decodes to a fixed point — written back out with
// writeEntry and read again, it is the same Result. The seed corpus
// under testdata/fuzz holds a valid entry keyed specA/scenA.
func FuzzReadEntry(f *testing.F) {
	path := filepath.Join(f.TempDir(), "entry"+entrySuffix)
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := readEntry(path, specA, scenA)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeEntry(&buf, specA, scenA, res); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readEntry(path, specA, scenA)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, res) {
			t.Fatalf("round trip changed the result, re-encoded as:\n%s", buf.Bytes())
		}
	})
}
