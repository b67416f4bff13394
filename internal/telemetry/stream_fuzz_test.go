package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadStream: ReadStream never panics, and a stream it accepts
// decodes to a fixed point — written back out with WriteStream and read
// again, it is the same Dataset. The seed corpus under testdata/fuzz
// holds every TestReadStreamRejectsBadRecords input and a valid stream.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadStream(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStream(&buf, d); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip changed the dataset:\nfirst %#v\nagain %#v", d, again)
		}
	})
}
