package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the streaming (NDJSON) telemetry format: one JSON
// object per line, each a Line discriminated by its "type" field —
//
//	{"type":"meta","epoch":"...","series_dt_sec":15}
//	{"type":"series","time_sec":15,"measured_power_w":8.1e6,"wetbulb_c":20}
//	{"type":"job","job_name":"...","job_id":1,...}
//
// It is the one encoding of a Dataset. A StreamWriter emits samples
// incrementally while a simulation is still running, so long replays and
// sweep services never materialize the dense export slices; WriteStream
// and Dataset.Save emit a whole Dataset at once. ReadStream decodes each
// line once into a Line and reassembles either into the same Dataset
// (bit-for-bit — Go's JSON float encoding round-trips float64 exactly).

// Meta is the stream's header record: the capture label and the series
// sampling period.
type Meta struct {
	Epoch       string  `json:"epoch"`
	SeriesDtSec float64 `json:"series_dt_sec"`
}

// Line is one line of a telemetry stream, used both to write and to
// read it. The records are embedded pointers, so a line encodes flat,
// with only the fields of the record it carries; decoding allocates the
// record of every kind whose fields the line names, and Type says which
// one counts. Streams that interleave telemetry with lines of their own
// (the result store's entries) embed Line in their own line type.
type Line struct {
	Type string `json:"type"` // meta | series | job
	*Meta
	*SeriesPoint
	*JobRecord
}

// StreamWriter emits a telemetry dataset as NDJSON, incrementally.
// Errors are sticky: the first write failure is retained and returned by
// every subsequent call and by Flush, so hot loops can emit without
// checking each line.
type StreamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewStreamWriter starts an NDJSON telemetry stream on w, emitting the
// meta line immediately.
func NewStreamWriter(w io.Writer, epoch string, seriesDtSec float64) *StreamWriter {
	bw := bufio.NewWriter(w)
	s := &StreamWriter{bw: bw, enc: json.NewEncoder(bw)}
	s.encode(&Line{Type: "meta", Meta: &Meta{Epoch: epoch, SeriesDtSec: seriesDtSec}})
	return s
}

func (s *StreamWriter) encode(l *Line) error {
	if s.err != nil {
		return s.err
	}
	s.err = s.enc.Encode(l)
	return s.err
}

// Series appends one system-level sample line.
func (s *StreamWriter) Series(p SeriesPoint) error {
	return s.encode(&Line{Type: "series", SeriesPoint: &p})
}

// Job appends one Table II job-record line.
func (s *StreamWriter) Job(r JobRecord) error {
	return s.encode(&Line{Type: "job", JobRecord: &r})
}

// Err returns the first error the stream hit, if any.
func (s *StreamWriter) Err() error { return s.err }

// Flush drains the buffer and returns the stream's sticky error state.
func (s *StreamWriter) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// WriteStream emits a whole in-memory dataset in the NDJSON format —
// the non-incremental form behind Dataset.Save and the result store.
func WriteStream(w io.Writer, d *Dataset) error {
	s := NewStreamWriter(w, d.Epoch, d.SeriesDtSec)
	for i := range d.Jobs {
		s.Job(d.Jobs[i])
	}
	for _, p := range d.Series {
		s.Series(p)
	}
	return s.Flush()
}

// ReadStream reassembles an NDJSON telemetry stream into a Dataset.
// Line order is free: series and job lines may interleave (a live run
// streams series during the run and jobs at the end); the meta line, if
// present, must come first.
func ReadStream(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		// A fresh Line per line: decoding into a reused one would write
		// into the slices of the records already appended.
		var l Line
		if err := dec.Decode(&l); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", n, err)
		}
		if l.Type == "meta" && n != 0 {
			return nil, fmt.Errorf("telemetry: stream line %d: meta not first", n)
		}
		if err := d.Apply(&l); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", n, err)
		}
	}
}

// Apply adds one decoded line to d: a meta line sets the epoch and
// series period, series and job lines append their record. It rejects
// any other type, and a job line without a positive node count: no
// replay could ever place it.
func (d *Dataset) Apply(l *Line) error {
	switch l.Type {
	case "meta":
		m := deref(l.Meta)
		d.Epoch, d.SeriesDtSec = m.Epoch, m.SeriesDtSec
	case "series":
		p := deref(l.SeriesPoint)
		if len(p.PartPowerW) == 0 {
			p.PartPowerW = nil // omitempty: empty and absent are one encoding
		}
		d.Series = append(d.Series, p)
	case "job":
		j := deref(l.JobRecord)
		if j.NodeCount <= 0 {
			return fmt.Errorf("job %d: node count %d is not positive", j.JobID, j.NodeCount)
		}
		d.Jobs = append(d.Jobs, j)
	default:
		return fmt.Errorf("unknown type %q", l.Type)
	}
	return nil
}

// deref returns *p, or the zero value for a record a line did not name.
func deref[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}
