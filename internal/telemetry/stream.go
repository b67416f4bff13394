package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the streaming (NDJSON) telemetry format: one JSON
// object per line, discriminated by a "type" field —
//
//	{"type":"meta","epoch":"...","series_dt_sec":15}
//	{"type":"series","time_sec":15,"measured_power_w":8.1e6,"wetbulb_c":20}
//	{"type":"job","job_name":"...","job_id":1,...}
//
// It is the one encoding of a Dataset. A StreamWriter emits samples
// incrementally while a simulation is still running, so long replays and
// sweep services never materialize the dense export slices; WriteStream
// and Dataset.Save emit a whole Dataset at once. ReadStream reassembles
// either into the same Dataset (bit-for-bit — Go's JSON float encoding
// round-trips float64 exactly).

// StreamWriter emits a telemetry dataset as NDJSON, incrementally.
// Errors are sticky: the first write failure is retained and returned by
// every subsequent call and by Flush, so hot loops can emit without
// checking each line.
type StreamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

type streamMeta struct {
	Type        string  `json:"type"`
	Epoch       string  `json:"epoch"`
	SeriesDtSec float64 `json:"series_dt_sec"`
}

type streamSeries struct {
	Type string `json:"type"`
	SeriesPoint
}

type streamJob struct {
	Type string `json:"type"`
	JobRecord
}

// NewStreamWriter starts an NDJSON telemetry stream on w, emitting the
// meta line immediately.
func NewStreamWriter(w io.Writer, epoch string, seriesDtSec float64) *StreamWriter {
	bw := bufio.NewWriter(w)
	s := &StreamWriter{bw: bw, enc: json.NewEncoder(bw)}
	s.encode(streamMeta{Type: "meta", Epoch: epoch, SeriesDtSec: seriesDtSec})
	return s
}

func (s *StreamWriter) encode(v any) error {
	if s.err != nil {
		return s.err
	}
	s.err = s.enc.Encode(v)
	return s.err
}

// Series appends one system-level sample line.
func (s *StreamWriter) Series(p SeriesPoint) error {
	return s.encode(streamSeries{Type: "series", SeriesPoint: p})
}

// Job appends one Table II job-record line.
func (s *StreamWriter) Job(r JobRecord) error {
	return s.encode(streamJob{Type: "job", JobRecord: r})
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
	for line := 0; ; line++ {
		typ, raw, err := NextLine(dec)
		if err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		if typ == "meta" && line != 0 {
			return nil, fmt.Errorf("telemetry: stream line %d: meta not first", line)
		}
		if ok, err := DecodeLine(d, typ, raw); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		} else if !ok {
			return nil, fmt.Errorf("telemetry: stream line %d: unknown type %q", line, typ)
		}
	}
}

// NextLine reads one line of a typed NDJSON stream: the line's "type"
// field and its raw JSON. It returns io.EOF at the end of the stream.
// Streams that embed telemetry among lines of their own (the result
// store's entries) read them with NextLine too and hand the telemetry
// lines to DecodeLine.
func NextLine(dec *json.Decoder) (string, json.RawMessage, error) {
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return "", nil, err
	}
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", nil, err
	}
	return probe.Type, raw, nil
}

// DecodeLine applies one telemetry line of type typ to d: a meta line
// sets the epoch and series period, series and job lines append. A job
// line without a positive node count is an error: no replay could ever
// place it. It reports false, without error, for any other type.
func DecodeLine(d *Dataset, typ string, raw json.RawMessage) (bool, error) {
	switch typ {
	case "meta":
		var m streamMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return true, err
		}
		d.Epoch, d.SeriesDtSec = m.Epoch, m.SeriesDtSec
	case "series":
		var p streamSeries
		if err := json.Unmarshal(raw, &p); err != nil {
			return true, err
		}
		d.Series = append(d.Series, p.SeriesPoint)
	case "job":
		var j streamJob
		if err := json.Unmarshal(raw, &j); err != nil {
			return true, err
		}
		if j.NodeCount <= 0 {
			return true, fmt.Errorf("job %d: node count %d is not positive", j.JobID, j.NodeCount)
		}
		d.Jobs = append(d.Jobs, j.JobRecord)
	default:
		return false, nil
	}
	return true, nil
}
