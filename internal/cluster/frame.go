package cluster

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// The frame codec: every request and response body is one message, its
// fields in a fixed order with no tags and no padding (layouts in the
// package doc). The encoders append to a caller's buffer; the decoder
// reads a whole body and refuses one that ends early or runs past the
// message. Decoding is canonical — a decoded value re-encodes to the
// bytes it came from — because booleans and presence flags accept only
// 0 and 1.

// frameContentType labels a frame body; a non-2xx answer is text/plain.
const frameContentType = "application/octet-stream"

// frameEncoder is a message that can be written as a frame.
type frameEncoder interface {
	appendFrame(b []byte) []byte
}

// frameDecoder is a message that can be read back from a frame.
type frameDecoder interface {
	readFrame(r *frameReader)
}

// empty is the message of the requests and responses that carry nothing
// (info requests, close responses): a zero-length frame.
type empty struct{}

func (empty) appendFrame(b []byte) []byte { return b }
func (*empty) readFrame(*frameReader)     {}

var (
	errFrameShort    = errors.New("cluster: frame ends inside a field")
	errFrameCount    = errors.New("cluster: frame count exceeds its remaining bytes")
	errFrameBool     = errors.New("cluster: frame flag is neither 0 nor 1")
	errFrameTrailing = errors.New("cluster: trailing bytes after the frame")
)

// decodeFrame reads one whole body into m.
func decodeFrame(b []byte, m frameDecoder) error {
	r := frameReader{b: b}
	m.readFrame(&r)
	if r.err == nil && len(r.b) != 0 {
		r.err = errFrameTrailing
	}
	return r.err
}

// readBody reads a whole body, allocating it once when its length is
// known and at most limit; an unknown or larger length falls back to
// io.ReadAll, whose reader is expected to enforce the limit.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit {
		return io.ReadAll(r)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// frameReader consumes a frame field by field. The first error sticks:
// every later read returns zero values, so a message's readFrame needs no
// checks of its own.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// take returns the next n bytes, or nil once the frame is short.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail(errFrameShort)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) i64() int64   { return int64(r.u64()) }
func (r *frameReader) int() int     { return int(r.i64()) }
func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *frameReader) bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.fail(errFrameBool)
		return false
	}
	return p[0] == 1
}

// count reads a u32 element count and checks that count elements of at
// least size bytes each fit in what remains of the frame — before the
// caller allocates for them.
func (r *frameReader) count(size int) int {
	n := uint64(r.u32())
	if r.err == nil && n*uint64(size) > uint64(len(r.b)) {
		r.fail(errFrameCount)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *frameReader) str() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	return string(r.take(n))
}

// results reads a (doc u32, distance f64) list; empty decodes as nil.
func (r *frameReader) results() []core.Result {
	n := r.count(12)
	if n == 0 {
		return nil
	}
	p := r.take(12 * n)
	out := make([]core.Result, n)
	for i := range out {
		q := p[12*i:]
		out[i] = core.Result{
			Doc:      corpus.DocID(binary.LittleEndian.Uint32(q)),
			Distance: math.Float64frombits(binary.LittleEndian.Uint64(q[4:])),
		}
	}
	return out
}

// concepts reads a u32 concept-ID list; empty decodes as nil.
func (r *frameReader) concepts() []ontology.ConceptID {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	p := r.take(4 * n)
	out := make([]ontology.ConceptID, n)
	for i := range out {
		out[i] = ontology.ConceptID(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendInt(b []byte, v int) []byte    { return appendI64(b, int64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte { return append(appendU32(b, uint32(len(s))), s...) }
func appendCount(b []byte, n int) []byte  { return appendU32(b, uint32(n)) }
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendResults(b []byte, rs []core.Result) []byte {
	b = appendCount(b, len(rs))
	for _, r := range rs {
		b = appendF64(appendU32(b, uint32(r.Doc)), r.Distance)
	}
	return b
}

func appendConcepts(b []byte, cs []ontology.ConceptID) []byte {
	b = appendCount(b, len(cs))
	for _, c := range cs {
		b = appendU32(b, uint32(c))
	}
	return b
}

// metricsSize is the fixed frame size of a present core.Metrics (after
// the presence flag).
const metricsSize = (13 + core.NumStages + 1) * 8

// appendMetrics writes a presence flag and, when m is non-nil, every
// field of core.Metrics in declaration order; TestWireMetricsCoversAllFields
// fails when a field is added to the struct but not here.
func appendMetrics(b []byte, m *core.Metrics) []byte {
	b = appendBool(b, m != nil)
	if m == nil {
		return b
	}
	for _, v := range [...]int64{
		int64(m.TraversalTime), int64(m.DistanceTime), int64(m.IOTime), int64(m.TotalTime),
		int64(m.Iterations), m.NodesVisited, int64(m.DocsDiscovered), int64(m.DocsExamined),
		int64(m.DRCCalls), int64(m.ForcedExams), int64(m.ResultCount),
		int64(m.CacheHits), int64(m.CacheMisses),
	} {
		b = appendI64(b, v)
	}
	for _, s := range m.Stages {
		b = appendI64(b, int64(s.Time))
	}
	return appendF64(b, m.TerminalEps)
}

func (r *frameReader) metrics() *core.Metrics {
	if !r.bool() {
		return nil
	}
	p := r.take(metricsSize)
	if p == nil {
		return nil
	}
	f := frameReader{b: p}
	m := &core.Metrics{
		TraversalTime:  time.Duration(f.i64()),
		DistanceTime:   time.Duration(f.i64()),
		IOTime:         time.Duration(f.i64()),
		TotalTime:      time.Duration(f.i64()),
		Iterations:     f.int(),
		NodesVisited:   f.i64(),
		DocsDiscovered: f.int(),
		DocsExamined:   f.int(),
		DRCCalls:       f.int(),
		ForcedExams:    f.int(),
		ResultCount:    f.int(),
		CacheHits:      f.int(),
		CacheMisses:    f.int(),
	}
	for i := range m.Stages {
		m.Stages[i].Time = time.Duration(f.i64())
	}
	m.TerminalEps = f.f64()
	return m
}
