package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// wireMessage is any message a frame carries, by pointer.
type wireMessage interface {
	frameEncoder
	frameDecoder
}

// wireMessages lists one zero value of every message type; the fuzz target
// selects among them by index.
func wireMessages() []wireMessage {
	return []wireMessage{
		new(empty), new(OpenRequest), new(OpenResponse), new(StepRequest),
		new(StepResponse), new(GrowRequest), new(GrowResponse), new(CloseRequest),
		new(DocRequest), new(DocResponse), new(InfoResponse),
	}
}

// specialFloats are the distances JSON could not carry as numbers, −0,
// which a float parser may fold into +0, and finite values at both ends
// of the range and in between.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	0.1, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// wireSamples builds every message type once per special float, used as
// the distance, d⁻, bound and ε wherever the message has one.
func wireSamples() []wireMessage {
	var out []wireMessage
	for _, f := range specialFloats {
		rs := []core.Result{{Doc: 3, Distance: f}, {Doc: 1 << 31, Distance: 2.5}}
		m := &core.Metrics{DocsExamined: 4, TerminalEps: f, TotalTime: time.Millisecond}
		step := StepResponse{Results: rs, Paused: true, DMinus: f, Metrics: m}
		out = append(out,
			&empty{},
			&OpenRequest{SDS: true, Query: []ontology.ConceptID{0, 7, math.MaxUint32},
				Options: WireOptions{K: 10, ErrorThreshold: f, QueueLimit: -1}, Waves: 16, Release: true},
			&OpenResponse{Cursor: "c-17", StepResponse: step},
			&OpenResponse{StepResponse: StepResponse{Done: true, DMinus: f}},
			&StepRequest{Cursor: "tok", Bound: WireBound{Full: true, Kth: f}, Waves: -1, From: 9},
			&step,
			&GrowRequest{Cursor: "tok", K: 20},
			&GrowResponse{Examined: rs},
			&CloseRequest{Cursor: "tok"},
			&DocRequest{Doc: 8},
			&DocResponse{Found: true, Concepts: []ontology.ConceptID{3}},
			&InfoResponse{Version: Version, Docs: 12, Concepts: 40},
		)
	}
	return out
}

// zeroOf returns a zero value of m's message type.
func zeroOf(m wireMessage) wireMessage {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wireMessage)
}

// TestWireFrameRoundTrip: every message re-encodes to the bytes it was
// decoded from, distances and d⁻ included bit for bit (NaN, ±Inf, −0),
// and every proper prefix of a frame, like a frame with a byte appended,
// is refused.
func TestWireFrameRoundTrip(t *testing.T) {
	for _, m := range wireSamples() {
		b := m.appendFrame(nil)
		got := zeroOf(m)
		if err := decodeFrame(b, got); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if again := got.appendFrame(nil); !bytes.Equal(again, b) {
			t.Fatalf("%T: re-encoded %x, want %x", m, again, b)
		}
		for n := 0; n < len(b); n++ {
			if err := decodeFrame(b[:n], zeroOf(m)); err == nil {
				t.Fatalf("%T: %d-byte prefix of a %d-byte frame decoded", m, n, len(b))
			}
		}
		if err := decodeFrame(append(b, 0), zeroOf(m)); err != errFrameTrailing {
			t.Fatalf("%T with a trailing byte: %v", m, err)
		}
	}
	// The bits themselves, not just equal bytes: −0 stays −0, NaN NaN.
	for _, f := range specialFloats {
		var got StepResponse
		if err := decodeFrame(StepResponse{DMinus: f}.appendFrame(nil), &got); err != nil ||
			math.Float64bits(got.DMinus) != math.Float64bits(f) {
			t.Fatalf("d⁻ %v came back as %v (%v)", f, got.DMinus, err)
		}
	}
}

// fillDistinct sets every field under v to a distinct non-zero value and
// fails on a kind it has no rule for.
func fillDistinct(t testing.TB, v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	default:
		t.Fatalf("no rule for a %s field", v.Type())
	}
}

// TestWireMetricsCoversAllFields: a field added to core.Metrics but not
// to the frame codec fails here, because every field is set and must come
// back.
func TestWireMetricsCoversAllFields(t *testing.T) {
	var next int64
	var m core.Metrics
	fillDistinct(t, reflect.ValueOf(&m).Elem(), &next)
	var step StepResponse
	if err := decodeFrame(StepResponse{Metrics: &m}.appendFrame(nil), &step); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*step.Metrics, m) {
		t.Fatalf("metrics round trip:\n got %+v\nwant %+v", *step.Metrics, m)
	}
}

// footprint is the memory a decoded value holds beyond its own top-level
// struct: slice backing arrays, string bytes and pointed-to structs.
func footprint(v reflect.Value) uintptr {
	var n uintptr
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n += v.Type().Elem().Size() + footprint(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i))
		}
	case reflect.Slice:
		n += uintptr(v.Cap()) * v.Type().Elem().Size()
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
	case reflect.String:
		n += uintptr(v.Len())
	}
	return n
}

// FuzzWireFrames: arbitrary bytes decode as every message type to a value
// or an error — never a panic — and a decoded value holds at most four
// bytes of memory per input byte (a result in a step or grow response, 16
// bytes in memory, is the densest at 12 bytes on the wire) and re-encodes
// to exactly the input. Every sample seeds whole, cut in half and with a
// trailing byte.
func FuzzWireFrames(f *testing.F) {
	kinds := wireMessages()
	for _, m := range wireSamples() {
		for k, z := range kinds {
			if reflect.TypeOf(z) == reflect.TypeOf(m) {
				b := m.appendFrame(nil)
				f.Add(uint8(k), b)
				f.Add(uint8(k), b[:len(b)/2])
				f.Add(uint8(k), append(b, 0))
			}
		}
	}
	forged := OpenRequest{Query: []ontology.ConceptID{1}}.appendFrame(nil)
	binary.LittleEndian.PutUint32(forged[1:], math.MaxUint32)
	f.Add(uint8(1), forged)
	f.Add(uint8(1), []byte(`{"query":[1,2],"options":{"k":3}}`))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m := zeroOf(kinds[int(kind)%len(kinds)])
		if err := decodeFrame(data, m); err != nil {
			return
		}
		if n := footprint(reflect.ValueOf(m).Elem()); n > 4*uintptr(len(data)) {
			t.Fatalf("%T: %d input bytes hold %d bytes decoded", m, len(data), n)
		}
		if again := m.appendFrame(nil); !bytes.Equal(again, data) {
			t.Fatalf("%T: re-encoded %x, input %x", m, again, data)
		}
	})
}

// BenchmarkWireOpen prices the one RPC an unpaged served query sends per
// shard: encode and decode of a released open's response with 10 results
// and metrics.
func BenchmarkWireOpen(b *testing.B) {
	var m core.Metrics
	var next int64
	fillDistinct(b, reflect.ValueOf(&m).Elem(), &next)
	resp := OpenResponse{StepResponse: StepResponse{Done: true, DMinus: 7.25, Metrics: &m}}
	for i := 0; i < 10; i++ {
		resp.Results = append(resp.Results, core.Result{Doc: corpus.DocID(100 * i), Distance: 1 + float64(i)/3})
	}
	frame := resp.appendFrame(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			_ = resp.appendFrame(make([]byte, 0, 512))
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			var got OpenResponse
			if err := decodeFrame(frame, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
