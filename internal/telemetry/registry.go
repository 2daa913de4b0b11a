// Package telemetry is the zero-dependency observability layer of the
// kNDS stack: a runtime metrics registry (counters, gauges, fixed-bucket
// histograms, with single-label families for series like
// conceptrank_stage_seconds{stage="wave"}) with Prometheus-text
// exposition, go_* runtime series read from runtime/metrics at scrape
// time, a per-query span recorder feeding a "last N slow queries" ring
// buffer, and a live introspection HTTP server (/metrics, /debug/slowlog,
// /debug/cache, /debug/pprof/*). Everything is stdlib-only and safe for
// concurrent use; recording a sample is a handful of atomic operations,
// so instrumented engines stay cheap (EXPERIMENTS.md records the measured
// overhead).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is the contract shared by all instrument types: a Prometheus
// type string plus the sample lines (the registry owns the per-family
// HELP/TYPE header, so labeled series share one header).
type metric interface {
	// promType is the TYPE keyword: "counter", "gauge" or "histogram".
	promType() string
	// writePromSamples appends the metric's sample lines for the given
	// family name and rendered label pairs (`stage="plan"`-style, without
	// braces; empty for an unlabeled metric).
	writePromSamples(b *strings.Builder, name, labels string)
}

// sampleName renders one sample identity: name, name{labels} or — for
// histograms — name_bucket{labels,le="..."} via extra.
func sampleName(b *strings.Builder, name, suffix, labels, extra string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels == "" && extra == "" {
		return
	}
	b.WriteByte('{')
	b.WriteString(labels)
	if labels != "" && extra != "" {
		b.WriteByte(',')
	}
	b.WriteString(extra)
	b.WriteByte('}')
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) promType() string { return "counter" }

func (c *Counter) writePromSamples(b *strings.Builder, name, labels string) {
	sampleName(b, name, "", labels, "")
	fmt.Fprintf(b, " %d\n", c.Value())
}

// gaugeFunc samples a callback at exposition time — for values the runtime
// already tracks (goroutine count, heap size) that would be wasteful to
// mirror on every change.
type gaugeFunc struct {
	fn func() float64
}

func (g *gaugeFunc) promType() string { return "gauge" }

func (g *gaugeFunc) writePromSamples(b *strings.Builder, name, labels string) {
	sampleName(b, name, "", labels, "")
	fmt.Fprintf(b, " %s\n", formatFloat(g.fn()))
}

// counterFunc samples a callback at exposition time, exposed with TYPE
// counter — for monotonic totals an external component already tracks
// (e.g. cache hit counters) that would be wasteful to mirror.
type counterFunc struct {
	fn func() int64
}

func (c *counterFunc) promType() string { return "counter" }

func (c *counterFunc) writePromSamples(b *strings.Builder, name, labels string) {
	sampleName(b, name, "", labels, "")
	fmt.Fprintf(b, " %d\n", c.fn())
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the tail. Observe is a
// linear scan over at most a few dozen bounds plus three atomic adds — no
// locks on the hot path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile assuming samples sit at their
// bucket's upper bound — the same estimate Prometheus's
// histogram_quantile produces. Edge behavior is pinned: an empty
// histogram returns NaN for every q, and so does q = NaN; q is clamped
// into [0, 1], so q <= 0 returns the lowest occupied bucket's bound and
// q >= 1 the highest occupied bucket's bound (+Inf only when tail-bucket
// samples exist — there is no finite upper bound to report for them).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1 // q <= 0: the smallest sample
	}
	if rank > total {
		rank = total // q >= 1: the largest sample
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1) // tail bucket: no finite upper bound
		}
	}
	return math.Inf(1)
}

func (h *Histogram) promType() string { return "histogram" }

func (h *Histogram) writePromSamples(b *strings.Builder, name, labels string) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		sampleName(b, name, "_bucket", labels, fmt.Sprintf("le=%q", formatFloat(bound)))
		fmt.Fprintf(b, " %d\n", cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	sampleName(b, name, "_bucket", labels, `le="+Inf"`)
	fmt.Fprintf(b, " %d\n", cum)
	sampleName(b, name, "_sum", labels, "")
	fmt.Fprintf(b, " %s\n", formatFloat(h.Sum()))
	sampleName(b, name, "_count", labels, "")
	fmt.Fprintf(b, " %d\n", h.Count())
}

// formatFloat renders floats the way Prometheus expects: shortest exact
// decimal, no exponent for typical magnitudes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Registry holds named metrics. Registration is idempotent per (name,
// labels, type): asking for an existing series returns the existing
// instrument, so independent components can share one registry without
// coordination. Registering a series twice with different types — or two
// series of one family with different types — panics: that is a wiring
// bug, not a runtime condition.
//
// A family is either unlabeled (one series, plain name) or labeled: any
// number of series sharing the name, each distinguished by one label pair
// (LabeledCounter/LabeledHistogram). The Prometheus writer
// emits the family's HELP/TYPE header once and every series' samples
// under it, which is what makes conceptrank_stage_seconds{stage="wave"}
// -style exposition legal scrape output.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry // key: name or name{labels}
	family  map[string]*entry // first entry of each family, for type checks
	ordered []*entry          // sorted by (name, labels), rebuilt lazily
	dirty   bool
}

type entry struct {
	name, help string
	labels     string // rendered pairs inside the braces; "" = unlabeled
	m          metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}, family: map[string]*entry{}}
}

func (r *Registry) register(name, labels, help string, mk func() metric) metric {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	key := name
	if labels != "" {
		key = name + "{" + labels + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[key]; ok {
		return e.m
	}
	e := &entry{name: name, help: help, labels: labels, m: mk()}
	if f, ok := r.family[name]; ok {
		if f.m.promType() != e.m.promType() {
			panic(fmt.Sprintf("telemetry: %s already registered as TYPE %s, cannot add a %s series",
				name, f.m.promType(), e.m.promType()))
		}
	} else {
		r.family[name] = e
	}
	r.byName[key] = e
	r.ordered = append(r.ordered, e)
	r.dirty = true
	return e.m
}

// renderLabel validates and renders one label pair. Values are escaped
// per the Prometheus text format; keys must be plain identifiers.
func renderLabel(key, value string) string {
	if key == "" {
		panic("telemetry: empty label key")
	}
	for i, c := range key {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid label key %q", key))
		}
	}
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return key + `="` + esc + `"`
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counter(name, "", help)
}

// LabeledCounter registers (or fetches) one labeled counter series of the
// family name, e.g. LabeledCounter("crank_node_rpc_requests_total",
// help, "endpoint", "open").
func (r *Registry) LabeledCounter(name, help, labelKey, labelValue string) *Counter {
	return r.counter(name, renderLabel(labelKey, labelValue), help)
}

func (r *Registry) counter(name, labels, help string) *Counter {
	m := r.register(name, labels, help, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
	}
	return c
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, "", help, func() metric { return &gaugeFunc{fn: fn} })
	if _, ok := m.(*gaugeFunc); !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
	}
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time. fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	m := r.register(name, "", help, func() metric { return &counterFunc{fn: fn} })
	if _, ok := m.(*counterFunc); !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
	}
}

// Histogram registers (or fetches) a histogram with the given ascending
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.histogram(name, "", help, bounds)
}

// LabeledHistogram registers (or fetches) one labeled histogram series of
// the family name, e.g. LabeledHistogram("conceptrank_stage_seconds",
// help, "stage", "wave", LatencyBuckets).
func (r *Registry) LabeledHistogram(name, help, labelKey, labelValue string, bounds []float64) *Histogram {
	return r.histogram(name, renderLabel(labelKey, labelValue), help, bounds)
}

func (r *Registry) histogram(name, labels, help string, bounds []float64) *Histogram {
	m := r.register(name, labels, help, func() metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
	}
	return h
}

func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		sort.Slice(r.ordered, func(i, j int) bool {
			if r.ordered[i].name != r.ordered[j].name {
				return r.ordered[i].name < r.ordered[j].name
			}
			return r.ordered[i].labels < r.ordered[j].labels
		})
		r.dirty = false
	}
	return append([]*entry(nil), r.ordered...)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name then labels; a labeled family's
// HELP/TYPE header is emitted once ahead of all its series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prev := ""
	for _, e := range r.snapshot() {
		if e.name != prev {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.m.promType())
			prev = e.name
		}
		e.m.writePromSamples(&b, e.name, e.labels)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
