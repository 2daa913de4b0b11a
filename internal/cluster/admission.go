package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"conceptrank/internal/telemetry"
)

// ErrOverloaded is returned when admission control sheds a query: the
// serving tier is past its in-flight or latency limits and rejecting now
// is cheaper than queueing into a collapse. Clients should back off;
// the coordinator maps it to HTTP 429/503 at its own edges.
var ErrOverloaded = errors.New("cluster: overloaded, query shed")

// AdmissionConfig bounds what the coordinator accepts. Zero values
// disable the corresponding limit, so the zero config admits everything.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently admitted queries across all tenants.
	MaxInFlight int
	// MaxPerTenant caps concurrently admitted queries per tenant — one
	// tenant's burst cannot starve the rest.
	MaxPerTenant int
	// ShedLatency sheds new queries while the p99 of the recent query
	// latencies exceeds it and earlier queries are still draining.
	ShedLatency time.Duration

	// latencyP99 probes the current p99 query latency for the ShedLatency
	// rule; nil disables the rule. The coordinator wires its latency
	// window; tests inject a probe.
	latencyP99 func() time.Duration
}

// windowSize is the number of recent query latencies the ShedLatency
// rule takes its p99 over. A window, not the lifetime histogram: once
// more than 1% of all queries since boot were slow, a lifetime p99 stays
// slow until fast queries dilute it, and shedding lets only one run at a
// time.
const windowSize = 128

// latencyWindow is a ring of the last windowSize query latencies.
type latencyWindow struct {
	mu   sync.Mutex
	ring [windowSize]time.Duration
	n    int // samples held, up to windowSize
	next int
}

func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.next] = d
	w.next = (w.next + 1) % windowSize
	if w.n < windowSize {
		w.n++
	}
	w.mu.Unlock()
}

// p99 returns the nearest-rank 99th percentile of the window, 0 when it
// is empty.
func (w *latencyWindow) p99() time.Duration {
	var s [windowSize]time.Duration
	w.mu.Lock()
	n := copy(s[:], w.ring[:w.n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	slices.Sort(s[:n])
	return s[(n*99+99)/100-1]
}

// Admission is a per-tenant admission controller. Acquire admits or
// sheds; the returned release must be called when the query finishes.
type Admission struct {
	cfg   AdmissionConfig
	sheds *telemetry.Counter // may be nil

	mu        sync.Mutex
	total     int
	perTenant map[string]int
}

// NewAdmission builds a controller; sheds (may be nil) counts rejected
// queries.
func NewAdmission(cfg AdmissionConfig, sheds *telemetry.Counter) *Admission {
	return &Admission{cfg: cfg, sheds: sheds, perTenant: make(map[string]int)}
}

// InFlight reports currently admitted queries (all tenants).
func (a *Admission) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Acquire admits one query for tenant ("" is the anonymous tenant) or
// returns ErrOverloaded. On admission the release function must be called
// exactly once when the query completes; it is idempotent.
func (a *Admission) Acquire(tenant string) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	shed := func() (func(), error) {
		if a.sheds != nil {
			a.sheds.Inc()
		}
		return nil, ErrOverloaded
	}
	// The latency probe runs before the lock: it sorts the window and
	// must not serialize admissions.
	slow := a.cfg.ShedLatency > 0 && a.cfg.latencyP99 != nil &&
		a.cfg.latencyP99() > a.cfg.ShedLatency

	a.mu.Lock()
	switch {
	case a.cfg.MaxInFlight > 0 && a.total >= a.cfg.MaxInFlight:
		a.mu.Unlock()
		return shed()
	case a.cfg.MaxPerTenant > 0 && a.perTenant[tenant] >= a.cfg.MaxPerTenant:
		a.mu.Unlock()
		return shed()
	case slow && a.total > 0:
		// Latency overload: shed new work while the backlog drains. An
		// idle tier always admits — rejecting then would never recover.
		a.mu.Unlock()
		return shed()
	}
	a.total++
	a.perTenant[tenant]++
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.total--
			if a.perTenant[tenant] <= 1 {
				delete(a.perTenant, tenant)
			} else {
				a.perTenant[tenant]--
			}
			a.mu.Unlock()
		})
	}, nil
}

// tenantKey is the context key carrying the requesting tenant.
type tenantKey struct{}

// WithTenant tags ctx with the requesting tenant for admission control.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant tag ("" when untagged).
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}
