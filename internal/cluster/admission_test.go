package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"conceptrank/internal/telemetry"
)

func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	a := NewAdmission(AdmissionConfig{}, nil)
	for i := 0; i < 100; i++ {
		release, err := a.Acquire("t")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		defer release()
	}
	if got := a.InFlight(); got != 100 {
		t.Fatalf("InFlight = %d, want 100", got)
	}
}

func TestAdmissionMaxInFlight(t *testing.T) {
	sheds := telemetry.NewRegistry().Counter("test_sheds", "")
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2}, sheds)
	r1, err := a.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("c"); err != ErrOverloaded {
		t.Fatalf("third acquire err = %v, want ErrOverloaded", err)
	}
	if got := sheds.Value(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	r1()
	r3, err := a.Acquire("c")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r3()
	r2()
	// Release is idempotent: double-calling must not underflow.
	r1()
	r2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after releases, want 0", got)
	}
}

func TestAdmissionPerTenant(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxPerTenant: 1}, nil)
	r1, err := a.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("alice"); err != ErrOverloaded {
		t.Fatalf("second alice acquire err = %v, want ErrOverloaded", err)
	}
	// Another tenant is unaffected by alice's burst.
	r2, err := a.Acquire("bob")
	if err != nil {
		t.Fatalf("bob shed by alice's limit: %v", err)
	}
	r1()
	r3, err := a.Acquire("alice")
	if err != nil {
		t.Fatalf("alice after release: %v", err)
	}
	r2()
	r3()
}

func TestAdmissionLatencyShedding(t *testing.T) {
	var mu sync.Mutex
	p99 := 5 * time.Millisecond
	a := NewAdmission(AdmissionConfig{
		ShedLatency: 50 * time.Millisecond,
		latencyP99: func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return p99
		},
	}, nil)

	// Fast tier admits.
	r1, err := a.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	// Latency spikes past the limit: new work sheds while r1 drains.
	mu.Lock()
	p99 = 200 * time.Millisecond
	mu.Unlock()
	if _, err := a.Acquire(""); err != ErrOverloaded {
		t.Fatalf("acquire during latency spike err = %v, want ErrOverloaded", err)
	}
	// But an idle tier always admits — rejecting would never recover.
	r1()
	r2, err := a.Acquire("")
	if err != nil {
		t.Fatalf("idle tier shed: %v", err)
	}
	r2()
}

func TestAdmissionNilController(t *testing.T) {
	var a *Admission
	release, err := a.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	release()
}

func TestTenantContext(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != "" {
		t.Fatalf("untagged tenant = %q, want empty", got)
	}
	if got := TenantFrom(WithTenant(ctx, "acme")); got != "acme" {
		t.Fatalf("tenant = %q, want acme", got)
	}
}

// TestAdmissionConcurrent hammers Acquire/release from many goroutines and
// checks the cap is never overshot.
func TestAdmissionConcurrent(t *testing.T) {
	const cap = 5
	a := NewAdmission(AdmissionConfig{MaxInFlight: cap}, nil)
	var wg sync.WaitGroup
	var mu sync.Mutex
	peak := 0
	inFlight := 0
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				release, err := a.Acquire("t")
				if err != nil {
					continue
				}
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				mu.Unlock()
				mu.Lock()
				inFlight--
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	if peak > cap {
		t.Fatalf("peak in-flight %d exceeded cap %d", peak, cap)
	}
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", got)
	}
}
