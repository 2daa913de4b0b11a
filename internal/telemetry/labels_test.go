package telemetry

import (
	"strings"
	"testing"
	"time"

	"conceptrank/internal/core"
)

// TestLabeledSeriesExposition: a labeled family shares one HELP/TYPE
// header, and series sort by label within the family.
func TestLabeledSeriesExposition(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("jobs_total", "Jobs by kind.", "kind", "wave").Add(3)
	r.LabeledCounter("jobs_total", "Jobs by kind.", "kind", "bound").Add(5)
	r.LabeledHistogram("stage_seconds", "Stage time.", "stage", "plan", []float64{0.1, 1}).Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if n := strings.Count(body, "# TYPE jobs_total counter"); n != 1 {
		t.Fatalf("family TYPE header appears %d times, want 1:\n%s", n, body)
	}
	if n := strings.Count(body, "# HELP jobs_total"); n != 1 {
		t.Fatalf("family HELP header appears %d times, want 1:\n%s", n, body)
	}
	for _, want := range []string{
		"jobs_total{kind=\"bound\"} 5",
		"jobs_total{kind=\"wave\"} 3",
		"stage_seconds_bucket{stage=\"plan\",le=\"0.1\"} 1",
		"stage_seconds_bucket{stage=\"plan\",le=\"+Inf\"} 1",
		"stage_seconds_count{stage=\"plan\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Series of one family sort by label value: bound before wave.
	if strings.Index(body, `kind="bound"`) > strings.Index(body, `kind="wave"`) {
		t.Fatalf("labeled series not sorted within family:\n%s", body)
	}
}

// TestLabeledSeriesIdempotentAndTypeChecked: re-registering a series
// returns the same instrument; a different type in the same family
// panics.
func TestLabeledSeriesIdempotentAndTypeChecked(t *testing.T) {
	r := NewRegistry()
	a := r.LabeledCounter("x_total", "h", "stage", "plan")
	if b := r.LabeledCounter("x_total", "h", "stage", "plan"); a != b {
		t.Fatal("same (name, label) must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("gauge series in a counter family must panic")
		}
	}()
	r.LabeledGauge("x_total", "h", "stage", "wave")
}

// TestLabelRendering: values are escaped, bad keys panic.
func TestLabelRendering(t *testing.T) {
	if got := renderLabel("stage", `a"b\c`); got != `stage="a\"b\\c"` {
		t.Fatalf("renderLabel escaping: %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid label key must panic")
		}
	}()
	renderLabel("bad-key", "v")
}

// TestQueryStatsStageSeries: Observe routes Metrics.Stages into the
// labeled stage histograms, skipping untouched stages.
func TestQueryStatsStageSeries(t *testing.T) {
	s := testSink(time.Hour)
	m := &core.Metrics{TotalTime: time.Millisecond}
	m.Stages[core.StageWave] = core.StageStat{Time: 100 * time.Microsecond}
	m.Stages[core.StageExam] = core.StageStat{Time: 400 * time.Microsecond}
	_, done := s.Query("rds", nil)
	done(m, nil)

	if got := s.Stats.StageSeconds[core.StageWave].Count(); got != 1 {
		t.Fatalf("wave stage samples = %d, want 1", got)
	}
	if got := s.Stats.StageSeconds[core.StagePlan].Count(); got != 0 {
		t.Fatalf("plan stage samples = %d, want 0 (stage never ran)", got)
	}

	var b strings.Builder
	if err := s.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`conceptrank_stage_seconds_count{stage="wave"} 1`,
		`conceptrank_stage_seconds_count{stage="exam"} 1`,
		"# TYPE conceptrank_stage_seconds histogram",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, b.String())
		}
	}
	if n := strings.Count(b.String(), "# TYPE conceptrank_stage_seconds histogram"); n != 1 {
		t.Fatalf("stage family TYPE emitted %d times, want 1", n)
	}
	if strings.Contains(b.String(), "_stage_alloc_") {
		t.Fatalf("/metrics still exposes per-stage allocation series:\n%s", b.String())
	}
}
