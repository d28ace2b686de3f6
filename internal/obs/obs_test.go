package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestCounterAdd(t *testing.T) {
	var c Counter
	c.Add(40)
	c.Add(2)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	vals := []float64{0.25, 0.5, 0.75, 1.0}
	var wg sync.WaitGroup
	for _, v := range vals {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set(v)
			}
		}(v)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			got := g.Value()
			ok := got == 0 // before any Set lands
			for _, v := range vals {
				ok = ok || got == v
			}
			if !ok {
				t.Errorf("torn gauge read: %v", got)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestTimerConcurrent(t *testing.T) {
	var tm Timer
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= per; j++ {
				tm.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	st := tm.Stats()
	if st.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", st.Count, goroutines*per)
	}
	wantSum := time.Duration(goroutines) * time.Duration(per*(per+1)/2) * time.Microsecond
	if st.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", st.Sum, wantSum)
	}
	if st.Min != time.Microsecond || st.Max != per*time.Microsecond {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.Mean() != wantSum/time.Duration(goroutines*per) {
		t.Fatalf("mean = %v", st.Mean())
	}
}

func TestTimerEmptyStats(t *testing.T) {
	var tm Timer
	st := tm.Stats()
	if st.Count != 0 || st.Sum != 0 || st.Min != 0 || st.Max != 0 || st.Mean() != 0 {
		t.Fatalf("empty timer stats = %+v", st)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Timer("z") != r.Timer("z") {
		t.Fatal("Timer not idempotent")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind collision")
		}
	}()
	r.Gauge("dup")
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(1)
				r.Timer("t").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("shared counter = %d", got)
	}
}

func TestSnapshotAndWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(7)
	r.Gauge("alpha").Set(0.83)
	r.Timer("gen").Observe(20 * time.Millisecond)
	r.Timer("gen").Observe(40 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if s.Counters["hits"] != 7 {
		t.Fatalf("hits = %d", s.Counters["hits"])
	}
	if s.Gauges["alpha"] != 0.83 {
		t.Fatalf("alpha = %v", s.Gauges["alpha"])
	}
	tv := s.Timers["gen"]
	if tv.Count != 2 || tv.SumSeconds != 0.06 || tv.MinSeconds != 0.02 || tv.MaxSeconds != 0.04 || tv.MeanSeconds != 0.03 {
		t.Fatalf("timer = %+v", tv)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(2)
	r.Counter("a_count").Add(1)
	r.Gauge("g").Set(0.5)
	r.Timer("t").Observe(time.Second)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"a_count 1",
		"b_count 2",
		"g 0.5",
		"t_count 1",
		"t_max_seconds 1",
		"t_min_seconds 1",
		"t_sum_seconds 1",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default not a singleton")
	}
	Default().Counter("obs_test_probe").Inc()
	if Default().Snapshot().Counters["obs_test_probe"] < 1 {
		t.Fatal("default registry lost a counter")
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("m_total"); got != "m_total" {
		t.Fatalf("no labels: %q", got)
	}
	if got := Labeled("m_total", "session", "alice"); got != `m_total{session="alice"}` {
		t.Fatalf("one label: %q", got)
	}
	if got := Labeled("m_total", "session", "a", "endpoint", "snapshot"); got != `m_total{session="a",endpoint="snapshot"}` {
		t.Fatalf("two labels: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd key/value list did not panic")
		}
	}()
	Labeled("m_total", "orphan")
}

func TestLabeledNamesAreOrdinaryMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled("sess_requests_total", "session", "a")).Add(2)
	r.Counter(Labeled("sess_requests_total", "session", "b")).Inc()
	snap := r.Snapshot()
	if snap.Counters[`sess_requests_total{session="a"}`] != 2 || snap.Counters[`sess_requests_total{session="b"}`] != 1 {
		t.Fatalf("labeled counters = %v", snap.Counters)
	}
}

func TestDeleteUnregistersEveryKind(t *testing.T) {
	r := NewRegistry()
	c, g := r.Counter("c_total"), r.Gauge("g")
	r.Timer("t_seconds").Observe(time.Millisecond)
	r.Counter("kept_total").Inc()
	r.Delete("c_total", "g", "t_seconds", "never_registered")
	c.Inc() // a holder's update after the delete reaches no registry
	g.Set(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || len(snap.Gauges) != 0 || len(snap.Timers) != 0 {
		t.Fatalf("after Delete: %+v", snap)
	}
	if r.Counter("c_total").Value() != 0 {
		t.Fatal("re-created counter kept the deleted one's value")
	}
}
