package drift

import (
	"errors"
	"reflect"
	"testing"

	"eventhit/internal/conformal"
	"eventhit/internal/mathx"
)

func TestNewMonitorValidation(t *testing.T) {
	if _, err := newMonitor(0, 100, 0.05); err == nil {
		t.Fatal("expected error for c=0")
	}
	if _, err := newMonitor(1, 100, 0.05); err == nil {
		t.Fatal("expected error for c=1")
	}
}

func TestMonitorStationaryNoAlarm(t *testing.T) {
	m, err := newMonitor(0.9, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(1)
	alarms := 0
	for i := 0; i < 5000; i++ {
		// True coverage exactly at nominal.
		if m.Observe(g.Bernoulli(0.9)) {
			alarms++
		}
	}
	// At delta=0.01 over ~5000 overlapping windows a couple of false alarms
	// are tolerable; a stream of them is not.
	if alarms > 25 {
		t.Fatalf("stationary stream raised %d alarms", alarms)
	}
}

func TestMonitorDetectsCoverageCollapse(t *testing.T) {
	m, err := newMonitor(0.9, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(2)
	for i := 0; i < 1000; i++ {
		m.Observe(g.Bernoulli(0.9))
	}
	if m.Alarming() {
		t.Fatal("pre-shift alarm")
	}
	// Distribution shift: coverage collapses to 0.6.
	fired := -1
	for i := 0; i < 1000; i++ {
		if m.Observe(g.Bernoulli(0.6)) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("coverage collapse never detected")
	}
	if fired > 400 {
		t.Fatalf("detection took %d observations, too slow for a 200-window", fired)
	}
	obs, alarms := m.Stats()
	if obs == 0 || alarms == 0 {
		t.Fatal("stats not tracked")
	}
}

func TestMonitorResetClearsWindow(t *testing.T) {
	m, _ := newMonitor(0.9, 100, 0.05)
	for i := 0; i < 100; i++ {
		m.Observe(false)
	}
	if !m.Alarming() {
		t.Fatal("all-miss window must alarm")
	}
	m.Reset()
	if m.Alarming() || m.MissRate() != 0 {
		t.Fatal("Reset did not clear the window")
	}
}

func TestMonitorHalfWindowGuard(t *testing.T) {
	m, _ := newMonitor(0.9, 100, 0.05)
	// A handful of early misses must not alarm before the window is half
	// full.
	for i := 0; i < 49; i++ {
		if m.Observe(false) {
			t.Fatal("alarmed before half window")
		}
	}
}

func TestMonitorSlidingEviction(t *testing.T) {
	m, _ := newMonitor(0.5, 10, 0.5)
	for i := 0; i < 10; i++ {
		m.Observe(false)
	}
	if m.MissRate() != 1 {
		t.Fatalf("miss rate %v", m.MissRate())
	}
	for i := 0; i < 10; i++ {
		m.Observe(true)
	}
	if m.MissRate() != 0 {
		t.Fatalf("after eviction miss rate %v, want 0", m.MissRate())
	}
}

// TestAlarmEpisodesEdgeTriggered is the regression test for the alarm
// storm: Observe used to increment the lifetime alarm counter on every
// observation while the window stayed above threshold, so one sustained
// shift reported thousands of alarms. Episodes must be edge-triggered.
func TestAlarmEpisodesEdgeTriggered(t *testing.T) {
	cases := []struct {
		name string
		// outcomes fed in order; r = Reset marker
		feed         []string // "miss", "cover", "reset"
		wantEpisodes int
	}{
		{
			name:         "one sustained shift is one episode",
			feed:         append(rep("cover", 100), rep("miss", 200)...),
			wantEpisodes: 1,
		},
		{
			name:         "no violation no episode",
			feed:         rep("cover", 300),
			wantEpisodes: 0,
		},
		{
			name: "recovery closes the episode, relapse opens a second",
			feed: concat(
				rep("cover", 100), // fill clean
				rep("miss", 60),   // cross the line: episode 1
				rep("cover", 150), // window drains below the line
				rep("miss", 60),   // cross again: episode 2
			),
			wantEpisodes: 2,
		},
		{
			name: "reset ends the episode; refill without violation stays at one",
			feed: concat(
				rep("cover", 100),
				rep("miss", 60), // episode 1
				[]string{"reset"},
				rep("cover", 200), // clean refill: no new episode
			),
			wantEpisodes: 1,
		},
		{
			name: "reset then a second collapse counts two",
			feed: concat(
				rep("cover", 100),
				rep("miss", 60), // episode 1
				[]string{"reset"},
				rep("cover", 100),
				rep("miss", 60), // episode 2
			),
			wantEpisodes: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := newMonitor(0.9, 100, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.feed {
				switch f {
				case "miss":
					m.Observe(false)
				case "cover":
					m.Observe(true)
				case "reset":
					m.Reset()
				}
			}
			if _, eps := m.Stats(); eps != tc.wantEpisodes {
				t.Fatalf("Stats episodes = %d, want %d", eps, tc.wantEpisodes)
			}
		})
	}
}

func rep(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestObserveReturnsLevelNotEdge: the boolean return stays "currently
// alarming" — it keeps returning true for every observation of a sustained
// shift even though only one episode is counted.
func TestObserveReturnsLevelNotEdge(t *testing.T) {
	m, _ := newMonitor(0.9, 100, 0.05)
	for i := 0; i < 100; i++ {
		m.Observe(true)
	}
	trues := 0
	for i := 0; i < 50; i++ {
		if m.Observe(false) {
			trues++
		}
	}
	if trues < 2 {
		t.Fatalf("sustained shift returned true only %d times; Observe must report the level", trues)
	}
	if _, eps := m.Stats(); eps != 1 {
		t.Fatalf("episodes = %d, want 1", eps)
	}
	if !m.alarming {
		t.Fatal("no episode open mid-shift")
	}
}

// TestThresholdEmptyWindowUsesConfigured: a fresh or just-Reset monitor
// must report the alarm line for its configured window, not a misleading
// n=1 slack.
func TestThresholdEmptyWindowUsesConfigured(t *testing.T) {
	m, _ := newMonitor(0.9, 100, 0.05)
	empty := m.Threshold()
	for i := 0; i < 100; i++ {
		m.Observe(true)
	}
	full := m.Threshold()
	if empty != full {
		t.Fatalf("empty-window threshold %v != full-window threshold %v", empty, full)
	}
	m.Reset()
	if got := m.Threshold(); got != full {
		t.Fatalf("post-Reset threshold %v != configured-window threshold %v", got, full)
	}
	if m.window != 100 {
		t.Fatalf("window = %d", m.window)
	}
}

// TestResetBlindPeriod: after Reset no alarm can fire until the window is
// half filled again, even on an all-miss stream.
func TestResetBlindPeriod(t *testing.T) {
	m, _ := newMonitor(0.9, 100, 0.05)
	for i := 0; i < 100; i++ {
		m.Observe(false)
	}
	m.Reset()
	for i := 0; i < 49; i++ {
		if m.Observe(false) {
			t.Fatalf("alarm during blind period at observation %d", i)
		}
	}
	if !m.Observe(false) {
		t.Fatal("all-miss stream must alarm once the blind period ends")
	}
}

func TestRecalibratorValidation(t *testing.T) {
	if _, err := NewRecalibrator(5, 1); err == nil {
		t.Fatal("expected error for tiny buffer")
	}
	if _, err := NewRecalibrator(100, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	r, _ := NewRecalibrator(100, 2)
	if err := r.Add([]float64{0.5}, []bool{true, false}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := r.RebuildRecent(100); err == nil {
		t.Fatal("expected error on empty buffer")
	}
}

func TestRecalibratorRollsOver(t *testing.T) {
	r, _ := NewRecalibrator(10, 1)
	for i := 0; i < 25; i++ {
		if err := r.Add([]float64{float64(i)}, []bool{true}); err != nil {
			t.Fatal(err)
		}
	}
	if r.filled != 10 {
		t.Fatalf("filled = %d, want 10", r.filled)
	}
	c, err := r.RebuildRecent(10)
	if err != nil {
		t.Fatal(err)
	}
	// Buffer holds scores 15..24; p-value of 14 must be 0.
	if p := c.PValue(0, 14); p != 0 {
		t.Fatalf("stale score p-value %v, want 0", p)
	}
	if p := c.PValue(0, 24); p != 10.0/11 {
		t.Fatalf("freshest score p-value %v", p)
	}
}

// TestRecalibratorAddInPlace: once the buffer is full Add allocates nothing
// (it overwrites the oldest slot's memory), and a rebuild after wrap-around
// equals one from a fresh buffer fed the same surviving records — also on
// the slots a Reset emptied.
func TestRecalibratorAddInPlace(t *testing.T) {
	const capacity, k = 12, 2
	record := func(i int) ([]float64, []bool) {
		return []float64{float64(i) / 100, float64(i%7) / 7}, []bool{i%2 == 0, i%3 == 0}
	}
	r, _ := NewRecalibrator(capacity, k)
	for pass := 0; pass < 2; pass++ {
		n := 100 * pass
		for end := n + 2*capacity + 5; n < end; n++ {
			r.Add(record(n))
		}
		for _, recent := range []int{capacity, capacity - 3} {
			fresh, _ := NewRecalibrator(capacity, k)
			for i := n - recent; i < n; i++ {
				fresh.Add(record(i))
			}
			got, err := r.RebuildRecent(recent)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RebuildRecent(capacity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: rebuild of the last %d records differs from a fresh buffer's", pass, recent)
			}
		}
		b, l := record(n)
		if allocs := testing.AllocsPerRun(50, func() { r.Add(b, l) }); allocs != 0 {
			t.Fatalf("pass %d: Add on a full buffer allocates %v times, want 0", pass, allocs)
		}
		r.Reset()
	}
}

func TestRecalibratorDoesNotAliasInput(t *testing.T) {
	r, _ := NewRecalibrator(10, 1)
	b := []float64{0.7}
	l := []bool{true}
	r.Add(b, l)
	b[0] = 0.1
	l[0] = false
	c, err := r.RebuildRecent(10)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.PValue(0, 0.7); p != 1.0/2 {
		t.Fatalf("buffer aliased caller slices: p=%v", p)
	}
}

// TestRebuildRecentInsufficientPositives: a rebuild window with no
// positive for some event fails with the typed retryable error, and the
// retry path (buffer more, rebuild again) succeeds once a positive lands.
func TestRebuildRecentInsufficientPositives(t *testing.T) {
	r, _ := NewRecalibrator(50, 2)
	// Event 1 gets positives, event 0 never does.
	for i := 0; i < 20; i++ {
		if err := r.Add([]float64{0.2, 0.8}, []bool{false, true}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.RebuildRecent(20)
	if err == nil {
		t.Fatal("expected insufficient-positives error")
	}
	if !errors.Is(err, ErrInsufficientPositives) {
		t.Fatalf("error %v does not wrap ErrInsufficientPositives", err)
	}
	// Retry path: one positive for event 0 arrives; the rebuild succeeds.
	if err := r.Add([]float64{0.6, 0.7}, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	cls, err := r.RebuildRecent(21)
	if err != nil {
		t.Fatalf("rebuild after retry: %v", err)
	}
	if cls.NumPositives(0) != 1 || cls.NumPositives(1) != 21 {
		t.Fatalf("positives = %d/%d", cls.NumPositives(0), cls.NumPositives(1))
	}
}

// TestRebuildRecentWindowExcludesPositive: the positive check is applied
// to the requested window, not the full buffer — a buffer that contains a
// positive outside the window still fails retryably.
func TestRebuildRecentWindowExcludesPositive(t *testing.T) {
	r, _ := NewRecalibrator(50, 1)
	if err := r.Add([]float64{0.9}, []bool{true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Add([]float64{0.1}, []bool{false}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.RebuildRecent(50); err != nil {
		t.Fatalf("full-buffer rebuild has a positive, got %v", err)
	}
	_, err := r.RebuildRecent(10)
	if !errors.Is(err, ErrInsufficientPositives) {
		t.Fatalf("window without positive: got %v, want ErrInsufficientPositives", err)
	}
}

// End-to-end: a conformal classifier calibrated on one score distribution
// loses coverage when the distribution shifts; the monitor catches it and
// the recalibrator restores coverage.
func TestDriftDetectAndRecalibrate(t *testing.T) {
	g := mathx.NewRNG(7)
	oldScore := func() float64 { return mathx.Clamp(g.Normal(0.7, 0.15), 0, 1) }
	newScore := func() float64 { return mathx.Clamp(g.Normal(0.35, 0.15), 0, 1) }

	calibB := make([][]float64, 400)
	calibL := make([][]bool, 400)
	for i := range calibB {
		calibB[i] = []float64{oldScore()}
		calibL[i] = []bool{true}
	}
	cls, err := conformal.NewClassifier(calibB, calibL)
	if err != nil {
		t.Fatal(err)
	}
	const c = 0.9
	mon, _ := newMonitor(c, 150, 0.01)
	rec, _ := NewRecalibrator(300, 1)

	// Phase 1: stationary — coverage holds, no alarm.
	for i := 0; i < 500; i++ {
		b := oldScore()
		kept := cls.Predict([]float64{b}, c)[0]
		rec.Add([]float64{b}, []bool{true})
		if mon.Observe(kept) {
			t.Fatalf("false alarm at stationary step %d (miss rate %.3f)", i, mon.MissRate())
		}
	}

	// Phase 2: the scorer degrades (feature drift) — alarm must fire.
	alarmAt := -1
	for i := 0; i < 600; i++ {
		b := newScore()
		kept := cls.Predict([]float64{b}, c)[0]
		rec.Add([]float64{b}, []bool{true})
		if mon.Observe(kept) {
			alarmAt = i
			break
		}
	}
	if alarmAt < 0 {
		t.Fatal("drift never detected")
	}

	// Phase 3: keep collecting post-alarm outcomes, then rebuild from only
	// the fresh tail of the buffer; coverage is restored on the new
	// distribution. (Rebuilding immediately at alarm time would calibrate
	// on a stale/fresh mixture and restore nothing.)
	for i := 0; i < 300; i++ {
		rec.Add([]float64{newScore()}, []bool{true})
	}
	cls2, err := rec.RebuildRecent(300)
	if err != nil {
		t.Fatal(err)
	}
	mon.Reset()
	kept := 0
	n := 1000
	for i := 0; i < n; i++ {
		if cls2.Predict([]float64{newScore()}, c)[0] {
			kept++
		}
	}
	cov := float64(kept) / float64(n)
	if cov < c-0.06 {
		t.Fatalf("post-recalibration coverage %.3f below target %.2f", cov, c)
	}
}
