package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

var tctx = context.Background()

// clusterBundle is one small trained bundle shared across the cluster
// tests — the same recipe the serve package trains for itself (test
// fixtures don't cross package boundaries).
type clusterBundle struct {
	b  *strategy.Bundle
	ex *features.Extractor
	st *video.Stream
}

var (
	cbOnce sync.Once
	cbFx   *clusterBundle
)

func getClusterBundle(t testing.TB) *clusterBundle {
	t.Helper()
	cbOnce.Do(func() {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
		if err != nil {
			panic(err)
		}
		splits, err := dataset.Build(ex, dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 300, NCCalib: 200, NRCalib: 150, NTest: 10,
			TrainPosFrac: 0.5,
		}, mathx.NewRNG(2))
		if err != nil {
			panic(err)
		}
		m, err := core.New(core.DefaultConfig(ex.Dim(), 10, 200, 1))
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 6
		if _, err := m.Train(splits.Train, tc); err != nil {
			panic(err)
		}
		b, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			panic(err)
		}
		cbFx = &clusterBundle{b: b, ex: ex, st: st}
	})
	return cbFx
}

func baseServeConfig(bw *clusterBundle) serve.Config {
	return serve.Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
	}
}

// frontFixture is a two-worker cluster behind one front, with a budget
// coordinator on the side.
type frontFixture struct {
	front   *Front
	frontTS *httptest.Server
	coordTS *httptest.Server
	workers []*Worker
	urls    []string
}

func newFrontFixture(t *testing.T, nWorkers int) *frontFixture {
	t.Helper()
	return newFrontFixtureWith(t, nWorkers, CoordinatorConfig{BudgetUSD: 1, PerFrameUSD: 0.001}, baseServeConfig)
}

// newFrontFixtureWith is newFrontFixture over a chosen coordinator and
// per-worker serve config (called once per worker: a CI is not shared).
func newFrontFixtureWith(t *testing.T, nWorkers int, ccfg CoordinatorConfig, serveCfg func(*clusterBundle) serve.Config) *frontFixture {
	t.Helper()
	bw := getClusterBundle(t)
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)

	fx := &frontFixture{coordTS: coordTS}
	var refs []WorkerRef
	for i := 0; i < nWorkers; i++ {
		id := fmt.Sprintf("worker-%d", i)
		w, err := NewWorker(WorkerConfig{ID: id, Coordinator: coordTS.URL, Serve: serveCfg(bw)})
		if err != nil {
			t.Fatal(err)
		}
		url, err := w.Start("127.0.0.1:0", coordTS.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		fx.workers = append(fx.workers, w)
		fx.urls = append(fx.urls, url)
		refs = append(refs, WorkerRef{ID: id, URL: url})
	}
	front, err := NewFront(FrontConfig{Workers: refs, Coordinator: coordTS.URL})
	if err != nil {
		t.Fatal(err)
	}
	fx.front = front
	fx.frontTS = httptest.NewServer(front)
	t.Cleanup(fx.frontTS.Close)
	return fx
}

// TestFrontRoutesAndProxies is the front's core contract: sessions created
// through the front spread over the workers by consistent hashing, every
// session lands exactly where RouteFor says, and the frames/predict data
// path proxied through the front behaves like a direct serve connection.
func TestFrontRoutesAndProxies(t *testing.T) {
	fx := newFrontFixture(t, 2)
	bw := getClusterBundle(t)
	fc := serve.NewClient(fx.frontTS.URL, fx.frontTS.Client())

	// Create sessions through the front (server-generated IDs).
	var ids []string
	for i := 0; i < 32; i++ {
		id, err := fc.CreateSession(tctx, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Every session must live on exactly the worker its ID hashes to.
	placed := make(map[string]map[string]bool, len(fx.workers)) // workerID -> session set
	for i, w := range fx.workers {
		wc := serve.NewClient(fx.urls[i], nil)
		list, err := wc.Sessions(tctx)
		if err != nil {
			t.Fatal(err)
		}
		placed[w.ID] = make(map[string]bool)
		for _, si := range list {
			placed[w.ID][si.ID] = true
		}
	}
	perWorker := make(map[string]int)
	for _, id := range ids {
		wr, ok := fx.front.RouteFor(id)
		if !ok {
			t.Fatalf("no route for %s", id)
		}
		if !placed[wr.ID][id] {
			t.Fatalf("session %s routed to %s but not found there", id, wr.ID)
		}
		perWorker[wr.ID]++
	}
	if len(perWorker) != 2 {
		t.Fatalf("32 sessions all landed on one worker: %v", perWorker)
	}

	// Data path through the front: fill one session's window and predict.
	id := ids[0]
	frames := make([][]float64, 10)
	for i := range frames {
		frames[i] = bw.ex.FrameVector(1000+i, nil)
	}
	if _, err := fc.PushFrames(tctx, id, frames); err != nil {
		t.Fatal(err)
	}
	resp, err := fc.Predict(tctx, id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Anchor != 9 || len(resp.Decisions) != 1 {
		t.Fatalf("proxied predict = %+v", resp)
	}

	// Unknown-session errors pass through verbatim.
	if _, err := fc.Predict(tctx, "no-such-session", 0, 0); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown session through front: %v", err)
	}

	// The front counted its proxying per worker.
	routed := fx.front.Routed()
	total := int64(0)
	for _, n := range routed {
		total += n
	}
	// 32 creates + 1 frames + 2 predicts.
	if total != 35 {
		t.Fatalf("routed %v (total %d), want 35 proxied requests", routed, total)
	}
}

// TestFrontProxyForwardsContentLength: a proxied request reaches the worker
// with the length the client declared, not re-framed as a chunked body of
// unknown length (which costs the worker its ingest presize and a chunk
// decoder per push); a body-less predict stays body-less.
func TestFrontProxyForwardsContentLength(t *testing.T) {
	type framing struct {
		length int64
		te     []string
	}
	got := make(chan framing, 1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		got <- framing{r.ContentLength, r.TransferEncoding}
	}))
	defer worker.Close()
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: worker.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()
	for _, c := range []struct{ path, body string }{
		{"/v1/sessions/cam-1/frames", `{"frames":[[0.5,0.25,0.125]]}`},
		{"/v1/sessions/cam-1/predict", ""},
	} {
		resp, err := http.Post(frontTS.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if f := <-got; f.length != int64(len(c.body)) || len(f.te) != 0 {
			t.Errorf("%s: worker saw Content-Length %d, Transfer-Encoding %v; client sent %d bytes",
				c.path, f.length, f.te, len(c.body))
		}
	}
}

// workerStats reads GET /v1/stats from the worker at url.
func workerStats(t *testing.T, url string) serve.Stats {
	t.Helper()
	var st serve.Stats
	getJSONURL(t, url+"/v1/stats", &st)
	return st
}

// getJSONURL GETs url and decodes its 200 reply into out.
func getJSONURL(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestFrontSessionNamedDefault: "default" names a session like any other.
// Through a two-worker front it is created, listed and counted once, and
// the /v1/stats totals count what the list holds; POST /v1/frames and
// /v1/predict, which name no session, are 404.
func TestFrontSessionNamedDefault(t *testing.T) {
	fx := newFrontFixture(t, 2)
	post := func(path, body string) int {
		t.Helper()
		resp, err := fx.frontTS.Client().Post(fx.frontTS.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/sessions", `{"id":"default"}`); code != http.StatusCreated {
		t.Fatalf("creating session \"default\": %d, want 201", code)
	}
	var list []serve.SessionInfo
	getJSONURL(t, fx.frontTS.URL+"/v1/sessions", &list)
	if len(list) != 1 || list[0].ID != "default" {
		t.Fatalf("session list %+v, want session \"default\" alone", list)
	}
	var cs ClusterStats
	getJSONURL(t, fx.frontTS.URL+"/v1/stats", &cs)
	if cs.Totals.Sessions != len(list) {
		t.Fatalf("/v1/stats totals count %d sessions, the list %d", cs.Totals.Sessions, len(list))
	}
	for _, path := range []string{"/v1/frames", "/v1/predict"} {
		if code := post(path, `{"frames":[[0.5]]}`); code != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", path, code)
		}
	}
}

// TestFrontSessionListAndStats: the fan-out surfaces — the merged session
// list holds every routed session, and /v1/stats totals are the sum of the
// workers' counters.
func TestFrontSessionListAndStats(t *testing.T) {
	fx := newFrontFixture(t, 2)
	bw := getClusterBundle(t)
	fc := serve.NewClient(fx.frontTS.URL, fx.frontTS.Client())

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := fc.CreateSession(tctx, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	frames := make([][]float64, 10)
	for i := range frames {
		frames[i] = bw.ex.FrameVector(2000+i, nil)
	}
	for _, id := range ids {
		if _, err := fc.PushFrames(tctx, id, frames); err != nil {
			t.Fatal(err)
		}
		if _, err := fc.Predict(tctx, id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	list, err := fc.Sessions(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("merged session list has %d entries, want %d: %+v", len(list), len(ids), list)
	}

	cs := fx.front.Stats()
	if cs.Workers != 2 {
		t.Fatalf("stats sees %d workers", cs.Workers)
	}
	var sumPred int64
	var sumFrames int
	for _, ws := range cs.PerWorker {
		if ws.Err != "" {
			t.Fatalf("worker %s stats error: %s", ws.ID, ws.Err)
		}
		sumPred += ws.Stats.Predictions
		sumFrames += ws.Stats.FramesIngested
	}
	if cs.Totals.Predictions != sumPred || cs.Totals.Predictions != int64(len(ids)) {
		t.Fatalf("total predictions %d, per-worker sum %d, want %d", cs.Totals.Predictions, sumPred, len(ids))
	}
	if cs.Totals.FramesIngested != sumFrames {
		t.Fatalf("total frames %d != sum %d", cs.Totals.FramesIngested, sumFrames)
	}
	if cs.Totals.Sessions != len(ids) {
		t.Fatalf("total sessions %d, want %d", cs.Totals.Sessions, len(ids))
	}

	checkTotals(t, cs.Totals, cs.PerWorker)
	// The live fixture leaves most counters at zero and most flags off, where
	// a dropped field totals correctly by accident: fill every field of two
	// synthetic workers with distinct non-zero values, each flag on at
	// exactly one of them, and total those too.
	synth := make([]WorkerStats, 2)
	for w := range synth {
		v := reflect.ValueOf(&synth[w].Stats).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case f.CanInt():
				f.SetInt(int64((i + 1) * (w + 1)))
			case f.CanUint():
				f.SetUint(uint64((i + 1) * (w + 1)))
			case f.CanFloat():
				f.SetFloat(float64(i+1) * (float64(w) + 0.5))
			case f.Kind() == reflect.Bool:
				f.SetBool((i+w)%2 == 0)
			}
		}
	}
	checkTotals(t, totalsOf(synth), synth)

	// The same body over HTTP.
	var over ClusterStats
	resp, err := fx.frontTS.Client().Get(fx.frontTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&over); err != nil {
		t.Fatal(err)
	}
	if over.Totals.Predictions != cs.Totals.Predictions {
		t.Fatalf("HTTP stats disagree with direct: %d vs %d", over.Totals.Predictions, cs.Totals.Predictions)
	}
}

// perWorkerOnly names the numeric serve.Stats fields the front's totals do
// not sum: a worker-local generation counter, the one global budget every
// worker repeats, and the hit ratio, which the totals derive from the summed
// hits and misses. Any other numeric field must add up.
var perWorkerOnly = map[string]bool{
	"ModelGeneration": true,
	"BudgetUSD":       true,
	"CacheHitRatio":   true,
}

// checkTotals walks serve.Stats by reflection so a field added to serve
// cannot vanish at the front: every numeric field of totals equals the sum
// over the workers, or is on the perWorkerOnly list, and every bool field
// equals the OR over the workers.
func checkTotals(t *testing.T, totals serve.Stats, per []WorkerStats) {
	t.Helper()
	num := func(v reflect.Value) (float64, bool) {
		switch {
		case v.CanInt():
			return float64(v.Int()), true
		case v.CanUint():
			return float64(v.Uint()), true
		case v.CanFloat():
			return v.Float(), true
		}
		return 0, false
	}
	tv := reflect.ValueOf(totals)
	for i := 0; i < tv.NumField(); i++ {
		name := tv.Type().Field(i).Name
		if tv.Field(i).Kind() == reflect.Bool {
			want := false
			for _, ws := range per {
				want = want || reflect.ValueOf(ws.Stats).Field(i).Bool()
			}
			if got := tv.Field(i).Bool(); got != want {
				t.Errorf("totals.%s = %v, OR over workers %v", name, got, want)
			}
			continue
		}
		got, ok := num(tv.Field(i))
		if !ok || perWorkerOnly[name] {
			continue
		}
		var want float64
		for _, ws := range per {
			x, _ := num(reflect.ValueOf(ws.Stats).Field(i))
			want += x
		}
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("totals.%s = %v, per-worker sum %v", name, got, want)
		}
	}
	if n := totals.CacheHits + totals.CacheMisses; n > 0 {
		if want := float64(totals.CacheHits) / float64(n); totals.CacheHitRatio != want {
			t.Errorf("totals.CacheHitRatio = %v, want hits/(hits+misses) = %v", totals.CacheHitRatio, want)
		}
	}
}

// TestFrontStatsSharedCacheCountsOnce: with a coordinator-hosted cache a
// lookup shows up once in the front's totals — at the worker that made it.
// Twin cameras on worker-0 relay identical windows (the second is a hit at
// epsilon 0); worker-1 is idle and must report no lookups, and the totals
// must equal the coordinator cache's own meters.
func TestFrontStatsSharedCacheCountsOnce(t *testing.T) {
	bw := getClusterBundle(t)
	cacheCfg := cicache.DefaultConfig()
	fx := newFrontFixtureWith(t, 2, CoordinatorConfig{Cache: &cacheCfg}, func(bw *clusterBundle) serve.Config {
		cfg := baseServeConfig(bw)
		cfg.CI = cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
		return cfg
	})

	// Straight to worker-0, past the front's hashing: the twins push the
	// same frames and predict at the same anchors.
	c0 := serve.NewClient(fx.urls[0], nil)
	twins := []string{"cam-a", "cam-b"}
	for _, id := range twins {
		if _, err := c0.CreateSession(tctx, id); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for step, misses := 0, int64(0); step < 40 && misses < 3; step++ {
		frames := make([][]float64, 0, 50)
		for ; len(frames) < cap(frames); next++ {
			frames = append(frames, bw.ex.FrameVector(next, nil))
		}
		for _, id := range twins {
			if _, err := c0.PushFrames(tctx, id, frames); err != nil {
				t.Fatal(err)
			}
			if _, err := c0.Predict(tctx, id, 0.99, 0.9); err != nil {
				t.Fatal(err)
			}
		}
		misses = workerStats(t, fx.urls[0]).CacheMisses
	}
	// The operator's view of the shared cache: the coordinator's endpoint.
	var shared cicache.Stats
	resp, err := fx.coordTS.Client().Get(fx.coordTS.URL + "/v1/cluster/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&shared); err != nil {
		t.Fatal(err)
	}
	if shared.Misses < 3 || shared.Hits == 0 {
		t.Fatalf("fixture relayed too little: coordinator cache %+v", shared)
	}

	cs := fx.front.Stats()
	for _, ws := range cs.PerWorker {
		if ws.Err != "" {
			t.Fatalf("worker %s stats error: %s", ws.ID, ws.Err)
		}
	}
	busy, idle := cs.PerWorker[0].Stats, cs.PerWorker[1].Stats
	if !idle.CacheEnabled || idle.CacheHits != 0 || idle.CacheMisses != 0 {
		t.Errorf("idle worker reports lookups it never made: hits %d misses %d", idle.CacheHits, idle.CacheMisses)
	}
	if busy.CacheHits != shared.Hits || busy.CacheMisses != shared.Misses {
		t.Errorf("busy worker hits/misses %d/%d, coordinator cache %d/%d",
			busy.CacheHits, busy.CacheMisses, shared.Hits, shared.Misses)
	}
	if cs.Totals.CacheHits != shared.Hits || cs.Totals.CacheMisses != shared.Misses {
		t.Errorf("totals hits/misses %d/%d, coordinator cache %d/%d",
			cs.Totals.CacheHits, cs.Totals.CacheMisses, shared.Hits, shared.Misses)
	}
	checkTotals(t, cs.Totals, cs.PerWorker)
}

// TestFrontModelBroadcast: POST /v1/model through the front lands the
// bundle on every worker and reports per-worker outcomes.
func TestFrontModelBroadcast(t *testing.T) {
	fx := newFrontFixture(t, 2)
	bw := getClusterBundle(t)
	var buf bytes.Buffer
	if err := bw.b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := fx.frontTS.Client().Post(fx.frontTS.URL+"/v1/model", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("broadcast -> %d: %s", resp.StatusCode, b)
	}
	var results []struct {
		ID     string `json:"id"`
		Status int    `json:"status"`
		Err    string `json:"err"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("broadcast reported %d workers", len(results))
	}
	for _, pr := range results {
		if pr.Status != http.StatusOK {
			t.Fatalf("worker %s rejected broadcast: %d %s", pr.ID, pr.Status, pr.Err)
		}
	}
	for i := range fx.workers {
		if st := workerStats(t, fx.urls[i]); st.AdminSwaps != 1 || st.ModelGeneration == 0 {
			t.Fatalf("worker %d did not swap: %+v", i, st)
		}
	}
}

// TestFrontReadyz: the front is ready only when EVERY worker is; one
// draining worker flips the whole cluster to 503 with the worker named.
func TestFrontReadyz(t *testing.T) {
	fx := newFrontFixture(t, 2)
	get := func() (int, struct {
		Ready   bool          `json:"ready"`
		Workers []WorkerReady `json:"workers"`
	}) {
		var body struct {
			Ready   bool          `json:"ready"`
			Workers []WorkerReady `json:"workers"`
		}
		resp, err := fx.frontTS.Client().Get(fx.frontTS.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get(); code != http.StatusOK || !body.Ready || len(body.Workers) != 2 {
		t.Fatalf("healthy cluster readyz = %d %+v", code, body)
	}
	fx.workers[1].Server().SetDraining(true)
	code, body := get()
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("draining worker left cluster ready: %d %+v", code, body)
	}
	found := false
	for _, ws := range body.Workers {
		if ws.ID == fx.workers[1].ID && !ws.Ready {
			found = true
		}
	}
	if !found {
		t.Fatalf("draining worker not identified in %+v", body.Workers)
	}
	fx.workers[1].Server().SetDraining(false)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("cluster not ready after drain cleared: %d", code)
	}
}

// TestFrontMetricsAndBudget: the front's /metrics aggregates worker
// counters under cluster families, and /v1/cluster/budget proxies the
// coordinator ledger.
func TestFrontMetricsAndBudget(t *testing.T) {
	fx := newFrontFixture(t, 2)
	resp, err := fx.frontTS.Client().Get(fx.frontTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"eventhit_cluster_workers 2",
		"eventhit_cluster_workers_ready 2",
		"eventhit_cluster_predictions_total",
		"eventhit_cluster_estimated_usd",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("front metrics missing %q:\n%s", want, text)
		}
	}
	var bs BudgetStatus
	resp, err = fx.frontTS.Client().Get(fx.frontTS.URL + "/v1/cluster/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&bs); err != nil {
		t.Fatal(err)
	}
	if bs.BudgetUSD != 1 || bs.MaxFrames <= 0 {
		t.Fatalf("budget passthrough = %+v", bs)
	}
}
