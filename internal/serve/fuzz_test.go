package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// The fuzz battery drives the two JSON endpoints with adversarial input.
// The contract under fuzz: the server never panics and never answers 5xx —
// malformed bodies, NaN/Inf covariates and oversized batches are all client
// errors (4xx). Handlers are exercised in-process via ServeHTTP so a panic
// fails the fuzz run instead of being swallowed by a connection teardown.
// The seed corpus lives in testdata/fuzz/ and runs as ordinary tests under
// `go test` (see scripts/check.sh); `go test -fuzz=FuzzFrames` explores
// further.

// fuzzServer returns a shared handler for fuzzing; session "c0"'s window is
// pre-filled so predict requests reach the model path, not just the 409
// guard.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	srv := sessionServer(f, nil, 1)
	pushTo(f, srv, "c0", getBundle(f).ex, 100, 109)
	return srv
}

func FuzzFrames(f *testing.F) {
	bw := getBundle(f)
	d := bw.b.Model.Config().InputDim
	good := make([]float64, d)
	goodBody, _ := json.Marshal(FramesRequest{Frames: [][]float64{good}})
	f.Add(goodBody)
	f.Add([]byte(`{"frames": [[1,`))
	f.Add([]byte(`{"frames": []}`))
	f.Add([]byte(`{"frames": [[1e308, 1e308, 1e308]]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"frames": "wrong type"}`))
	f.Add([]byte(fmt.Sprintf(`{"frames": [[%s1]]}`, strings.Repeat("1,", 4096))))
	// An oversized batch: one frame over the per-push limit.
	f.Add([]byte(`{"frames": [` + strings.Repeat("[0],", MaxFramesPerPush) + `[0]]}`))

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/frames", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("frames returned %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

func FuzzPredict(f *testing.F) {
	f.Add("0.9", "0.9")
	f.Add("NaN", "0.9")
	f.Add("+Inf", "0.5")
	f.Add("-0", "1e-300")
	f.Add("0.9999999999999999999999", "0x1p-1")
	f.Add("", "")
	f.Add("garbage", "2")

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, conf, cov string) {
		q := url.Values{}
		if conf != "" {
			q.Set("confidence", conf)
		}
		if cov != "" {
			q.Set("coverage", cov)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/predict?"+q.Encode(), nil))
		if rec.Code >= 500 {
			t.Fatalf("predict returned %d for conf=%q cov=%q: %s", rec.Code, conf, cov, rec.Body)
		}
		if rec.Code == 200 {
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response is not a PredictResponse: %v", err)
			}
		}
	})
}
