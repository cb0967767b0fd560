package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"eventhit/internal/cluster"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/serve"
	"eventhit/internal/video"
)

// TestStreamThroughFront: the camera side plays the same stream against one
// serve.Server and against a two-worker cluster front over the same bundle,
// is told the same decisions by both, and leaves no session behind.
func TestStreamThroughFront(t *testing.T) {
	task, err := harness.TaskByName("TA10")
	if err != nil {
		t.Fatal(err)
	}
	env, err := harness.NewEnv(task, harness.Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, task.NumEvents())
	for i, idx := range task.EventIdx {
		names[i] = task.Dataset.Events[idx].Name
	}
	cfg := serve.Config{Bundle: env.Bundle, EventNames: names, PerFrameUSD: 0.001, DefaultConfidence: 0.9, DefaultCoverage: 0.9}
	serveURL := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refs []cluster.WorkerRef
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{ID: fmt.Sprintf("worker-%d", i), Serve: cfg})
		if err != nil {
			t.Fatal(err)
		}
		url, err := w.Start("127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		refs = append(refs, cluster.WorkerRef{ID: w.ID, URL: url})
	}
	front, err := cluster.NewFront(cluster.FrontConfig{Workers: refs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	const seed = 99
	st := video.Generate(task.Dataset, mathx.NewRNG(seed))
	urls := []string{serveURL(srv), serveURL(front)}
	direct, err := stream(urls[0], task, st, seed, 20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaFront, err := stream(urls[1], task, st, seed, 20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range urls {
		if list, err := serve.NewClient(url, nil).Sessions(context.Background()); err != nil || len(list) != 0 {
			t.Fatalf("%s after the replay: sessions %+v, %v", url, list, err)
		}
	}
	relays := 0
	for _, e := range direct {
		if e.Relay {
			relays++
		}
	}
	if relays == 0 {
		t.Fatal("no decision relays: the comparison needs relay ranges")
	}
	if !reflect.DeepEqual(direct, viaFront) {
		t.Fatalf("the front told the camera %+v, the server %+v", viaFront, direct)
	}
}
