package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestLoadTestSmall exercises the load harness end to end at unit-test
// scale against an in-process daemon: every job terminal, none lost or
// duplicated.
func TestLoadTestSmall(t *testing.T) {
	srv, err := serve.New(serve.Options{StateDir: t.TempDir(), Workers: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain(2 * time.Second)
		hs.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := LoadTest(ctx, hs.URL, LoadOptions{Jobs: 40, Concurrency: 8}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Fatalf("load report: %s", rep)
	}
	if rep.Done != 40 {
		t.Fatalf("completed %d/40: %s", rep.Done, rep)
	}
}
