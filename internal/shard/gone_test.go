package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestWorkerExitsWhenCoordinatorVanishes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no work", http.StatusServiceUnavailable)
	}))
	w := &Worker{Base: srv.URL, ID: "w", Client: srv.Client(), Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	time.Sleep(50 * time.Millisecond) // let it contact (503s)
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after coordinator vanished")
	}
}

// A served sweep's worker learns of the shutdown from the coordinator
// itself: the serving side drains before its server goes away, so the
// worker's Run returns nil promptly instead of retrying a dead address
// for tens of seconds.
func TestWorkerExitsPromptlyAfterDrain(t *testing.T) {
	coord := NewCoordinator()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	w := &Worker{Base: srv.URL, ID: "w0", Procs: 1, Client: srv.Client()}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := coord.Run(context.Background(), testJob(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	ended := time.Now()
	coord.Close()
	coord.Drain(context.Background())
	srv.Close() // the serving process exits
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker returned %v, want nil", err)
		}
		if d := time.Since(ended); d > 2*time.Second {
			t.Fatalf("worker exited %v after the sweep ended, want within 2s", d)
		}
	case <-time.After(2*time.Second - time.Since(ended)):
		t.Fatal("worker still running 2s after the sweep ended")
	}
}
