package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"rumr/internal/experiment"
)

// fuzzEndpoints are the POST endpoints and the statuses the package doc
// and decodeBody promise for each, while a sweep without persistence is
// being served.
var fuzzEndpoints = []struct {
	path     string
	statuses []int
}{
	{"/v1/lease", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusServiceUnavailable, http.StatusGone}},
	{"/v1/heartbeat", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusNotFound, http.StatusGone}},
	{"/v1/result", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusConflict, http.StatusGone}},
}

// FuzzProtocolDecode posts arbitrary bodies to the coordinator's POST
// endpoints while a small sweep is active. Every answer must be a
// documented status, nothing may panic, and every block the coordinator
// takes must have the sweep's [error][algorithm] shape and pass its value
// rule.
func FuzzProtocolDecode(f *testing.F) {
	g := experiment.Grid{Ns: []int{10}, Rs: []float64{1.5}, CLats: []float64{0.1}, NLats: []float64{0.1, 0.5},
		Errors: []float64{0, 0.2}, Reps: 1, Total: 1000, BaseSeed: 2003}
	job := SweepJob{Grid: g, Algorithms: []string{"RUMR", "UMR"}}
	fp := experiment.Fingerprint(g, job.Algorithms, job.Model, job.UnknownError)
	// A lease body may carry an older worker's "max" batch cap; the
	// coordinator ignores the field and serves the lease.
	f.Add(uint8(0), []byte(`{"worker":"w0","max":1}`))
	f.Add(uint8(1), []byte(`{"worker":"w0","lease":1}`))
	f.Add(uint8(2), []byte(fmt.Sprintf(`{"worker":"w0","lease":1,"fingerprint":%q,"config":1,`+
		`"mean":[[10.5,null],[11.25,12]],"wall_ms":3,"engine":{"events_popped":7},"plans_built":1}`, fp)))
	// A ragged block with a valid fingerprint, which must be turned away.
	f.Add(uint8(2), []byte(fmt.Sprintf(`{"worker":"w0","fingerprint":%q,"config":0,"mean":[[10.5],[11.25,12]]}`, fp)))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		coord := NewCoordinator()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			coord.Run(ctx, job, RunOptions{}) //nolint:errcheck // cancelled below; a posted error report may fail it first
		}()
		defer func() { cancel(); <-done }()
		for deadline := time.Now().Add(5 * time.Second); !coord.Status().Active; {
			if time.Now().After(deadline) {
				t.Fatal("sweep never became active")
			}
			runtime.Gosched()
		}
		coord.mu.Lock()
		st := coord.job.state
		coord.mu.Unlock()

		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		documented := false
		for _, s := range ep.statuses {
			documented = documented || rec.Code == s
		}
		if !documented {
			t.Fatalf("POST %s answered %d (%q), not a documented status", ep.path, rec.Code, rec.Body.String())
		}
		// A block the coordinator took (200 for a block, not an error
		// report; decoded as the coordinator decodes it) must fit the
		// study: its shape and its values.
		var res Result
		if ep.path == "/v1/result" && rec.Code == http.StatusOK &&
			json.NewDecoder(bytes.NewReader(body)).Decode(&res) == nil && res.Error == "" {
			if block, err := experiment.DecodeCell(res.Mean); err != nil || !st.Accepts(block) {
				t.Fatalf("config %d: accepted a block the study refuses: %s", res.Config, res.Mean)
			}
		}
	})
}
