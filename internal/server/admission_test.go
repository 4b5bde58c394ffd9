package server

// Tests for the per-class admission budgets, the draining healthz
// lifecycle, and job-retention races — the serving-layer halves of the
// axload capacity work.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"axmemo/internal/obs"
)

// TestAdmissionIsolation is the acceptance e2e: with the sweep class
// saturated (slot held, queue full), figure requests bounce with 429
// while /v1/simulate keeps being admitted out of its own budget — no
// starvation.  The proof reads the deterministic obs snapshot's
// server_admission_total family.
func TestAdmissionIsolation(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, Workers: 2, QueueDepth: 8,
		SweepWorkers: 1, SweepQueueDepth: 1, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Saturate the sweep class out-of-band: occupy its only slot, then
	// park one request in its one queue position.
	srv.sweepC.sem <- struct{}{}
	queued := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	for i := 0; srv.sweepC.waiting.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("sweep request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The sweep storm: every further figure render is shed.
	rejected := 0
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/figures/ABL-RATE")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
		}
	}
	if rejected != 5 {
		t.Fatalf("sweep storm: %d/5 rejected, want all", rejected)
	}

	// Reads ride their own budget: every simulate is admitted.
	const sims = 6
	var wg sync.WaitGroup
	codes := make(chan int, sims)
	for i := 0; i < sims; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- postJSON(t, ts.URL+"/v1/simulate",
				simulateRequest{Benchmark: "sobel"}, nil)
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("simulate under sweep storm: status %d, want 200", code)
		}
	}

	// Release the sweep class and settle.
	<-srv.sweepC.sem
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued sweep request: status %d", code)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The deterministic snapshot carries the verdicts.
	snap, err := obs.ParseSnapshot(suite.Obs.Reg().SnapshotJSON(obs.Deterministic))
	if err != nil {
		t.Fatal(err)
	}
	adm := snap.Family("server_admission_total")
	if adm == nil {
		t.Fatal("server_admission_total missing from deterministic snapshot")
	}
	if got, _ := adm.Value(map[string]string{"route": "simulate", "verdict": "accepted"}); got != sims {
		t.Fatalf("simulate accepted = %v, want %d", got, sims)
	}
	if got := adm.SumValues(map[string]string{"route": "simulate", "verdict": "rejected"}); got != 0 {
		t.Fatalf("simulate rejected = %v, want 0 (read class starved)", got)
	}
	if got := adm.SumValues(map[string]string{"route": "simulate", "verdict": "timeout"}); got != 0 {
		t.Fatalf("simulate timeout = %v, want 0", got)
	}
	if got, _ := adm.Value(map[string]string{"route": "figures", "verdict": "rejected"}); got != 5 {
		t.Fatalf("figures rejected = %v, want 5", got)
	}
}

// TestHealthzDraining is the drain lifecycle: healthy 200 "ok" before,
// 503 "draining" the moment StartDrain is called (so cluster probes
// demote the peer before the listener closes), still 503 after Drain.
func TestHealthzDraining(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var hs struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hs); code != http.StatusOK || hs.Status != "ok" {
		t.Fatalf("pre-drain healthz: %d %q, want 200 ok", code, hs.Status)
	}
	if srv.draining.Load() {
		t.Fatal("server draining before StartDrain")
	}

	srv.StartDrain()
	srv.StartDrain() // idempotent
	if !srv.draining.Load() {
		t.Fatal("not draining after StartDrain")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := jsonDecode(resp, &body); err != nil || body.Status != "draining" {
		t.Fatalf("draining healthz body: %+v (%v)", body, err)
	}

	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", resp2.StatusCode)
	}
}

// TestDrainImpliesStartDrain: callers that only use Drain still stop
// advertising readiness.
func TestDrainImpliesStartDrain(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite})
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !srv.draining.Load() {
		t.Fatal("Drain did not mark the server draining")
	}
}

// TestJobSetRetentionRace hammers the jobSet invariants under -race:
// an unfinished job is always gettable (pruning only touches finished
// jobs), and a gettable job's view is always internally consistent.
func TestJobSetRetentionRace(t *testing.T) {
	js := newJobSet(3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%5)
				j, created, err := js.getOrCreate(key, []string{"ABL-RATE"})
				if err != nil {
					continue // at the active cap; legitimate shed
				}
				if created {
					// In-flight: must stay gettable through its run.
					for n := 0; n < 3; n++ {
						got, ok := js.get(j.id)
						if !ok {
							t.Errorf("in-flight job %s pruned", j.id)
							return
						}
						if got != j {
							t.Errorf("job id %s resolved to a different job", j.id)
							return
						}
					}
					j.setRunning(1)
					if _, ok := js.get(j.id); !ok {
						t.Errorf("running job %s pruned", j.id)
						return
					}
					j.finish(nil, nil)
					js.release(j)
				} else {
					// Deduplicated: the view must always be coherent.
					v := j.view()
					if v.ID != j.id {
						t.Errorf("view id %q for job %q", v.ID, j.id)
						return
					}
				}
				// Polling a finished-or-pruned id: ok=false or a finished
				// state, never a stale pointer to someone else's job.
				if got, ok := js.get(j.id); ok && got.id != j.id {
					t.Errorf("get(%s) returned job %s", j.id, got.id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestJobRetentionRaceHTTP drives the same race end to end: concurrent
// POST /v1/sweep + GET /v1/jobs/{id} + pruning at a tiny retention cap.
// Every 2xx-acknowledged job polls to a coherent state or a clean 404
// after it finished — never a wrong job, never a lost in-flight one.
func TestJobRetentionRaceHTTP(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, MaxJobs: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the single underlying figure so every sweep afterwards is a
	// cache hit: the race is in the job table, not the simulator.
	sweepOnce(t, ts.URL, []string{"ABL-RATE"})

	// Distinct dedup keys over identical (cached) work: repetition count
	// varies the canonical figure list.
	sets := [][]string{
		{"ABL-RATE"},
		{"ABL-RATE", "ABL-RATE"},
		{"ABL-RATE", "ABL-RATE", "ABL-RATE"},
		{"ABL-RATE", "ABL-RATE", "ABL-RATE", "ABL-RATE"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				set := sets[(w+i)%len(sets)]
				var sr sweepResponse
				code := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Figures: set}, &sr)
				switch code {
				case http.StatusAccepted, http.StatusOK:
				case http.StatusTooManyRequests:
					continue // active cap; legitimate shed
				default:
					t.Errorf("sweep: status %d", code)
					return
				}
				var v jobView
				switch gc := getJSON(t, ts.URL+"/v1/jobs/"+sr.Job, &v); gc {
				case http.StatusOK:
					if v.ID != sr.Job {
						t.Errorf("job %s answered as %s", sr.Job, v.ID)
						return
					}
					switch v.State {
					case JobPending, JobRunning:
					case JobDone:
						if len(v.Results) != len(set) {
							t.Errorf("done job %s: %d results, want %d", v.ID, len(v.Results), len(set))
							return
						}
					default:
						t.Errorf("job %s in state %q: %s", v.ID, v.State, v.Error)
						return
					}
				case http.StatusNotFound:
					// Only legal if the job finished and was pruned between
					// the POST and the GET — i.e. it must not be active now.
					if j, ok := srv.jobs.get(sr.Job); ok {
						t.Errorf("404 for live job %s (state %s)", sr.Job, j.view().State)
						return
					}
				default:
					t.Errorf("poll %s: status %d", sr.Job, gc)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// jsonDecode decodes a response body.
func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}
