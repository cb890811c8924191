package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
)

// holdTransfers counts the worker requests that match, and while armed
// holds each one: it signals held and waits for the release (or for its
// caller to give up) before the worker serves it.
type holdTransfers struct {
	match   func(*http.Request) bool
	armed   atomic.Pointer[chan struct{}] // the release channel; nil when disarmed
	held    chan struct{}                 // one signal per held request, buffered past any test's count
	started atomic.Int32                  // matching requests received
	served  atomic.Int32                  // matching requests the worker has answered
}

func newHold(match func(*http.Request) bool) *holdTransfers {
	return &holdTransfers{match: match, held: make(chan struct{}, 16)}
}

func (h *holdTransfers) wrap(_ int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.match(r) {
			next.ServeHTTP(w, r)
			return
		}
		h.started.Add(1)
		if release := h.armed.Load(); release != nil {
			select {
			case h.held <- struct{}{}:
			default:
			}
			select {
			case <-*release:
			case <-r.Context().Done():
				return
			}
		}
		next.ServeHTTP(w, r)
		h.served.Add(1)
	})
}

// arm starts holding matching requests and returns the idempotent release,
// which the test's cleanup also runs, before the cluster's teardown.
func (h *holdTransfers) arm(t *testing.T) (release func()) {
	ch := make(chan struct{})
	h.armed.Store(&ch)
	var once sync.Once
	release = func() {
		once.Do(func() {
			h.armed.Store(nil)
			close(ch)
		})
	}
	t.Cleanup(release)
	return release
}

// awaitHeld waits until a matching request is held at a worker.
func (h *holdTransfers) awaitHeld(t *testing.T, ctx context.Context, what string) {
	t.Helper()
	select {
	case <-h.held:
	case <-ctx.Done():
		t.Fatalf("no %s was ever held at a worker", what)
	}
}

// requireConflict sends one request to the coordinator and requires a JSON
// 409, which carries no record bytes.
func requireConflict(t *testing.T, method, url string, body []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	var e struct {
		Error string `json:"error"`
	}
	if err != nil || resp.StatusCode != http.StatusConflict || resp.Header.Get("Content-Type") != "application/json" ||
		json.Unmarshal(raw, &e) != nil || e.Error == "" {
		t.Errorf("%s %s answered %d %q with a %d-byte body (%v), want a JSON 409",
			method, url, resp.StatusCode, resp.Header.Get("Content-Type"), len(raw), err)
	}
}

// TestClusterStripedAdmission pins bmmcd's dataset gate on a striped
// dataset. While a bit-reversal job's scatter is held at the workers, an
// upload, a download and a DELETE through the coordinator each answer a
// JSON 409, and the dataset reports one active job; once the scatter is
// released the job ends done and the dataset holds rev(input). A striped
// job submitted while a coordinator upload is held at a worker is refused
// with 409, and the upload then lands.
func TestClusterStripedAdmission(t *testing.T) {
	hold := newHold(func(r *http.Request) bool { return isStripeTransfer(r, "input") })
	tc := startTestClusterHTTP(t, 3, nil, hold.wrap)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dsID, input := stripedTestDataset(t, ctx, c)
	rev := bmmc.BitReversal(testCfg.LgN())

	release := hold.arm(t)
	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, rev))
	if err != nil {
		t.Fatal(err)
	}
	hold.awaitHeld(t, ctx, "scatter upload")
	url := tc.coordURL + "/v1/datasets/" + dsID
	if st, err := c.Dataset(ctx, dsID); err != nil || st.ActiveJobs != 1 {
		t.Errorf("dataset status mid-job: %+v (%v), want active_jobs 1", st, err)
	}
	requireConflict(t, http.MethodGet, url+"/output", nil)
	requireConflict(t, http.MethodDelete, url, nil)
	requireConflict(t, http.MethodPut, url+"/input", input)
	release()
	if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("held job: %v / %+v, want done", err, final)
	}
	requireRecords(t, ctx, c, dsID, applyPerm(rev, input), "after the held job")

	for len(hold.held) > 0 {
		<-hold.held
	}
	release = hold.arm(t)
	upErr := make(chan error, 1)
	go func() { upErr <- c.UploadDataset(ctx, dsID, bytes.NewReader(input)) }()
	hold.awaitHeld(t, ctx, "stripe upload")
	_, err = c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, rev))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Errorf("striped submit during an upload: %v, want 409", err)
	}
	release()
	if err := <-upErr; err != nil {
		t.Fatalf("held upload: %v", err)
	}
	requireRecords(t, ctx, c, dsID, input, "after the held upload")
}

// TestClusterRebalanceFollowsRelabel holds a stripe handoff that a worker's
// join started, at its source worker, while a striped job relabels the
// stripes, then releases it. The rebalance must record the move against
// the stripe it moved, wherever the relabel put that stripe, so the
// dataset still downloads as the oracle. The dataset's name places its
// four stripes on w1, and the join of w3 moves stripe 2 alone.
// Hypercube(n, 3<<(n-2)) flips the two stripe bits, relabeling stripe s as
// s⊕3; Hypercube(n, 1) flips a local bit and relabels nothing.
func TestClusterRebalanceFollowsRelabel(t *testing.T) {
	n := testCfg.LgN()
	for _, tt := range []struct {
		name string
		mask uint64
	}{
		{"relabel", 3 << (n - 2)},
		{"no-relabel", 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			hold := newHold(func(r *http.Request) bool {
				return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/handoff")
			})
			tc := startTestClusterHTTP(t, 2, nil, hold.wrap)
			c := tc.client()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Stripes: 4, ID: "rebalanced"})
			if err != nil {
				t.Fatal(err)
			}
			input := makeInput(testCfg.N)
			if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
				t.Fatal(err)
			}

			release := hold.arm(t)
			tc.addWorker(2, nil)
			hold.awaitHeld(t, ctx, "stripe handoff")
			p := bmmc.Hypercube(n, tt.mask)
			if final := runJob(t, ctx, c, ds.ID, p); final.State != client.StateDone {
				t.Fatalf("job during the handoff finished %s (%s), want done", final.State, final.Error)
			}
			release()
			// Every handoff answered, and each move recorded.
			for {
				moved := 0
				for _, w := range tc.coord.Workers() {
					if w.ID == "w3" {
						moved = w.Datasets
					}
				}
				if served := int(hold.served.Load()); served == int(hold.started.Load()) && moved == served {
					break
				}
				if ctx.Err() != nil {
					t.Fatalf("rebalance never settled: %+v", tc.coord.Workers())
				}
				time.Sleep(time.Millisecond)
			}
			requireRecords(t, ctx, c, ds.ID, applyPerm(p, input), "after the rebalance")
		})
	}
}

// TestClusterStripedJobContract checks a 4-stripe and an unstriped dataset
// the same way, since a striped job takes bmmcd's job record and request
// checks: a submit carrying a backend, await_input or a config other than
// the dataset's answers 400, and before any upload a plain job's status
// names the dataset's id, config and backend and reads input_loaded false.
func TestClusterStripedJobContract(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	gray := bmmc.GrayCode(testCfg.LgN())
	for _, stripes := range []int{4, 0} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Backend: client.BackendFile, Stripes: stripes})
			if err != nil {
				t.Fatal(err)
			}
			other := testCfg
			other.B /= 2
			for _, bad := range []struct {
				name string
				edit func(*client.SubmitRequest)
			}{
				{"backend", func(r *client.SubmitRequest) { r.Backend = client.BackendFile }},
				{"await_input", func(r *client.SubmitRequest) { r.AwaitInput = true }},
				{"config", func(r *client.SubmitRequest) { r.Config = other }},
			} {
				req := client.NewDatasetSubmitRequest(ds.ID, gray)
				bad.edit(&req)
				_, err := c.Submit(ctx, req)
				var ae *client.APIError
				if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
					t.Errorf("submit with %s: %v, want 400", bad.name, err)
				}
			}

			j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, gray))
			if err != nil {
				t.Fatal(err)
			}
			st, err := c.Status(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			for what, got := range map[string]*client.JobStatus{"submit": j, "status": st} {
				if got.Dataset != ds.ID || got.Config != testCfg || got.Backend != client.BackendFile || got.InputLoaded {
					t.Errorf("%s answered dataset %q, config %v, backend %q, input_loaded %v; want %q, %v, %q, false",
						what, got.Dataset, got.Config, got.Backend, got.InputLoaded, ds.ID, testCfg, client.BackendFile)
				}
			}
			if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
				t.Fatalf("plain job: %v / %+v, want done", err, final)
			}
		})
	}
}
