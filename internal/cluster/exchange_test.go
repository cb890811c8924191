package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
)

// stripedTestDataset creates a 4-stripe testCfg dataset through the
// coordinator and uploads makeInput records onto it.
func stripedTestDataset(t *testing.T, ctx context.Context, c *client.Client) (string, []byte) {
	t.Helper()
	ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(testCfg.N)
	if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	return ds.ID, input
}

// runJob submits p on a dataset and waits for its terminal status.
func runJob(t *testing.T, ctx context.Context, c *client.Client, dsID string, p bmmc.Permutation) *client.JobStatus {
	t.Helper()
	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, p))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// requireRecords downloads a dataset through the coordinator and compares
// it with want.
func requireRecords(t *testing.T, ctx context.Context, c *client.Client, dsID string, want []byte, what string) {
	t.Helper()
	var got bytes.Buffer
	if err := c.DownloadDataset(ctx, dsID, &got); err != nil {
		t.Fatalf("%s: download: %v", what, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: records differ from the oracle", what)
	}
}

// isStripeTransfer reports whether r moves a stripe dataset's records in
// the given direction ("output" for a gather, "input" for a scatter).
func isStripeTransfer(r *http.Request, dir string) bool {
	return strings.Contains(r.URL.Path, "of4/") && strings.HasSuffix(r.URL.Path, "/"+dir)
}

// TestClusterExchangeRandomBMMC chains three seeded random BMMC
// permutations whose A_hl block is nonzero — so the coordinator gathers,
// routes and scatters every record — and requires each result to equal
// the single-node oracle, at the one-pass report the general path quotes.
func TestClusterExchangeRandomBMMC(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dsID, want := stripedTestDataset(t, ctx, c)

	n := testCfg.LgN()
	nl := n - 2 // four stripes: the top two address bits pick the stripe
	rng := bmmc.NewRand(7)
	for i := 0; i < 3; i++ {
		p := bmmc.RandomPermutation(rng, n)
		for p.A.Submatrix(nl, n, 0, nl).IsZero() || p.C == 0 {
			p = bmmc.RandomPermutation(rng, n)
		}
		final := runJob(t, ctx, c, dsID, p)
		if final.State != client.StateDone {
			t.Fatalf("random BMMC %d finished %s (%s), want done", i, final.State, final.Error)
		}
		if final.Report == nil || final.Report.Passes != 1 || final.Report.ParallelIOs != 0 {
			t.Fatalf("random BMMC %d report = %+v, want the exchange's {Passes: 1}", i, final.Report)
		}
		want = applyPerm(p, want)
		requireRecords(t, ctx, c, dsID, want, "random BMMC")
	}
}

// TestClusterExchangeStripeLength pins the gather's exact-length check: a
// worker that answers a stripe download one record short or one record
// long, with no transport error, fails the job with an error naming the
// stripe — before any stripe is scattered back — and the coordinator goes
// on serving the dataset unchanged.
func TestClusterExchangeStripeLength(t *testing.T) {
	for _, tt := range []struct {
		name  string
		delta int // bytes added to (or cut from) stripe 1's download
		msg   string
	}{
		{"short", -bmmc.RecordBytes, "short download"},
		{"long", bmmc.RecordBytes, "long download"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var armed atomic.Bool
			var scattered atomic.Int32
			tc := startTestClusterHTTP(t, 3, nil, func(_ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !armed.Load() {
						h.ServeHTTP(w, r)
						return
					}
					if isStripeTransfer(r, "input") {
						scattered.Add(1)
					}
					if !isStripeTransfer(r, "output") || !strings.Contains(r.URL.Path, "-s1of4/") {
						h.ServeHTTP(w, r)
						return
					}
					// Serve the real stripe resized, without the
					// Content-Length that would turn it into a transport
					// error.
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					body := rec.Body.Bytes()
					if tt.delta < 0 {
						body = body[:len(body)+tt.delta]
					} else {
						body = append(body, make([]byte, tt.delta)...)
					}
					w.WriteHeader(rec.Code)
					w.Write(body)
				})
			})
			c := tc.client()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			dsID, input := stripedTestDataset(t, ctx, c)

			rev := bmmc.BitReversal(testCfg.LgN())
			armed.Store(true)
			final := runJob(t, ctx, c, dsID, rev)
			armed.Store(false)
			if final.State != client.StateFailed || !strings.Contains(final.Error, "stripe 1") || !strings.Contains(final.Error, tt.msg) {
				t.Fatalf("job finished %s (%q), want failed with a %s on stripe 1", final.State, final.Error, tt.msg)
			}
			if n := scattered.Load(); n != 0 {
				t.Fatalf("%d stripes were uploaded after a bad gather, want none", n)
			}

			// The coordinator keeps serving: the records are untouched and a
			// clean retry succeeds.
			requireRecords(t, ctx, c, dsID, input, "after the failed job")
			if final := runJob(t, ctx, c, dsID, rev); final.State != client.StateDone {
				t.Fatalf("retry finished %s (%s), want done", final.State, final.Error)
			}
			requireRecords(t, ctx, c, dsID, applyPerm(rev, input), "after the retry")
		})
	}
}

// TestClusterExchangeCancelDuringGather cancels a general-path job while
// its stripe downloads are in flight: the job ends canceled, the gather
// transfers unwind, every stripe keeps its pre-job records, and the full
// teardown leaks no goroutine. A job canceled while queued behind it
// gives up its turn, so the next job still runs.
func TestClusterExchangeCancelDuringGather(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		var armed atomic.Bool
		gathering := make(chan struct{}, 4) // one slot per stripe download
		tc := startTestClusterHTTP(t, 3, nil, func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if armed.Load() && isStripeTransfer(r, "output") {
					select {
					case gathering <- struct{}{}:
					default:
					}
					<-r.Context().Done() // hold the download until the coordinator gives up
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		c := tc.client()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		dsID, input := stripedTestDataset(t, ctx, c)

		armed.Store(true)
		j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, bmmc.BitReversal(testCfg.LgN())))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-gathering:
		case <-ctx.Done():
			t.Fatal("the job never started its gather")
		}
		// A second job queues behind the first; canceling it while it waits
		// for its turn must still retire its ticket.
		j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, bmmc.GrayCode(testCfg.LgN())))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{j2.ID, j.ID} {
			if _, err := c.Cancel(ctx, id); err != nil {
				t.Fatal(err)
			}
			final, err := c.Watch(ctx, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != client.StateCanceled {
				t.Fatalf("job %s finished %s (%s), want canceled", id, final.State, final.Error)
			}
		}
		armed.Store(false)
		requireRecords(t, ctx, c, dsID, input, "after the canceled jobs")

		// Both tickets retired: a fresh job gets its turn.
		rev := bmmc.BitReversal(testCfg.LgN())
		if final := runJob(t, ctx, c, dsID, rev); final.State != client.StateDone {
			t.Fatalf("job after the cancellations finished %s (%s), want done", final.State, final.Error)
		}
		requireRecords(t, ctx, c, dsID, applyPerm(rev, input), "after the job that followed")
		tc.teardown()
	}()
	waitNoLeak(t, base)
}

// TestClusterStripedJobsSerialized submits two striped jobs back to back
// without waiting — a Gray code (per-node sub-jobs plus a stripe relabel)
// and a bit reversal (coordinator exchange), in both orders, five rounds
// each — and requires the dataset to hold their composition in
// submission order. The records are downloaded once per order, after the
// last round: a worker admits a sub-job only once the previous download's
// stream has closed on its side, which can trail the client's last byte.
func TestClusterStripedJobsSerialized(t *testing.T) {
	gray, rev := bmmc.GrayCode(testCfg.LgN()), bmmc.BitReversal(testCfg.LgN())
	for _, order := range [][]bmmc.Permutation{{gray, rev}, {rev, gray}} {
		tc := startTestCluster(t, 3, nil)
		c := tc.client()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		dsID, want := stripedTestDataset(t, ctx, c)
		for round := 0; round < 5; round++ {
			var ids []string
			for _, p := range order {
				j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dsID, p))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, j.ID)
			}
			for k, id := range ids {
				final, err := c.Watch(ctx, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				if final.State != client.StateDone {
					t.Fatalf("round %d job %d finished %s (%s), want done", round, k, final.State, final.Error)
				}
				want = applyPerm(order[k], want)
			}
		}
		requireRecords(t, ctx, c, dsID, want, "back-to-back striped jobs")
		tc.teardown()
	}
}
