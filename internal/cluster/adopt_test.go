package cluster_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/client"
)

// TestClusterAdoptKeepsPlacedCopies re-runs adoption for every worker
// holding a copy of a whole and a 2-stripe dataset, as a re-join (or a
// stripe provisioned while the join's listing was in flight) would. A copy
// the placement already names on that worker is the live one: both
// datasets must still download byte-identical. A same-id copy on a worker
// the placement does not name is still stale and must be deleted.
func TestClusterAdoptKeepsPlacedCopies(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	inputs := map[string][]byte{}
	var wholeID string
	for _, stripes := range []int{1, 2} {
		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Stripes: stripes})
		if err != nil {
			t.Fatal(err)
		}
		in := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
		inputs[ds.ID] = in
		if stripes == 1 {
			wholeID = ds.ID
		}
	}

	// holds lists the live dataset ids on worker w.
	holds := func(w *testWorker) map[string]bool {
		t.Helper()
		dss, err := client.New(w.srv.URL).Datasets(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, ds := range dss {
			if !ds.Released {
				ids[ds.ID] = true
			}
		}
		return ids
	}
	var outsider *testWorker
	adopted := 0
	for _, w := range tc.workers {
		ids := holds(w)
		if !ids[wholeID] && outsider == nil {
			outsider = w
		}
		if len(ids) > 0 {
			tc.coord.Adopt(w.id, w.srv.URL)
			adopted++
		}
	}
	if adopted == 0 || outsider == nil {
		t.Fatalf("placement left no holder (%d) or no outsider (%v)", adopted, outsider)
	}

	verify := func(stage string) {
		t.Helper()
		for id, want := range inputs {
			var got bytes.Buffer
			if err := c.DownloadDataset(ctx, id, &got); err != nil {
				t.Fatalf("%s: downloading %s: %v", stage, id, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: dataset %s lost bytes", stage, id)
			}
		}
	}
	verify("after re-adoption")

	// A same-id copy on a worker the placement does not name is stale.
	wc := client.New(outsider.srv.URL)
	if _, err := wc.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, ID: wholeID}); err != nil {
		t.Fatal(err)
	}
	tc.coord.Adopt(outsider.id, outsider.srv.URL)
	if holds(outsider)[wholeID] {
		t.Fatalf("stale copy of %s on %s survived adoption", wholeID, outsider.id)
	}
	verify("after stale-copy adoption")
}
