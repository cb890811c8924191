package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// Record bodies a contract step can send.
const (
	noRecords    = iota
	exactRecords // N records under a matching Content-Length
	shortLength  // N-1 records under a Content-Length that says so
	shortChunked // N-1 records, chunked
	longChunked  // N+1 records, chunked
)

// contractStep is one raw HTTP request that bmmcd and the coordinator must
// answer alike. Paths and JSON bodies may name {ds} (the run's dataset)
// and any job id an earlier step saved.
type contractStep struct {
	name    string
	method  string
	path    string
	body    string // JSON or raw text; sent when records is noRecords
	records int
	save    string // bind this placeholder to the id in a 201 answer
	settle  bool   // poll the job at path until it is terminal, then compare states
	want    []byte // the records a 200 answer must carry
	// differs names a deliberate difference between the tiers: their
	// status codes are then not compared. striped limits it to the run on
	// a striped dataset, and anyError lets the coordinator's error body be
	// something other than JSON.
	differs  string
	striped  bool
	anyError bool
}

// contractTier is one HTTP surface under test and the ids it minted.
type contractTier struct {
	name    string
	url     string
	stripes int
	ids     map[string]string
}

// contractAnswer is what a tier answered to one step.
type contractAnswer struct {
	status int
	ctype  string
	body   []byte
	state  client.State // settled job state
}

// TestV1Contract sends one table of raw requests to a bmmcd and to a
// coordinator with three workers, once on an unstriped and once on a
// 4-stripe file dataset (bmmcd's dataset is always whole). Both must
// answer every request with the same status, every error as a JSON
// {"error"} body, settle every job in the same state and serve
// byte-identical downloads. The steps marked differs are the deliberate
// differences between a daemon and a coordinator.
func TestV1Contract(t *testing.T) {
	n := testCfg.LgN()
	gray, rev := bmmc.GrayCode(n), bmmc.BitReversal(n)
	input := makeInput(testCfg.N)
	afterGray := applyPerm(gray, input)
	afterRev := applyPerm(rev, afterGray)
	perm := func(p bmmc.Permutation) string { return string(bmmc.MarshalPermutation(p)) }
	submit := func(ds string, p bmmc.Permutation, extra string) string {
		b, _ := json.Marshal(perm(p))
		return fmt.Sprintf(`{"dataset":%q,"perm":%s%s}`, ds, b, extra)
	}
	cfgJSON, _ := json.Marshal(testCfg)
	other := testCfg
	other.B /= 2
	otherJSON, _ := json.Marshal(other)
	grayJSON, _ := json.Marshal(perm(gray))
	const deleted = "bmmcd keeps a deleted dataset's record (GET and DELETE answer 200, streams and submits 410); the coordinator drops the placement (404)"

	steps := []contractStep{
		// Unknown ids on every route.
		{name: "unknown job status", method: http.MethodGet, path: "/v1/jobs/nope"},
		{name: "unknown job events", method: http.MethodGet, path: "/v1/jobs/nope/events"},
		{name: "unknown job trace", method: http.MethodGet, path: "/v1/jobs/nope/trace"},
		{name: "unknown job cancel", method: http.MethodDelete, path: "/v1/jobs/nope"},
		{name: "unknown job input", method: http.MethodPut, path: "/v1/jobs/nope/input", records: exactRecords},
		{name: "unknown job output", method: http.MethodGet, path: "/v1/jobs/nope/output"},
		{name: "unknown dataset status", method: http.MethodGet, path: "/v1/datasets/nope"},
		{name: "unknown dataset delete", method: http.MethodDelete, path: "/v1/datasets/nope"},
		{name: "unknown dataset input", method: http.MethodPut, path: "/v1/datasets/nope/input", records: exactRecords},
		{name: "unknown dataset output", method: http.MethodGet, path: "/v1/datasets/nope/output"},
		{name: "submit on an unknown dataset", method: http.MethodPost, path: "/v1/jobs", body: submit("nope", gray, "")},

		// Malformed requests.
		{name: "submit malformed JSON", method: http.MethodPost, path: "/v1/jobs", body: "{"},
		{name: "submit an unparsable perm", method: http.MethodPost, path: "/v1/jobs", body: `{"dataset":"{ds}","perm":"garbage"}`},
		{name: "create malformed JSON", method: http.MethodPost, path: "/v1/datasets", body: "{"},
		{name: "create an invalid geometry", method: http.MethodPost, path: "/v1/datasets", body: `{"config":{"N":1000,"D":4,"B":16,"M":256}}`},
		{name: "create an unknown backend", method: http.MethodPost, path: "/v1/datasets", body: fmt.Sprintf(`{"config":%s,"backend":"tape"}`, cfgJSON)},
		{name: "create a bad id", method: http.MethodPost, path: "/v1/datasets", body: fmt.Sprintf(`{"config":%s,"id":"bad id"}`, cfgJSON)},
		{name: "create a taken id", method: http.MethodPost, path: "/v1/datasets", body: fmt.Sprintf(`{"config":%s,"id":"{ds}"}`, cfgJSON)},
		{name: "create a stripe-reserved id", method: http.MethodPost, path: "/v1/datasets", body: fmt.Sprintf(`{"config":%s,"id":"reserved-s0of4"}`, cfgJSON),
			differs: "only the coordinator reserves *-s<j>of<k> ids for stripes"},
		{name: "create a striped dataset", method: http.MethodPost, path: "/v1/datasets", body: fmt.Sprintf(`{"config":%s,"stripes":4}`, cfgJSON),
			differs: "only the coordinator stripes a dataset"},

		// The dataset's data plane.
		{name: "dataset status", method: http.MethodGet, path: "/v1/datasets/{ds}"},
		{name: "upload under a wrong Content-Length", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: shortLength},
		{name: "upload a short chunked body", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: shortChunked},
		{name: "upload a long chunked body", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: longChunked,
			differs: "a striped upload commits stripe by stripe, so a body past N records is not refused before it commits (ROADMAP item 16)", striped: true},
		{name: "upload", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: exactRecords},
		{name: "download the upload", method: http.MethodGet, path: "/v1/datasets/{ds}/output", want: input},

		// Dataset jobs.
		{name: "submit with a backend", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", gray, `,"backend":"file"`)},
		{name: "submit with await_input", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", gray, `,"await_input":true`)},
		{name: "submit with another config", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", gray, fmt.Sprintf(`,"config":%s`, otherJSON))},
		{name: "submit gray", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", gray, ""), save: "{gray}"},
		{name: "settle gray", method: http.MethodGet, path: "/v1/jobs/{gray}", settle: true},
		{name: "job events", method: http.MethodGet, path: "/v1/jobs/{gray}/events"},
		{name: "job trace", method: http.MethodGet, path: "/v1/jobs/{gray}/trace"},
		{name: "input on a dataset job", method: http.MethodPut, path: "/v1/jobs/{gray}/input", records: exactRecords},
		{name: "output on a dataset job", method: http.MethodGet, path: "/v1/jobs/{gray}/output"},
		{name: "cancel a terminal job", method: http.MethodDelete, path: "/v1/jobs/{gray}"},
		{name: "status after the cancel", method: http.MethodGet, path: "/v1/jobs/{gray}", settle: true},
		{name: "download after gray", method: http.MethodGet, path: "/v1/datasets/{ds}/output", want: afterGray},
		{name: "submit rev", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", rev, ""), save: "{rev}"},
		{name: "settle rev", method: http.MethodGet, path: "/v1/jobs/{rev}", settle: true},
		{name: "download after rev", method: http.MethodGet, path: "/v1/datasets/{ds}/output", want: afterRev},

		// A standalone job and its own data plane.
		{name: "submit standalone", method: http.MethodPost, path: "/v1/jobs",
			body: fmt.Sprintf(`{"config":%s,"perm":%s,"await_input":true}`, cfgJSON, grayJSON), save: "{alone}"},
		{name: "standalone output before input", method: http.MethodGet, path: "/v1/jobs/{alone}/output"},
		{name: "standalone input under a wrong Content-Length", method: http.MethodPut, path: "/v1/jobs/{alone}/input", records: shortLength},
		{name: "standalone input", method: http.MethodPut, path: "/v1/jobs/{alone}/input", records: exactRecords},
		{name: "settle standalone", method: http.MethodGet, path: "/v1/jobs/{alone}", settle: true},
		{name: "standalone output", method: http.MethodGet, path: "/v1/jobs/{alone}/output", want: afterGray},
		{name: "release standalone", method: http.MethodDelete, path: "/v1/jobs/{alone}"},
		{name: "released standalone output", method: http.MethodGet, path: "/v1/jobs/{alone}/output"},

		// Lists and metrics.
		{name: "list jobs", method: http.MethodGet, path: "/v1/jobs"},
		{name: "list datasets", method: http.MethodGet, path: "/v1/datasets"},
		{name: "metrics", method: http.MethodGet, path: "/v1/metrics"},
		{name: "prometheus", method: http.MethodGet, path: "/metrics"},

		{name: "handoff", method: http.MethodPost, path: "/v1/datasets/{ds}/handoff", body: `{"target":""}`,
			differs: "only bmmcd hands a dataset off; the coordinator moves datasets itself", anyError: true},

		// Delete, and everything after it.
		{name: "delete the dataset", method: http.MethodDelete, path: "/v1/datasets/{ds}"},
		{name: "deleted dataset status", method: http.MethodGet, path: "/v1/datasets/{ds}", differs: deleted},
		{name: "delete again", method: http.MethodDelete, path: "/v1/datasets/{ds}", differs: deleted},
		{name: "deleted dataset input", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: exactRecords, differs: deleted},
		{name: "deleted dataset output", method: http.MethodGet, path: "/v1/datasets/{ds}/output", differs: deleted},
		{name: "submit on the deleted dataset", method: http.MethodPost, path: "/v1/jobs", body: submit("{ds}", gray, ""), differs: deleted},
		{name: "job status after the delete", method: http.MethodGet, path: "/v1/jobs/{rev}", settle: true},
		{name: "list datasets after the delete", method: http.MethodGet, path: "/v1/datasets"},
	}

	for _, stripes := range []int{0, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			mgr, err := service.NewManager(service.ManagerConfig{Workers: 2, QueueDepth: 8, Dir: t.TempDir(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			daemon := httptest.NewServer(service.NewHandler(mgr, nil))
			t.Cleanup(func() {
				daemon.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				mgr.Shutdown(ctx)
			})
			tc := startTestCluster(t, 3, nil)
			tiers := []*contractTier{
				{name: "bmmcd", url: daemon.URL},
				{name: "coordinator", url: tc.coordURL, stripes: stripes},
			}
			for _, tr := range tiers {
				body := fmt.Sprintf(`{"config":%s,"backend":"file","stripes":%d}`, cfgJSON, tr.stripes)
				a := tr.do(t, contractStep{method: http.MethodPost, path: "/v1/datasets", body: body, save: "{ds}"}, input)
				if a.status != http.StatusCreated {
					t.Fatalf("%s: creating the dataset answered %d: %s", tr.name, a.status, a.body)
				}
			}
			for _, s := range steps {
				ref, got := tiers[0].do(t, s, input), tiers[1].do(t, s, input)
				if s.differs != "" && (stripes > 0 || !s.striped) {
					requireJSONError(t, s.name, tiers[0].name, ref)
					if !s.anyError {
						requireJSONError(t, s.name, tiers[1].name, got)
					}
					t.Logf("%s: bmmcd %d, coordinator %d (deliberate: %s)", s.name, ref.status, got.status, s.differs)
					continue
				}
				if ref.status != got.status {
					t.Errorf("%s: bmmcd answered %d, the coordinator %d (%s)", s.name, ref.status, got.status, bytes.TrimSpace(got.body))
					continue
				}
				requireJSONError(t, s.name, tiers[0].name, ref)
				requireJSONError(t, s.name, tiers[1].name, got)
				if ref.state != got.state || (s.settle && ref.state != client.StateDone) {
					t.Errorf("%s: bmmcd settled %q, the coordinator %q; want both done", s.name, ref.state, got.state)
				}
				if s.want != nil && ref.status == http.StatusOK {
					for i, a := range []contractAnswer{ref, got} {
						if !bytes.Equal(a.body, s.want) {
							t.Errorf("%s: %s served %d bytes that differ from the oracle's %d", s.name, tiers[i].name, len(a.body), len(s.want))
						}
					}
				}
			}
		})
	}
}

// do sends one step to the tier and reads the whole answer. A settle step
// polls until the job is terminal and reports its last answer.
func (tr *contractTier) do(t *testing.T, s contractStep, input []byte) contractAnswer {
	t.Helper()
	if tr.ids == nil {
		tr.ids = map[string]string{}
	}
	expand := func(v string) string {
		for k, id := range tr.ids {
			v = strings.ReplaceAll(v, k, id)
		}
		return v
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		var body io.Reader
		length := int64(-1)
		switch s.records {
		case noRecords:
			if s.body != "" {
				b := expand(s.body)
				body, length = strings.NewReader(b), int64(len(b))
			}
		case exactRecords:
			body, length = bytes.NewReader(input), int64(len(input))
		case shortLength:
			short := input[:len(input)-bmmc.RecordBytes]
			body, length = bytes.NewReader(short), int64(len(short))
		case shortChunked:
			body = io.MultiReader(bytes.NewReader(input[:len(input)-bmmc.RecordBytes]))
		case longChunked:
			body = io.MultiReader(bytes.NewReader(input), bytes.NewReader(input[:bmmc.RecordBytes]))
		}
		req, err := http.NewRequestWithContext(ctx, s.method, tr.url+expand(s.path), body)
		if err != nil {
			t.Fatal(err)
		}
		if length >= 0 {
			req.ContentLength = length
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %s: %v", s.name, tr.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %s: reading the answer: %v", s.name, tr.name, err)
		}
		a := contractAnswer{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: raw}
		if s.save != "" && a.status == http.StatusCreated {
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
				t.Fatalf("%s: %s: no id in %s", s.name, tr.name, raw)
			}
			tr.ids[s.save] = st.ID
		}
		if !s.settle || a.status != http.StatusOK {
			return a
		}
		var st client.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("%s: %s: decoding the job status: %v", s.name, tr.name, err)
		}
		if a.state = st.State; a.state.Terminal() {
			return a
		}
		select {
		case <-ctx.Done():
			t.Fatalf("%s: %s: job still %s", s.name, tr.name, st.State)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// requireJSONError requires an error answer to be a JSON {"error"} body.
func requireJSONError(t *testing.T, step, tier string, a contractAnswer) {
	t.Helper()
	if a.status < 400 {
		return
	}
	var e struct {
		Error string `json:"error"`
	}
	if a.ctype != "application/json" || json.Unmarshal(a.body, &e) != nil || e.Error == "" {
		t.Errorf("%s: %s answered %d with %q %q, want a JSON {\"error\"} body", step, tier, a.status, a.ctype, bytes.TrimSpace(a.body))
	}
}

// TestCoordinatorFrontEndChecks pins what the coordinator answers now
// that it serves /v1 through bmmcd's front end: a handoff request is a
// JSON 404, a striped upload that runs past N records is a 400 as it is
// at bmmcd, and a striped job's own input under a wrong Content-Length
// is refused by the input check before the job's 409.
func TestCoordinatorFrontEndChecks(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dsID, input := stripedTestDataset(t, ctx, tc.client())
	j, err := tc.client().Submit(ctx, client.NewDatasetSubmitRequest(dsID, bmmc.GrayCode(testCfg.LgN())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client().Watch(ctx, j.ID, nil); err != nil {
		t.Fatal(err)
	}
	tr := &contractTier{name: "coordinator", url: tc.coordURL, ids: map[string]string{"{ds}": dsID, "{job}": j.ID}}
	for _, tt := range []struct {
		step contractStep
		want int
	}{
		{contractStep{name: "handoff", method: http.MethodPost, path: "/v1/datasets/{ds}/handoff", body: `{"target":""}`}, http.StatusNotFound},
		{contractStep{name: "long chunked upload", method: http.MethodPut, path: "/v1/datasets/{ds}/input", records: longChunked}, http.StatusBadRequest},
		{contractStep{name: "striped job input, short", method: http.MethodPut, path: "/v1/jobs/{job}/input", records: shortLength}, http.StatusBadRequest},
		{contractStep{name: "striped job input", method: http.MethodPut, path: "/v1/jobs/{job}/input", records: exactRecords}, http.StatusConflict},
	} {
		a := tr.do(t, tt.step, input)
		if a.status != tt.want {
			t.Errorf("%s: answered %d (%s), want %d", tt.step.name, a.status, bytes.TrimSpace(a.body), tt.want)
		}
		requireJSONError(t, tt.step.name, tr.name, a)
	}
}
