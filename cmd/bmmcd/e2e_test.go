package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// daemon is one running bmmcd binary under test.
type daemon struct {
	addr    string
	cmd     *exec.Cmd
	logDone chan struct{}
	tail    func() string
	dead    bool
}

// launchDaemon builds the real bmmcd binary, starts it on an OS-assigned
// port, scrapes the bound address from the startup log, and keeps draining
// stderr so the daemon never blocks on a full pipe.
func launchDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bmmcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bmmcd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir()}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	t.Cleanup(func() {
		if !d.dead {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	sc := bufio.NewScanner(stderr)
	addrRe := regexp.MustCompile(`msg="bmmcd listening".*addr=([0-9.:]+)`)
	var logMu sync.Mutex
	var logLines []string
	d.tail = func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return strings.Join(logLines, "\n")
	}
	addrFound := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logLines = append(logLines, line)
			if len(logLines) > 50 {
				logLines = logLines[1:]
			}
			logMu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrFound <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrFound:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never announced its address; log:\n%s", d.tail())
	}
	return d
}

// drain SIGINTs the daemon and requires a clean exit with the shutdown
// line in the log. The log is drained to EOF before Wait — Wait closes the
// pipe and would drop the final buffered lines.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.logDone:
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain within 60s of SIGINT")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\nlog:\n%s", err, d.tail())
	}
	d.dead = true
	if out := d.tail(); !strings.Contains(out, "bmmcd stopped") {
		t.Errorf("drain log missing shutdown line:\n%s", out)
	}
}

// TestBmmcdEndToEnd is the CI smoke: build the real daemon, start it on an
// OS-assigned port, run a transpose job through the Go client, diff the
// downloaded records against a direct library run, then SIGINT the daemon
// and require a clean drain.
func TestBmmcdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon build")
	}
	d := launchDaemon(t, "-max-jobs", "4", "-workers", "2")

	cfg := bmmc.Config{N: 1 << 16, D: 8, B: 16, M: 1 << 11}
	p := bmmc.Transpose(cfg.LgN()/2, cfg.LgN()-cfg.LgN()/2)

	// Oracle: the same permutation run directly through the library.
	oracle, err := bmmc.CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	rep, err := bmmc.NewEngine().Permute(context.Background(), oracle, p)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := oracle.Dump(context.Background(), &want); err != nil {
		t.Fatal(err)
	}

	// The same job through the daemon, on a file backend.
	c := client.New("http://" + d.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := client.NewSubmitRequest(cfg, p)
	req.Backend = client.BackendFile
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan.CostIOs != rep.ParallelIOs {
		t.Fatalf("submit quoted %d parallel I/Os, oracle measured %d", st.Plan.CostIOs, rep.ParallelIOs)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	var got bytes.Buffer
	if err := c.Download(ctx, st.ID, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("daemon output differs from the direct library run")
	}
	mt, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.ParallelIOs != rep.ParallelIOs || mt.JobsDone != 1 {
		t.Fatalf("metrics %+v do not match the oracle run (%d parallel I/Os)", mt, rep.ParallelIOs)
	}

	// The Prometheus exposition must parse strictly and report the same
	// pass I/O count the oracle measured.
	fams := scrapeExposition(t, "http://"+d.addr+"/metrics")
	if got := obstest.Sum(fams, "bmmc_pass_ios", nil); int(got) != rep.ParallelIOs {
		t.Fatalf("bmmc_pass_ios = %v, oracle measured %d", got, rep.ParallelIOs)
	}

	d.drain(t)
}

// scrapeExposition fetches a /metrics endpoint and strict-parses the
// Prometheus text format, failing the test on any grammar violation.
func scrapeExposition(t *testing.T, url string) []obs.Family {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	fams, err := obstest.Parse(string(body))
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v", err)
	}
	return fams
}

// TestBmmcdDatasetChain is the chained-jobs CI step: against the real
// binary, create a dataset, upload user records once, run bit-reversal and
// then its inverse (bit-reversal again) as two jobs on the dataset handle,
// download once, and require the bytes to equal the original upload — the
// chain composed to the identity with zero re-uploads. The daemon must
// then drain cleanly with the dataset still alive.
func TestBmmcdDatasetChain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon build")
	}
	d := launchDaemon(t, "-max-jobs", "8", "-workers", "2")

	cfg := bmmc.Config{N: 1 << 16, D: 8, B: 16, M: 1 << 11}
	p := bmmc.BitReversal(cfg.LgN())
	c := client.New("http://" + d.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dset, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: cfg, Backend: client.BackendSharded})
	if err != nil {
		t.Fatal(err)
	}

	// Upload once.
	input := make([]byte, cfg.N*bmmc.RecordBytes)
	for i := 0; i < cfg.N; i++ {
		bmmc.Record{Key: uint64(i)*0x9e3779b9 + 13, Tag: uint64(i)}.Encode(input[i*bmmc.RecordBytes:])
	}
	if err := c.UploadDataset(ctx, dset.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}

	// Two chained jobs: rev then rev — the composition is the identity.
	j1, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dset.ID, p))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dset.ID, p))
	if err != nil {
		t.Fatal(err)
	}
	if j1.Dataset != dset.ID || j2.Dataset != dset.ID {
		t.Fatalf("jobs not bound to the dataset: %q / %q", j1.Dataset, j2.Dataset)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		final, err := c.Watch(ctx, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != client.StateDone {
			t.Fatalf("chained job %s finished %s: %s", id, final.State, final.Error)
		}
		if final.Report == nil || final.Report.ParallelIOs == 0 {
			t.Fatalf("chained job %s has no per-job cost: %+v", id, final.Report)
		}
	}

	// Download once and diff against the original upload.
	var got bytes.Buffer
	if err := c.DownloadDataset(ctx, dset.ID, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), input) {
		t.Fatal("chained rev∘rev through the daemon did not restore the uploaded records")
	}

	// The dataset status and metrics reflect the chain.
	st, err := c.Dataset(ctx, dset.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsRun != 2 || !st.InputLoaded || st.ActiveJobs != 0 {
		t.Fatalf("dataset status after chain: %+v", st)
	}
	mt, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.DatasetJobsRun != 2 || mt.DatasetsCreated != 1 || mt.PlanCacheHits < 1 {
		t.Fatalf("metrics after chain: %+v", mt)
	}

	// Drain with the dataset still alive: shutdown reclaims it.
	d.drain(t)
}
