package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

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

// proc is one running binary (coordinator or worker) under test.
type proc struct {
	addr    string
	cmd     *exec.Cmd
	logDone chan struct{}
	tail    func() string
	dead    bool
}

// buildBinary compiles a command package once per test into a temp dir.
func buildBinary(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// launch starts a binary, scrapes the bound address from its "<name>
// listening" startup log line, and keeps draining stderr.
func launch(t *testing.T, bin, logName string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, logDone: make(chan struct{})}
	t.Cleanup(func() {
		if !p.dead {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	sc := bufio.NewScanner(stderr)
	addrRe := regexp.MustCompile(`msg="` + logName + ` listening".*addr=([0-9.:]+)`)
	var logMu sync.Mutex
	var logLines []string
	p.tail = func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return strings.Join(logLines, "\n")
	}
	addrFound := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logLines = append(logLines, line)
			if len(logLines) > 80 {
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
	case p.addr = <-addrFound:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never announced its address; log:\n%s", logName, p.tail())
	}
	return p
}

// drain SIGINTs the process and requires a clean exit with the shutdown
// line in the log.
func (p *proc) drain(t *testing.T, logName string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.logDone:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not drain within 60s of SIGINT", logName)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s exited uncleanly: %v\nlog:\n%s", logName, err, p.tail())
	}
	p.dead = true
	if out := p.tail(); !strings.Contains(out, logName+" stopped") {
		t.Errorf("drain log missing shutdown line:\n%s", out)
	}
}

// kill hard-kills the process — the chaos path, no graceful leave.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.dead = true
}

// waitHealthy polls the coordinator's worker registry until n workers are
// healthy (and no others are registered).
func waitHealthy(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last []cluster.WorkerInfo
	for time.Now().Before(deadline) {
		resp, err := http.Get(coordURL + "/cluster/v1/workers")
		if err == nil {
			last = nil
			json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
			healthy := 0
			for _, w := range last {
				if w.Health == cluster.Healthy {
					healthy++
				}
			}
			if healthy == n && len(last) == n {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("cluster never settled at %d healthy workers: %+v", n, last)
}

// TestClusterEndToEnd is the e2e-cluster CI job: a real bmmc-coord plus
// three real bmmcd workers. A striped dataset uploaded once through the
// coordinator and permuted via a chained job must be record-identical to a
// single-daemon oracle; after one worker drains gracefully its datasets
// stay reachable and a retried job succeeds; after another worker is
// hard-killed the coordinator evicts it and the survivor still serves.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping cluster build")
	}
	coordBin := buildBinary(t, "repro/cmd/bmmc-coord", "bmmc-coord")
	bmmcdBin := buildBinary(t, "repro/cmd/bmmcd", "bmmcd")

	coord := launch(t, coordBin, "bmmc-coord", "-addr", "127.0.0.1:0", "-heartbeat", "100ms")
	coordURL := "http://" + coord.addr
	var workers []*proc
	for i := 0; i < 3; i++ {
		w := launch(t, bmmcdBin, "bmmcd",
			"-addr", "127.0.0.1:0", "-dir", t.TempDir(),
			"-coord", coordURL, "-worker-id", fmt.Sprintf("w%d", i+1),
			"-max-jobs", "8", "-workers", "2")
		workers = append(workers, w)
	}
	waitHealthy(t, coordURL, 3)

	cfg := bmmc.Config{N: 1 << 14, D: 4, B: 16, M: 1 << 9}
	gray := bmmc.GrayCode(cfg.LgN())
	rev := bmmc.BitReversal(cfg.LgN())
	input := make([]byte, cfg.N*bmmc.RecordBytes)
	for i := 0; i < cfg.N; i++ {
		bmmc.Record{Key: uint64(i)*0x9e3779b9 + 13, Tag: uint64(i)}.Encode(input[i*bmmc.RecordBytes:])
	}

	// Oracle: the same chain on a single in-process dataset.
	oracle, err := bmmc.CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if err := oracle.Load(context.Background(), bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	eng := bmmc.NewEngine()
	for _, p := range []bmmc.Permutation{gray, rev} {
		if _, err := eng.Permute(context.Background(), oracle, p); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := oracle.Dump(context.Background(), &want); err != nil {
		t.Fatal(err)
	}

	c := client.New(coordURL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// One dataset striped over the cluster, uploaded once through the
	// coordinator, permuted by a chained job (gray, then rev).
	ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: cfg, Stripes: 2, Backend: client.BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []bmmc.Permutation{gray, rev} {
		j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, p))
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Watch(ctx, j.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != client.StateDone {
			t.Fatalf("cluster job finished %s: %s", final.State, final.Error)
		}
	}
	var got bytes.Buffer
	if err := c.DownloadDataset(ctx, ds.ID, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("cluster chain is not record-identical to the single-daemon oracle")
	}

	// The aggregate metrics carry the per-worker array.
	resp, err := http.Get(coordURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var cm cluster.ClusterMetrics
	err = json.NewDecoder(resp.Body).Decode(&cm)
	resp.Body.Close()
	if err != nil || len(cm.Workers) != 3 {
		t.Fatalf("cluster metrics: err=%v workers=%d, want 3", err, len(cm.Workers))
	}

	// The coordinator's Prometheus endpoint merges every worker's families
	// and must survive a strict parse mid-run with worker pass I/Os in it.
	fams := scrapeExposition(t, coordURL+"/metrics")
	if got := obstest.Sum(fams, "bmmc_pass_ios", nil); got == 0 {
		t.Fatal("merged cluster exposition carries no bmmc_pass_ios series")
	}

	// Graceful drain of one worker: its stripes hand off during SIGINT, so
	// the dataset stays reachable byte-identical and a retried job succeeds.
	workers[0].drain(t, "bmmcd")
	waitHealthy(t, coordURL, 2)
	got.Reset()
	if err := c.DownloadDataset(ctx, ds.ID, &got); err != nil {
		t.Fatalf("dataset unreachable after graceful leave: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("graceful leave lost bytes")
	}
	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, rev))
	if err != nil {
		t.Fatalf("submit after leave: %v", err)
	}
	if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("retried job after leave: %v / %+v", err, final)
	}

	// Hard-kill a second worker: the coordinator must evict it on the down
	// deadline and the survivor must still serve new work end to end.
	workers[1].kill(t)
	waitHealthy(t, coordURL, 1)
	ds2, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: cfg})
	if err != nil {
		t.Fatalf("create after kill: %v", err)
	}
	if err := c.UploadDataset(ctx, ds2.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds2.ID, gray))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Watch(ctx, j2.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("job on survivor after kill: %v / %+v", err, final)
	}

	// Clean shutdown of what remains.
	workers[2].drain(t, "bmmcd")
	coord.drain(t, "bmmc-coord")
}
