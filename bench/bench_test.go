package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	bmmc "repro"
	"repro/backendtest/chaos"
)

// toy runs every workload at 2^12-2^14 records for three timed jobs.
func toy(t *testing.T) options {
	return options{seed: 7, seconds: 300, jobs: 3, shrink: 8, dir: t.TempDir(), trace: t.TempDir()}
}

// inProcess runs each workload in the test process, letting hook adjust
// its environment (the test seams in env).
func inProcess(t *testing.T, o options, hook func(*env)) runner {
	return func(w *workload, traced bool, seconds float64) *result {
		dir, err := os.MkdirTemp(o.dir, w.name+"-")
		if err != nil {
			t.Fatal(err)
		}
		e := &env{seed: o.seed, shrink: o.shrink, dir: dir, log: testLog{t}}
		if hook != nil {
			hook(e)
		}
		o.seconds = seconds
		return runIn(context.Background(), w, e, o, traced)
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) map[string]string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// parseLines reads "workload metric value unit" lines.
func parseLines(t *testing.T, out string) map[string]map[string]metric {
	got := make(map[string]map[string]metric)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s %s: value %q is not a finite number", f[0], f[1], f[2])
		}
		if got[f[0]] == nil {
			got[f[0]] = make(map[string]metric)
		}
		if _, dup := got[f[0]][f[1]]; dup {
			t.Errorf("%s %s printed twice", f[0], f[1])
		}
		got[f[0]][f[1]] = metric{f[1], v, f[3]}
	}
	return got
}

// TestSmokeAllWorkloads runs all four workloads, untraced and traced, and
// checks the printed metrics against BENCHMARK.json, the failure fraction,
// and the parallel I/O count against the plan's exact cost.
func TestSmokeAllWorkloads(t *testing.T) {
	o := toy(t)
	var out, errs bytes.Buffer
	if code := execute(workloads, o, inProcess(t, o, nil), &out, &errs); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, errs.String())
	}
	units := declared(t)
	// fail_frac is printed but not declared: it is zero on a passing run,
	// and the runner's JSON carries it as the failed and attempted counts.
	units["fail_frac"] = "ratio"
	got := parseLines(t, out.String())
	for _, w := range workloads {
		ms := got[w.name]
		for name, unit := range units {
			m, ok := ms[name]
			switch {
			case !ok:
				t.Errorf("%s: %s not printed", w.name, name)
			case m.Unit != unit:
				t.Errorf("%s: %s printed in %q, declared %q", w.name, name, m.Unit, unit)
			}
		}
		for name := range ms {
			if _, ok := units[name]; !ok {
				t.Errorf("%s: %s printed but not declared", w.name, name)
			}
		}
		if v := ms["fail_frac"].Value; v != 0 {
			t.Errorf("%s: fail_frac = %g", w.name, v)
		}
		if got, want := ms["parallel_ios_per_job"].Value, float64(costIOs(t, w, o)); got != want {
			t.Errorf("%s: parallel_ios_per_job = %g, plan costs %g", w.name, got, want)
		}
	}
	// Each layer's metrics must see work on the workload built to exercise it.
	for _, c := range []struct{ workload, metric string }{
		{"lib-file", "pdm.sync_ms"},
		{"lib-file", "engine.cpu_us"},
		{"lib-slowdisk", "engine.read_wait_us"},
		{"lib-slowdisk", "pdm.read_busy_ms"},
		{"daemon-jobs", "core.plan_us"},
		{"daemon-jobs", "engine.pass_ms"},
		{"daemon-jobs", "service.submit_ms"},
		{"daemon-jobs", "service.queue_wait_ms"},
		{"daemon-jobs", "service.notify_ms"},
		{"daemon-jobs", "service.http_overhead_ms"},
		{"daemon-jobs", "pdm.write_calls"},
		{"cluster-chain", "cluster.decomposed_ms"},
		{"cluster-chain", "cluster.general_ms"},
		{"cluster-chain", "cluster.subjob_ms"},
		{"cluster-chain", "cluster.exchange_ms"},
		{"cluster-chain", "cluster.proxy_overhead_ms"},
		{"cluster-chain", "cluster.worker_MB"},
		{"cluster-chain", "core.plan_cache_hit_ratio"},
	} {
		if v := got[c.workload][c.metric].Value; v <= 0 {
			t.Errorf("%s: %s = %g, want > 0", c.workload, c.metric, v)
		}
	}
}

// costIOs is the exact parallel I/O count of one job of w: the seeded
// plan's cost for the library and daemon workloads, and for the cluster
// chain one MRC pass on every stripe (the bit reversal moves records
// through the coordinator, uncounted).
func costIOs(t *testing.T, w *workload, o options) int {
	cfg := w.geometry(o.shrink)
	var p bmmc.Permutation
	switch w {
	case libFile, libSlowdisk:
		p = randomRank6(rand.New(rand.NewSource(o.seed)), cfg)
	case daemonJobs:
		cat, err := catalog(&env{seed: o.seed}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p = cat[0].perm
	default:
		return cfg.PassIOs()
	}
	pl, err := bmmc.PlanFor(cfg, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return pl.CostIOs()
}

// TestFailedJobsCounted runs lib-slowdisk over a seeded flaky backend that
// faults reads once the timed loop starts: failed jobs must show in
// fail_frac while the loop runs every job it was given.
func TestFailedJobsCounted(t *testing.T) {
	o := toy(t)
	o.jobs = 12
	var flaky *chaos.FlakyBackend
	run := inProcess(t, o, func(e *env) {
		e.wrap = func(be bmmc.Backend) bmmc.Backend {
			// About 190 block reads per job (execute plus the output check):
			// at this rate roughly half the jobs fail.
			flaky = chaos.Flaky(be, chaos.FlakyOptions{Seed: 11, Rate: 0.003, Mode: chaos.FaultReadOnly})
			flaky.Disarm()
			return flaky
		}
		e.atLoop = func() { flaky.Arm() }
	})
	res := run(libSlowdisk, false, o.seconds)
	if len(res.Errors) > 0 {
		t.Fatalf("run aborted: %v", res.Errors)
	}
	if res.Attempted != o.jobs || res.Failed == 0 || res.Failed == o.jobs {
		t.Fatalf("attempted %d, failed %d: want all %d jobs run and some, not all, failed", res.Attempted, res.Failed, o.jobs)
	}
	if v, _ := res.value("fail_frac"); v != float64(res.Failed)/float64(res.Attempted) {
		t.Errorf("fail_frac = %g, want %d/%d", v, res.Failed, res.Attempted)
	}
}

// TestWrongOutputFailsCommand makes daemon-jobs expect the wrong output:
// every timed job must count as failed and the command must exit 1.
func TestWrongOutputFailsCommand(t *testing.T) {
	o := toy(t)
	o.json, o.trace = true, ""
	var out, errs bytes.Buffer
	code := execute([]*workload{daemonJobs}, o, inProcess(t, o, func(e *env) { e.corrupt = true }), &out, &errs)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("%v: %s", err, out.String())
	}
	if got.Correct || got.Attempted != o.jobs || got.Failed != o.jobs {
		t.Errorf("got %+v, want %d attempted and failed, not correct", got, o.jobs)
	}
}

// spanFile is the span JSON a traced run writes.
type spanFile struct {
	Workload string     `json:"workload"`
	Spans    []spanJSON `json:"spans"`
}

// TestTracedRunConsistency checks the library workloads' traces: a job's
// passes add up to its Execute call, and each load's read-wait, CPU and
// write-busy parts tile the load's interval.
func TestTracedRunConsistency(t *testing.T) {
	o := toy(t)
	o.shrink = 6
	for _, w := range []*workload{libFile, libSlowdisk} {
		res := inProcess(t, o, nil)(w, true, o.seconds)
		if !res.ok() {
			t.Fatalf("%s: %+v", w.name, res)
		}
		data, err := os.ReadFile(filepath.Join(o.trace, w.name+".spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var f spanFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		byID := make(map[int64]spanJSON)
		for _, s := range f.Spans {
			byID[s.ID] = s
		}
		passSum := make(map[int64]float64)
		readsFed := make(map[int64]int) // load id -> storage reads it was fed
		executes, loads := 0, 0
		for _, s := range f.Spans {
			if s.Parent != 0 {
				if _, ok := byID[s.Parent]; !ok {
					t.Fatalf("%s: span %d names missing parent %d", w.name, s.ID, s.Parent)
				}
			}
			if d := s.EndUS - s.StartUS; s.SelfUS < -0.001 || s.SelfUS > d+0.001 {
				t.Errorf("%s: span %s self time %g outside [0, %g]", w.name, s.Name, s.SelfUS, d)
			}
			switch s.Name {
			case "pdm.read":
				// A load's scatter starts only once its reads are in.
				if load := byID[s.Parent]; s.EndUS > load.EndUS {
					t.Errorf("%s: read ends at %g us, after its load at %g us", w.name, s.EndUS, load.EndUS)
				}
				readsFed[s.Parent]++
			case "engine.pass":
				passSum[s.Parent] += s.EndUS - s.StartUS
			case "engine.load":
				loads++
				d := s.EndUS - s.StartUS
				rw, ok := s.Attrs["read_wait_us"]
				if !ok {
					t.Fatalf("%s: load %d has no read-wait: reads not attributed", w.name, s.ID)
				}
				cpu := max(0, d-rw-s.Attrs["write_us"])
				if sum := rw + s.Attrs["write_us"] + cpu; math.Abs(sum-d) > 0.05*d {
					t.Errorf("%s: load parts %g + %g + %g do not tile its %g us", w.name, rw, s.Attrs["write_us"], cpu, d)
				}
			}
		}
		for _, s := range f.Spans {
			if s.Name == "engine.load" && readsFed[s.ID] == 0 {
				t.Errorf("%s: load %d was fed no storage reads", w.name, s.ID)
			}
			if s.Name != "engine.execute" || byID[s.Parent].Name != "job" {
				continue
			}
			executes++
			if d := s.EndUS - s.StartUS; math.Abs(passSum[s.ID]-d) > 0.05*d {
				t.Errorf("%s: passes sum to %g us of a %g us Execute", w.name, passSum[s.ID], d)
			}
		}
		if executes == 0 || loads == 0 {
			t.Errorf("%s: trace holds %d executes and %d loads", w.name, executes, loads)
		}
	}
}

// TestChecker pins the output check: the seeded input permuted by p passes
// even when it arrives in pieces that split records, and one damaged
// record fails.
func TestChecker(t *testing.T) {
	const seed, n = 5, 1 << 12
	p := bmmc.RandomPermutation(rand.New(rand.NewSource(seed)), 12)
	in := inputBytes(seed, n)
	out := make([]byte, len(in))
	for x := uint64(0); x < n; x++ {
		y := p.Apply(x)
		copy(out[y*bmmc.RecordBytes:(y+1)*bmmc.RecordBytes], in[x*bmmc.RecordBytes:(x+1)*bmmc.RecordBytes])
	}
	chk := newChecker(seed, newAffine(p.Inverse()))
	if _, err := io.CopyBuffer(chk, struct{ io.Reader }{bytes.NewReader(out)}, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := chk.result(n); err != nil {
		t.Fatal(err)
	}
	out[3*bmmc.RecordBytes+9] ^= 1
	chk = newChecker(seed, newAffine(p.Inverse()))
	chk.Write(out)
	if err := chk.result(n); err == nil {
		t.Error("a damaged record passed the check")
	}
}
