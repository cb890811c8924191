// Command bench is the repository's benchmark. It drives the system from
// outside — the library, the bmmcd daemon and the cluster coordinator —
// through four seeded closed-loop workloads, checks every output, and
// prints end-to-end metrics (and, with -trace, per-layer metrics from a
// separate traced run) as "workload metric value unit" lines:
//
//	go -C bench run . -seed 1                     # all four workloads
//	go -C bench run . -workload lib-file -json    # one workload, one JSON line
//	go -C bench run . -seed 1 -trace ../out       # plus per-layer metrics and spans
//
// Each workload runs in a fresh child process (a re-exec of this binary), so
// memory metrics do not leak between workloads. The command exits 1 if any
// job fails or any output is wrong. See README.md for the workloads, the
// metrics and how to read the span JSON.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads is every scenario the benchmark runs, in report order.
var workloads = []*workload{libFile, libSlowdisk, daemonJobs, clusterChain}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed    int64
	seconds float64
	jobs    int
	shrink  int
	dir     string
	trace   string
	json    bool
	out     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated permutation and input record")
	fs.Float64Var(&o.seconds, "seconds", 24, "length of each workload's timed loop, in seconds (halved per run with -trace)")
	fs.IntVar(&o.jobs, "jobs", 0, "end each timed loop after this many jobs instead of the workload's own count (0 keeps it)")
	fs.IntVar(&o.shrink, "shrink", 0, "divide every workload's record count by 2^shrink, for smoke runs")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for datasets and daemon storage, on the disk under test")
	fs.StringVar(&o.trace, "trace", "", "also run each workload traced, print its per-layer metrics and write its spans to this directory")
	fs.BoolVar(&o.json, "json", false, "print one JSON object per workload instead of text lines")
	fs.StringVar(&o.out, "out", "", "also write every result, with host facts, as JSON to this file")
	child := fs.Bool("child", false, "run one workload in this process and print its raw result (the parent's re-exec)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 || (*child && len(ws) != 1) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if o.seconds <= 0 || o.jobs < 0 || o.shrink < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -jobs and -shrink not negative")
		return 2
	}
	for _, d := range []string{o.dir, o.trace} {
		if d == "" {
			continue
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ctx := context.Background()
	if *child {
		return runChild(ctx, ws[0], o, stdout, stderr)
	}
	return execute(ws, o, childRunner(ctx, o, stderr), stdout, stderr)
}

// runner runs one workload once, traced or not, for seconds.
type runner func(w *workload, traced bool, seconds float64) *result

// childGrace is how long a child may run past its timed loop (input
// generation, setup, teardown) before the parent kills it.
const childGrace = 120 * time.Second

// childRunner runs each workload in a fresh re-exec of this binary and
// reads its result from the last line of its standard output.
func childRunner(ctx context.Context, o options, stderr io.Writer) runner {
	return func(w *workload, traced bool, seconds float64) *result {
		res := &result{Workload: w.name, Traced: traced}
		self, err := os.Executable()
		if err != nil {
			res.fail("locating the benchmark binary: %v", err)
			return res
		}
		args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-jobs", strconv.Itoa(o.jobs),
			"-shrink", strconv.Itoa(o.shrink), "-dir", o.dir}
		if traced {
			args = append(args, "-trace", o.trace)
		}
		cctx, cancel := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+childGrace)
		defer cancel()
		cmd := exec.CommandContext(cctx, self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
			res.fail("child run produced no result (%v): %v", runErr, err)
		} else if runErr != nil {
			res.fail("child run: %v", runErr)
		}
		return res
	}
}

// runChild runs one workload in this process and prints its raw result.
func runChild(ctx context.Context, w *workload, o options, stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res := runIn(ctx, w, &env{seed: o.seed, shrink: o.shrink, dir: dir, log: stderr}, o, o.trace != "")
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runIn runs w in this process with e, traced or not, and writes the
// traced run's spans to o.trace.
func runIn(ctx context.Context, w *workload, e *env, o options, traced bool) *result {
	if traced {
		e.tr = newTracer()
	}
	res := runWorkload(ctx, w, e, o.seconds, o.jobs)
	if traced {
		if err := e.tr.write(filepath.Join(o.trace, w.name+".spans.json"), w.name); err != nil {
			res.fail("writing spans: %v", err)
		}
	}
	return res
}

// report pairs a workload's untraced run with its traced one.
type report struct {
	Workload string  `json:"workload"`
	Plain    *result `json:"untraced"`
	Traced   *result `json:"traced,omitempty"`
}

func (r report) runs() []*result {
	if r.Traced == nil {
		return []*result{r.Plain}
	}
	return []*result{r.Plain, r.Traced}
}

// layers returns the traced run's per-layer metrics plus the tracing
// overhead against the untraced run.
func (r report) layers() []metric {
	if r.Traced == nil {
		return nil
	}
	return append(append([]metric(nil), r.Traced.Layers...), traceOverhead(r.Plain, r.Traced))
}

// execute runs every workload through measure, prints the metrics, and
// returns the exit code: 1 if any job failed or any output was wrong.
func execute(ws []*workload, o options, measure runner, stdout, stderr io.Writer) int {
	code := 0
	var reports []report
	for _, w := range ws {
		seconds := o.seconds
		if o.trace != "" {
			seconds /= 2
		}
		rep := report{Workload: w.name, Plain: measure(w, false, seconds)}
		if o.trace != "" {
			rep.Traced = measure(w, true, seconds)
		}
		correct := true
		for _, r := range rep.runs() {
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "%s: %s\n", w.name, e)
			}
			correct = correct && r.ok()
		}
		if !correct {
			code = 1
		}
		if o.json {
			printJSON(stdout, rep, correct)
		} else {
			for _, m := range append(append([]metric(nil), rep.Plain.Metrics...), rep.layers()...) {
				fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			}
		}
		reports = append(reports, rep)
	}
	if o.out != "" {
		if err := writeResults(o, reports); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// printJSON prints one workload as a single JSON object: the end-to-end
// metrics, or with -trace the per-layer ones. fail_frac travels as the
// failed and attempted counts.
func printJSON(w io.Writer, rep report, correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Metrics: map[string]value{}}
	for _, r := range rep.runs() {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	ms := rep.layers()
	if ms == nil {
		ms = rep.Plain.Metrics
	}
	for _, m := range ms {
		if m.Name != "fail_frac" {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	json.NewEncoder(w).Encode(out)
}

// writeResults stores every report with the facts of the host it ran on.
func writeResults(o options, reports []report) error {
	type host struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Platform   string `json:"platform"`
		DirFS      string `json:"scratch_dir_fs"`
	}
	doc := struct {
		Host      host     `json:"host"`
		Seed      int64    `json:"seed"`
		Seconds   float64  `json:"seconds"`
		Shrink    int      `json:"shrink,omitempty"`
		Workloads []report `json:"workloads"`
	}{
		Host: host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
			runtime.GOOS + "/" + runtime.GOARCH, fsType(o.dir)},
		Seed: o.seed, Seconds: o.seconds, Shrink: o.shrink, Workloads: reports,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}
