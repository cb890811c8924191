package bmmc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// TestCLIEndToEnd builds each command-line tool once and exercises its
// main paths against small geometries.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI builds")
	}
	bin := t.TempDir()
	for _, tool := range []string{"bmmcbench", "bmmcperm", "bmmcplan", "bmmcdetect"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, wantOK bool, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if wantOK && err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		if !wantOK && err == nil {
			t.Fatalf("%s %v unexpectedly succeeded:\n%s", tool, args, out)
		}
		return string(out)
	}

	small := []string{"-N", "4096", "-D", "4", "-B", "8", "-M", "256"}
	cfgSmall := bmmc.Config{N: 4096, D: 4, B: 8, M: 256}

	// bmmcbench: one experiment, all PASS.
	out := run("bmmcbench", true, append([]string{"-experiment", "mld"}, small...)...)
	if strings.Contains(out, "FAIL") || !strings.Contains(out, "PASS") {
		t.Errorf("bmmcbench output unexpected:\n%s", out)
	}
	// The fusion experiment must show a strict saving on at least one
	// catalog instance (the MLD rows) and no FAIL anywhere, with or
	// without the -fuse execution flag.
	out = run("bmmcbench", true, append([]string{"-experiment", "fusion", "-fuse"}, small...)...)
	if strings.Contains(out, "FAIL") || !strings.Contains(out, "50%") {
		t.Errorf("bmmcbench fusion experiment unexpected:\n%s", out)
	}
	// Unknown experiment rejected.
	run("bmmcbench", false, "-experiment", "bogus")

	// bmmcperm: run and verify a transpose on file-backed disks.
	dir := t.TempDir()
	out = run("bmmcperm", true, append([]string{"-perm", "transpose", "-dir", dir}, small...)...)
	if !strings.Contains(out, "verified: all records in place") {
		t.Errorf("bmmcperm did not verify:\n%s", out)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 4 {
		t.Errorf("expected 4 disk files, found %d", len(entries))
	}

	// bmmcperm -out -: stdout must carry exactly the N*16-byte record
	// stream and nothing else, even with -progress on — progress and all
	// informational lines go to stderr, so piped record streams stay
	// byte-clean (regression: they used to share stdout).
	{
		cmd := exec.Command(filepath.Join(bin, "bmmcperm"),
			append([]string{"-perm", "bitrev", "-progress", "-out", "-"}, small...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("bmmcperm -out -: %v\n%s", err, stderr.String())
		}
		if stdout.Len() != cfgSmall.N*bmmc.RecordBytes {
			t.Fatalf("bmmcperm -out - wrote %d bytes to stdout, want exactly %d",
				stdout.Len(), cfgSmall.N*bmmc.RecordBytes)
		}
		rev := bmmc.BitReversal(cfgSmall.LgN())
		data := stdout.Bytes()
		for _, x := range []uint64{0, 1, uint64(cfgSmall.N) - 1} {
			if got := bmmc.DecodeRecord(data[rev.Apply(x)*bmmc.RecordBytes:]); got.Key != x {
				t.Fatalf("stdout record stream corrupt: address %d holds key %d, want %d",
					rev.Apply(x), got.Key, x)
			}
		}
		if !strings.Contains(stderr.String(), "memoryload") ||
			!strings.Contains(stderr.String(), "verified: all records in place") {
			t.Errorf("bmmcperm -out - stderr missing progress/info lines:\n%s", stderr.String())
		}
	}

	// bmmcperm -chain: multiple permutations back-to-back on one dataset,
	// verified against their composition (rev,rev composes to identity).
	out = run("bmmcperm", true, append([]string{"-chain", "bitrev,bitrev"}, small...)...)
	if !strings.Contains(out, "chain:    2 steps") || !strings.Contains(out, "verified: all records in place") {
		t.Errorf("bmmcperm -chain output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "[cached]") {
		t.Errorf("bmmcperm -chain did not reuse the plan for the repeated step:\n%s", out)
	}

	// bmmcplan: explain a factorization; also accept a marshalled file.
	out = run("bmmcplan", true, append([]string{"-perm", "bitrev"}, small...)...)
	if !strings.Contains(out, "Theorem 21 upper bound") {
		t.Errorf("bmmcplan output unexpected:\n%s", out)
	}
	// -fuse prints the fused plan next to the unfused one. Bit reversal is
	// BPC, so fusion cannot merge anything and must say so; the fused cost
	// can never exceed the projected cost.
	out = run("bmmcplan", true, append([]string{"-perm", "bitrev", "-fuse"}, small...)...)
	if !strings.Contains(out, "fused cost:") || !strings.Contains(out, "no further merge possible") {
		t.Errorf("bmmcplan -fuse output unexpected:\n%s", out)
	}
	// -json emits the machine-readable plan summary — the same PlanSummary
	// struct the bmmcd service returns — honoring -fuse and the class
	// dispatch (one-pass classes are never factored).
	out = run("bmmcplan", true, append([]string{"-perm", "bitrev", "-json"}, small...)...)
	var sum service.PlanSummary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("bmmcplan -json emitted invalid JSON: %v\n%s", err, out)
	}
	if sum.Class != "BMMC" || sum.PassCount < 1 || sum.CostIOs != sum.PassCount*cfgSmall.PassIOs() {
		t.Errorf("bmmcplan -json summary unexpected: %+v", sum)
	}
	if sum.UpperBoundIOs < sum.CostIOs || len(sum.Passes) != sum.PassCount {
		t.Errorf("bmmcplan -json bounds/passes inconsistent: %+v", sum)
	}
	out = run("bmmcplan", true, append([]string{"-perm", "gray", "-json", "-fuse"}, small...)...)
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("bmmcplan -json -fuse: %v\n%s", err, out)
	}
	if sum.Class != "MRC" || sum.PassCount != 1 {
		t.Errorf("bmmcplan -json classified gray as %+v, want one MRC pass", sum)
	}

	pf := filepath.Join(t.TempDir(), "perm.txt")
	if err := os.WriteFile(pf, bmmc.MarshalPermutation(bmmc.GrayCode(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("bmmcplan", true, append([]string{"-file", pf}, small...)...)
	if !strings.Contains(out, "class:     MRC") {
		t.Errorf("bmmcplan -file did not classify Gray code as MRC:\n%s", out)
	}
	// Wrong width file rejected.
	run("bmmcplan", false, "-file", pf, "-N", "8192", "-D", "4", "-B", "8", "-M", "256")

	// bmmcdetect: accept a BMMC vector, reject a corrupted one.
	out = run("bmmcdetect", true, append([]string{"-perm", "gray"}, small...)...)
	if !strings.Contains(out, "BMMC detected:   true") {
		t.Errorf("bmmcdetect missed a Gray code:\n%s", out)
	}
	out = run("bmmcdetect", true, append([]string{"-perm", "gray", "-corrupt", "3"}, small...)...)
	if !strings.Contains(out, "BMMC detected:   false") {
		t.Errorf("bmmcdetect accepted a corrupted vector:\n%s", out)
	}

	// bmmcdetect -> bmmcplan round-trip: the detected permutation, written
	// in marshal format, feeds straight back into the planner and keeps
	// its class. A Gray-code vector must come back as the one-pass MRC
	// plan; a random BMMC vector must plan within the Theorem 21 bound.
	detected := filepath.Join(t.TempDir(), "detected.txt")
	out = run("bmmcdetect", true, append([]string{"-perm", "gray", "-out", detected}, small...)...)
	if !strings.Contains(out, "wrote:") {
		t.Errorf("bmmcdetect -out did not confirm the write:\n%s", out)
	}
	want := bmmc.MarshalPermutation(bmmc.GrayCode(12))
	got, err := os.ReadFile(detected)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("detected permutation differs from the Gray code that generated the vector")
	}
	out = run("bmmcplan", true, append([]string{"-file", detected}, small...)...)
	if !strings.Contains(out, "class:     MRC") || !strings.Contains(out, "plan: 1 passes") {
		t.Errorf("round-tripped Gray code did not plan as one MRC pass:\n%s", out)
	}
	out = run("bmmcdetect", true, append([]string{"-perm", "random", "-out", detected}, small...)...)
	if !strings.Contains(out, "BMMC detected:   true") {
		t.Errorf("bmmcdetect missed a random BMMC vector:\n%s", out)
	}
	out = run("bmmcplan", true, append([]string{"-file", detected, "-fuse"}, small...)...)
	if !strings.Contains(out, "Theorem 21 upper bound") || !strings.Contains(out, "fused cost:") {
		t.Errorf("round-tripped random BMMC did not plan:\n%s", out)
	}
	// A corrupted vector detects nothing, so -out must fail.
	run("bmmcdetect", false, append([]string{"-perm", "gray", "-corrupt", "3", "-out", detected}, small...)...)

	// bmmcdetect -out -> client.Submit: the detected permutation's marshal
	// file feeds straight into the permutation service and executes there.
	// A random BMMC vector carries a random affine offset, so this pins the
	// complement through detect -> file -> HTTP submit -> execution.
	out = run("bmmcdetect", true, append([]string{"-perm", "random", "-seed", "7", "-out", detected}, small...)...)
	if !strings.Contains(out, "wrote:") {
		t.Fatalf("bmmcdetect -out did not write:\n%s", out)
	}
	permText, err := os.ReadFile(detected)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := service.NewManager(service.ManagerConfig{Workers: 1, QueueDepth: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr, nil))
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	c := client.New(srv.URL)
	ctx := context.Background()
	st, err := c.Submit(ctx, client.SubmitRequest{Config: cfgSmall, Perm: string(permText)})
	if err != nil {
		t.Fatalf("submitting the detected permutation: %v", err)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("detected-permutation job finished %s: %s", final.State, final.Error)
	}
	// The daemon's output must match the generating permutation exactly.
	gen := bmmc.RandomPermutation(bmmc.NewRand(7), cfgSmall.LgN())
	var outBuf bytes.Buffer
	if err := c.Download(ctx, st.ID, &outBuf); err != nil {
		t.Fatal(err)
	}
	data := outBuf.Bytes()
	for x := uint64(0); x < uint64(cfgSmall.N); x++ {
		if got := bmmc.DecodeRecord(data[gen.Apply(x)*bmmc.RecordBytes:]); got.Key != x {
			t.Fatalf("address %d holds key %d, want %d: detect->submit round trip corrupted the permutation", gen.Apply(x), got.Key, x)
		}
	}

	// Invalid geometry rejected by all tools.
	run("bmmcperm", false, "-N", "100")
}
