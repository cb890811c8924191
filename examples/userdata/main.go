// User data through the library: Load -> Plan -> Execute -> Dump.
//
// A "log" of 65536 fixed-size events is written in arrival order, loaded
// onto a file-backed disk system, reorganized with a planned BMMC
// permutation (a matrix transpose regrouping events from time-major to
// source-major order), and dumped back out — demonstrating that the
// library permutes caller-supplied records, not just the canonical
// MakeRecord(0..N-1) layout, and that a plan is built once and reused.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	bmmc "repro"
)

func main() {
	// 2^9 sources each emitting 2^7 events: event (t, s) arrives at time
	// t from source s and sits at address t*512+s in arrival order.
	const lgT, lgS = 7, 9
	cfg := bmmc.Config{N: 1 << (lgT + lgS), D: 8, B: 16, M: 1 << 10}

	dir, err := os.MkdirTemp("", "bmmc-userdata-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(bmmc.FileBackend(dir)))
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	eng := bmmc.NewEngine()
	ctx := context.Background()

	// Encode the event log in the wire format Load reads: 16 bytes per
	// record, Key then Tag, little-endian. Key identifies the event;
	// Tag carries its payload (here a checksum-style value).
	var in bytes.Buffer
	buf := make([]byte, bmmc.RecordBytes)
	for t := uint64(0); t < 1<<lgT; t++ {
		for s := uint64(0); s < 1<<lgS; s++ {
			rec := bmmc.Record{Key: t<<lgS | s, Tag: payload(t, s)}
			rec.Encode(buf)
			in.Write(buf)
		}
	}
	if err := ds.Load(ctx, &in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d user events (%d bytes) in time-major order\n", cfg.N, cfg.N*bmmc.RecordBytes)

	// Plan the time-major -> source-major regrouping once; inspect it
	// before moving a single block.
	plan, err := eng.Plan(cfg, bmmc.Transpose(lgT, lgS))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %v\n", plan)

	rep, err := eng.Execute(ctx, plan, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %v\n", rep)

	// Dump and check: address s*128+t must now hold event (t, s) with its
	// payload intact.
	var out bytes.Buffer
	if err := ds.Dump(ctx, &out); err != nil {
		log.Fatal(err)
	}
	data := out.Bytes()
	for _, probe := range [][2]uint64{{0, 0}, {1, 2}, {127, 511}, {64, 300}} {
		t, s := probe[0], probe[1]
		at := s<<lgT | t
		rec := bmmc.DecodeRecord(data[at*bmmc.RecordBytes:])
		if rec.Key != t<<lgS|s || rec.Tag != payload(t, s) {
			log.Fatalf("address %d: got key %d tag %#x, want event (t=%d, s=%d)", at, rec.Key, rec.Tag, t, s)
		}
		fmt.Printf("event (t=%3d, s=%3d): arrival address %6d -> grouped address %6d  ok\n",
			t, s, t<<lgS|s, at)
	}
	fmt.Println("round trip complete: user records permuted and recovered intact")
}

// payload derives a recognizable per-event payload.
func payload(t, s uint64) uint64 { return t*1_000_003 + s }
