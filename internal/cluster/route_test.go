package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	bmmc "repro"
)

// recordImage builds 2^n distinct records in the wire format.
func recordImage(n int) []byte {
	buf := make([]byte, (1<<n)*bmmc.RecordBytes)
	for x := 0; x < 1<<n; x++ {
		bmmc.Record{Key: uint64(x)*0x9e3779b97f4a7c15 + 1, Tag: uint64(x)}.Encode(buf[x*bmmc.RecordBytes:])
	}
	return buf
}

// TestRouteRecordsMatchesApply diffs the destination-order router against
// the Matrix-form reference out[p(x)] = in[x] for random BMMC permutations
// with nonzero complements at every width from one bit up, including the
// widths where GOMAXPROCS exceeds the record count.
func TestRouteRecordsMatchesApply(t *testing.T) {
	rng := bmmc.NewRand(1)
	for n := 1; n <= 20; n++ {
		p := bmmc.RandomPermutation(rng, n)
		for p.C == 0 {
			p = bmmc.RandomPermutation(rng, n)
		}
		in := recordImage(n)
		want := make([]byte, len(in))
		for x := uint64(0); x < 1<<n; x++ {
			y := p.Apply(x)
			copy(want[y*bmmc.RecordBytes:(y+1)*bmmc.RecordBytes], in[x*bmmc.RecordBytes:])
		}
		got, err := routeRecords(context.Background(), p, in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: routed records differ from the p.Apply reference", n)
		}
	}
}

// TestRouteRecordsCanceled pins that the router answers a canceled context
// with its error rather than a routed image.
func TestRouteRecordsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := routeRecords(ctx, bmmc.BitReversal(16), recordImage(16))
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled route = (%d bytes, %v), want (nil, context.Canceled)", len(out), err)
	}
}

// BenchmarkRouteRecords routes the cluster-chain benchmark geometry: 2^19
// records under bit reversal.
func BenchmarkRouteRecords(b *testing.B) {
	const n = 19
	p := bmmc.BitReversal(n)
	in := recordImage(n)
	b.SetBytes(int64(len(in)))
	for b.Loop() {
		if _, err := routeRecords(context.Background(), p, in); err != nil {
			b.Fatal(err)
		}
	}
}
