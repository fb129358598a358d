package cluster

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	bmmc "repro"
	"repro/internal/gf2"
)

// crossingBMMC draws a random n-bit BMMC whose A_hl block (the top κ rows
// over the low n−κ columns) is nonzero, so a κ-bit striping cannot
// decompose it and the coordinator exchange routes it.
func crossingBMMC(t testing.TB, rng *rand.Rand, n, kappa int) bmmc.Permutation {
	t.Helper()
	for {
		a := gf2.RandomNonsingular(rng, n)
		if a.Submatrix(n-kappa, n, 0, n-kappa).IsZero() {
			continue
		}
		p, err := bmmc.New(a, gf2.RandomVec(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// oracleImage is y = Ax ⊕ c applied record by record with the matrix
// form: out[p(x)] = in[x] in the 16-byte wire format.
func oracleImage(p bmmc.Permutation, in []byte) []byte {
	out := make([]byte, len(in))
	for x := uint64(0); x < uint64(len(in)/bmmc.RecordBytes); x++ {
		y := p.Apply(x)
		copy(out[y*bmmc.RecordBytes:(y+1)*bmmc.RecordBytes], in[x*bmmc.RecordBytes:(x+1)*bmmc.RecordBytes])
	}
	return out
}

func randomImage(rng *rand.Rand, records int) []byte {
	in := make([]byte, records*bmmc.RecordBytes)
	rng.Read(in)
	return in
}

// pieceReader hands out its data in pieces whose sizes next picks, like
// a download body arriving over the network. It has no WriteTo, so
// io.Copy into the sink takes the sink's ReadFrom.
type pieceReader struct {
	data []byte
	next func() int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.next())], r.data)
	r.data = r.data[n:]
	return n, nil
}

// exchange routes in, cut into k stripes, through one sink the way
// runStripedExchange does, each stripe read through io.Copy from a
// pieceReader.
func exchange(t testing.TB, p bmmc.Permutation, in []byte, k int, next func() int) []byte {
	t.Helper()
	per := len(in) / bmmc.RecordBytes / k
	sink := newExchangeSink(p, per, k)
	stripeBytes := per * bmmc.RecordBytes
	for j := 0; j < k; j++ {
		sink.begin(j)
		if _, err := io.Copy(sink, &pieceReader{data: in[j*stripeBytes : (j+1)*stripeBytes], next: next}); err != nil {
			t.Fatalf("stripe %d: %v", j, err)
		}
		if err := sink.finish(); err != nil {
			t.Fatal(err)
		}
	}
	return sink.image
}

// TestExchangeSinkMatchesOracle is the differential test of the exchange
// kernel: random BMMCs that cross stripes, fed in irregular pieces that
// are neither record- nor 256-record-aligned, must route every record
// where the per-record y = Ax ⊕ c oracle puts it.
func TestExchangeSinkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{8, 12, 20} {
		in := randomImage(rng, 1<<n)
		for kappa := 1; kappa <= 3; kappa++ {
			p := crossingBMMC(t, rng, n, kappa)
			got := exchange(t, p, in, 1<<kappa, func() int { return 1 + rng.Intn(5000) })
			if !bytes.Equal(got, oracleImage(p, in)) {
				t.Fatalf("n=%d k=%d: routed image differs from the y = Ax ⊕ c oracle", n, 1<<kappa)
			}
		}
	}
}

// TestExchangeSinkSplitRecords cuts the stream so that read boundaries
// fall at every offset within a record, each carried over to the next
// read.
func TestExchangeSinkSplitRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, k = 10, 4
	in := randomImage(rng, 1<<n)
	p := crossingBMMC(t, rng, n, 2)
	want := oracleImage(p, in)
	for off := 0; off < bmmc.RecordBytes; off++ {
		size := 3*bmmc.RecordBytes + off
		if got := exchange(t, p, in, k, func() int { return size }); !bytes.Equal(got, want) {
			t.Fatalf("reads of %d bytes (offset %d mod 16): routed image differs from the oracle", size, off)
		}
	}
}

// TestExchangeSinkStripeLength: a stripe that delivers more or fewer
// than N/k records, or a trailing partial record, fails with an error
// naming the stripe instead of panicking or overwriting records. A long
// stripe fails the download itself, before its extra record is routed.
func TestExchangeSinkStripeLength(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n, k, j = 8, 4, 1
	p := crossingBMMC(t, rng, n, 2)
	stripeBytes := (1 << n) / k * bmmc.RecordBytes
	for _, tc := range []struct {
		name  string
		bytes int
		long  bool
	}{
		{"short by one record", stripeBytes - bmmc.RecordBytes, false},
		{"short by 7 bytes", stripeBytes - 7, false},
		{"one record long", stripeBytes + bmmc.RecordBytes, true},
	} {
		sink := newExchangeSink(p, (1<<n)/k, k)
		sink.begin(j)
		_, err := io.Copy(sink, &pieceReader{data: randomImage(rng, tc.bytes/bmmc.RecordBytes+1)[:tc.bytes], next: func() int { return 100 }})
		if (err != nil) != tc.long {
			t.Errorf("%s: download returned %v", tc.name, err)
		}
		if err == nil {
			err = sink.finish()
		}
		if err == nil || !strings.Contains(err.Error(), "stripe 1 ") {
			t.Errorf("%s: got error %v, want one naming stripe 1", tc.name, err)
		}
	}
}

// TestExchangeSinkRoutesWithoutAllocating pins the one-image guarantee:
// filling and routing a stripe's blocks, through Write or ReadFrom,
// allocates nothing, so the image and the block made with the sink are
// all it ever holds.
func TestExchangeSinkRoutesWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, k = 12, 4
	p := crossingBMMC(t, rng, n, 2)
	sink := newExchangeSink(p, (1<<n)/k, k)
	stripe := randomImage(rng, (1<<n)/k)
	if allocs := testing.AllocsPerRun(100, func() {
		sink.begin(0)
		for rest := stripe; len(rest) > 0; {
			piece := rest[:min(len(rest), 100*bmmc.RecordBytes-5)]
			if _, err := sink.Write(piece); err != nil {
				t.Fatal(err)
			}
			rest = rest[len(piece):]
		}
		if err := sink.finish(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Write allocated %v times per stripe", allocs)
	}
	var rd bytes.Reader
	if allocs := testing.AllocsPerRun(100, func() {
		sink.begin(0)
		rd.Reset(stripe)
		if _, err := sink.ReadFrom(&rd); err != nil {
			t.Fatal(err)
		}
		if err := sink.finish(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadFrom allocated %v times per stripe", allocs)
	}
}

// BenchmarkExchangeScatter routes a 2^20-record, 4-stripe image through
// the exchange sink, the coordinator's whole share of the general path's
// work, for bit reversal and one random BMMC that crosses stripes.
func BenchmarkExchangeScatter(b *testing.B) {
	const n, k = 20, 4
	rng := rand.New(rand.NewSource(18))
	in := randomImage(rng, 1<<n)
	for _, bc := range []struct {
		name string
		p    bmmc.Permutation
	}{
		{"bitrev", bmmc.BitReversal(n)},
		{"random", crossingBMMC(b, rng, n, 2)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for b.Loop() {
				exchange(b, bc.p, in, k, func() int { return exchangeBlockBytes })
			}
		})
	}
}
