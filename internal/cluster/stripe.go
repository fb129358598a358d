// Package cluster lifts the paper's parallel-disk decomposition one tier
// up, from disks inside one bmmcd daemon to a fleet of daemons: a
// coordinator places datasets on workers by consistent hashing, proxies
// the single-daemon HTTP surface unchanged, rebalances data on membership
// change by replaying the 16-byte record wire format between workers, and
// decomposes BMMC permutations over striped datasets into per-node
// sub-passes plus a block-exchange phase between nodes.
package cluster

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	bmmc "repro"
	"repro/internal/gf2"
	"repro/internal/perm"
)

// stripeConfig derives the geometry of one stripe of a k-striped dataset:
// N/k records on the same D disks with the same block size. Memory
// shrinks as needed to keep M < N' while staying at or above the BD
// floor; when it cannot, the dataset is too small for that many stripes.
func stripeConfig(cfg bmmc.Config, k int) (bmmc.Config, error) {
	if k < 2 || k&(k-1) != 0 {
		return bmmc.Config{}, fmt.Errorf("stripe count %d must be a power of two >= 2", k)
	}
	if cfg.N%k != 0 || cfg.N/k < 2 {
		return bmmc.Config{}, fmt.Errorf("cannot cut N=%d records into %d stripes", cfg.N, k)
	}
	sc := bmmc.Config{N: cfg.N / k, D: cfg.D, B: cfg.B, M: cfg.M}
	for sc.M >= sc.N {
		sc.M /= 2
	}
	if err := sc.Validate(); err != nil {
		return bmmc.Config{}, fmt.Errorf("geometry %v cannot be cut into %d stripes: %w", cfg, k, err)
	}
	return sc, nil
}

// decompose splits a BMMC permutation y = Ax ⊕ c over n-bit addresses
// into the two node-tier phases of a striped pass, treating the top κ
// address bits as the stripe (node) index s and the low n−κ bits as the
// within-stripe address:
//
//	A = | A_ll  A_lh |     y_lo = A_ll·x_lo ⊕ A_lh·s ⊕ c_lo
//	    | A_hl  A_hh |     y_hi = A_hl·x_lo ⊕ A_hh·s ⊕ c_hi
//
// When A_hl = 0 the target stripe depends on s alone, so the permutation
// is exactly a per-node sub-pass — stripe s runs the local BMMC
// (A_ll, A_lh·s ⊕ c_lo) on its own disks — followed by a block exchange
// that sends stripe s wholesale to slot nodeMap[s] = A_hh·s ⊕ c_hi. Both
// diagonal blocks inherit nonsingularity from A (det A = det A_ll ·
// det A_hh when A_hl = 0), so the locals are valid BMMC permutations and
// nodeMap is a permutation of the stripe indices.
//
// When A_hl ≠ 0 records cross stripes data-dependently; ok is false and
// the caller routes records through the coordinator instead.
func decompose(p bmmc.Permutation, kappa int) (locals []bmmc.Permutation, nodeMap []int, ok bool, err error) {
	n := p.Bits()
	if kappa <= 0 || kappa >= n {
		return nil, nil, false, fmt.Errorf("stripe bits κ=%d out of range for %d-bit addresses", kappa, n)
	}
	nl := n - kappa
	if !p.A.Submatrix(nl, n, 0, nl).IsZero() {
		return nil, nil, false, nil // records cross stripes: general path
	}
	all := p.A.Submatrix(0, nl, 0, nl)
	alh := p.A.Submatrix(0, nl, nl, n)
	ahh := p.A.Submatrix(nl, n, nl, n)
	cLo := p.C.Extract(0, nl)
	cHi := p.C.Extract(nl, n)

	k := 1 << kappa
	locals = make([]bmmc.Permutation, k)
	nodeMap = make([]int, k)
	for s := 0; s < k; s++ {
		lp, err := bmmc.New(all, alh.MulVec(gf2.Vec(s))^cLo)
		if err != nil {
			return nil, nil, false, fmt.Errorf("stripe-local block singular: %w", err)
		}
		locals[s] = lp
		nodeMap[s] = int(ahh.MulVec(gf2.Vec(s)) ^ cHi)
	}
	return locals, nodeMap, true, nil
}

// exchangeBlockBytes is the size of the aligned block of a stripe's
// records that the exchange fills before routing it, and so the largest
// piece in which it reads a download body. Routing io.Copy's default
// 32 KiB pieces made the exchange about 10% slower than gathering the
// stripes first; 1 MiB pieces brought it back to parity.
const exchangeBlockBytes = 1 << 20

// exchangeSink is the general path's data plane, for permutations whose
// A_hl block mixes stripe and local bits: it routes each stripe's
// download into the N×16-byte target image as the bytes arrive, so the
// coordinator holds one image and no gather copy. The record at byte
// offset o of stripe j has source address x = j·N/k + o/16 and lands at
// image offset p(x)·16. One sink serves the stripes of a job one after
// the other: begin(j), the download, then finish().
//
// The bytes arrive into one aligned block of 2^r records, and each full
// block is routed in the order of its targets, not of its sources (see
// blockRoutes): the reads gather from the block, which stays in cache,
// and the writes sweep the image in rising address order. Routed in
// source order, bit reversal stores consecutive records 8 MiB apart, and
// its exchange jobs took 83–123 ms from one benchmark run to the next
// against 73–81 ms in target order.
type exchangeSink struct {
	ca    *perm.Compiled
	image []byte // N×16 target image, filled as the stripes arrive
	per   uint64 // records per stripe
	blk   []byte // the block being filled, 2^r records
	fill  int    // bytes of blk filled

	// Route step h·len(loY) + l moves the record at blk offset
	// hiX[h] ^ loX[l] to target p(x0) ^ hiY[h] ^ loY[l], where x0 is the
	// source address of blk's first record.
	loY, loX, hiY, hiX []uint64

	stripe    int
	next, end uint64 // source addresses: blk's first record, one past the stripe
}

// newExchangeSink compiles p once for a job over k stripes of per
// records each and allocates its target image.
func newExchangeSink(p bmmc.Permutation, per, k int) *exchangeSink {
	stripeBytes := per * bmmc.RecordBytes
	s := &exchangeSink{
		ca:    p.Compile(),
		image: make([]byte, k*stripeBytes),
		per:   uint64(per),
		blk:   make([]byte, min(exchangeBlockBytes, stripeBytes)),
	}
	s.loY, s.loX, s.hiY, s.hiX = blockRoutes(p.A, bits.TrailingZeros(uint(len(s.blk)/bmmc.RecordBytes)))
	return s
}

// blockRoutes returns the route tables of an aligned block of 2^r
// source records. The columns A·e_j (j < r) span the targets' offsets
// from the block's first target; Gauss–Jordan elimination turns them
// into one basis vector per leading bit, each paired with the source
// offset it comes from, and orders them by that bit. Counting t through
// the block then visits the targets in rising order of the basis's
// leading bits. The low min(r, 8) basis vectors span loY/loX, the rest
// hiY/hiX.
func blockRoutes(a gf2.Matrix, r int) (loY, loX, hiY, hiX []uint64) {
	type route struct{ y, x uint64 }
	rest := make([]route, r)
	for j := range rest {
		rest[j] = route{uint64(a.MulVec(gf2.Vec(1) << j)), 1 << j}
	}
	basis := make([]route, 0, r)
	for bit := a.Rows() - 1; bit >= 0 && len(rest) > 0; bit-- {
		i := slices.IndexFunc(rest, func(v route) bool { return v.y>>bit&1 == 1 })
		if i < 0 {
			continue
		}
		piv := rest[i]
		rest = slices.Delete(rest, i, i+1)
		for _, set := range [][]route{rest, basis} {
			for k := range set {
				if set[k].y>>bit&1 == 1 {
					set[k].y ^= piv.y
					set[k].x ^= piv.x
				}
			}
		}
		basis = append(basis, piv)
	}
	slices.Reverse(basis) // rising leading bit
	span := func(b []route) (ys, xs []uint64) {
		ys, xs = make([]uint64, 1<<len(b)), make([]uint64, 1<<len(b))
		for t := 1; t < len(ys); t++ {
			low := t & (t - 1)
			m := bits.TrailingZeros(uint(t ^ low))
			ys[t], xs[t] = ys[low]^b[m].y, xs[low]^b[m].x
		}
		return ys, xs
	}
	lo := min(r, 8)
	loY, loX = span(basis[:lo])
	hiY, hiX = span(basis[lo:])
	return loY, loX, hiY, hiX
}

// begin readies the sink for stripe j's records.
func (s *exchangeSink) begin(j int) {
	s.stripe = j
	s.next = uint64(j) * s.per
	s.end = s.next + s.per
	s.fill = 0
}

// finish checks that stripe j delivered exactly N/k whole records. The
// stripe is a whole number of blocks, so one that did leaves none
// partly filled.
func (s *exchangeSink) finish() error {
	if s.next != s.end {
		got := s.per - (s.end - s.next) + uint64(s.fill/bmmc.RecordBytes)
		return fmt.Errorf("stripe %d delivered %d records and %d stray bytes, want %d records",
			s.stripe, got, s.fill%bmmc.RecordBytes, s.per)
	}
	return nil
}

// errLong is the error for bytes past the stripe's N/k records.
func (s *exchangeSink) errLong() error {
	return fmt.Errorf("stripe %d delivered more than its %d records", s.stripe, s.per)
}

// Write copies p into the block, routing each block it fills. Bytes
// beyond the stripe's N/k records fail the write.
func (s *exchangeSink) Write(p []byte) (int, error) {
	if room := (s.end-s.next)*bmmc.RecordBytes - uint64(s.fill); uint64(len(p)) > room {
		return 0, s.errLong()
	}
	n := len(p)
	for len(p) > 0 {
		c := copy(s.blk[s.fill:], p)
		s.fill, p = s.fill+c, p[c:]
		if s.fill == len(s.blk) {
			s.route()
		}
	}
	return n, nil
}

// ReadFrom reads r straight into the block, so io.Copy from a download
// body skips its own 32 KiB buffer and the copy out of it. A stripe is
// a whole number of blocks, so a read never runs past the stripe's
// end; one more byte after it fails the download.
func (s *exchangeSink) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		n, err := r.Read(s.blk[s.fill:])
		if n > 0 {
			total += int64(n)
			if s.next == s.end {
				return total, s.errLong()
			}
			if s.fill += n; s.fill == len(s.blk) {
				s.route()
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// route moves the full block, first record at source address s.next,
// to its targets. y = Ax ⊕ c is affine, so one Compiled.Apply gives the
// block's first target and each record costs two lookups and two XORs.
func (s *exchangeSink) route() {
	y0 := s.ca.Apply(s.next)
	for h, hy := range s.hiY {
		hy ^= y0
		hx := s.hiX[h]
		for l, ly := range s.loY {
			y := (hy ^ ly) * bmmc.RecordBytes
			x := (hx ^ s.loX[l]) * bmmc.RecordBytes
			*(*[bmmc.RecordBytes]byte)(s.image[y:]) = [bmmc.RecordBytes]byte(s.blk[x:])
		}
	}
	s.next += uint64(len(s.blk) / bmmc.RecordBytes)
	s.fill = 0
}
