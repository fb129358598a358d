package perm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

// TestCompiledMatchesApply: the table-driven applier agrees with the
// matrix-vector form on every class of permutation and address width.
func TestCompiledMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(24)
		p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
		ca := p.Compile()
		for i := 0; i < 500; i++ {
			x := rng.Uint64() & uint64(gf2.Mask(n))
			if ca.Apply(x) != p.Apply(x) {
				t.Fatalf("compiled(%d) = %d, want %d (n=%d)", x, ca.Apply(x), p.Apply(x), n)
			}
		}
	}
}

// TestCompiledWideAddresses exercises every byte table (n > 56).
func TestCompiledWideAddresses(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	n := 63
	p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
	ca := p.Compile()
	f := func(xRaw uint64) bool {
		x := xRaw & uint64(gf2.Mask(n))
		return ca.Apply(x) == p.Apply(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledLowTableIsAffine pins the identity the incremental scatter
// kernels rest on: y = Ax ⊕ c is affine, so the image of x is the image of
// its 256-aligned chunk base XOR the low byte's partial product.
func TestCompiledLowTableIsAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	for _, n := range []int{6, 8, 20, 30} {
		for trial := 0; trial < 8; trial++ {
			p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
			ca := p.Compile()
			tab := ca.LowTable()
			for i := 0; i < 2000; i++ {
				x := rng.Uint64() & uint64(gf2.Mask(n))
				if got, want := ca.Apply(x&^0xff)^tab[x&0xff], ca.Apply(x); got != want {
					t.Fatalf("n=%d x=%#x: Apply(x&^0xff)^T[x&0xff] = %#x, Apply(x) = %#x", n, x, got, want)
				}
				if want := p.Apply(x); ca.Apply(x) != want {
					t.Fatalf("n=%d x=%#x: compiled %#x, direct %#x", n, x, ca.Apply(x), want)
				}
			}
		}
	}
}

func TestCompiledExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for n := 1; n <= 12; n++ {
		p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
		ca := p.Compile()
		for x := uint64(0); x < 1<<uint(n); x++ {
			if ca.Apply(x) != p.Apply(x) {
				t.Fatalf("n=%d x=%d: compiled %d, direct %d", n, x, ca.Apply(x), p.Apply(x))
			}
		}
	}
}

func TestEmbedPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 40; trial++ {
		k := 4 + rng.Intn(10)
		n := k + rng.Intn(8)
		b := 1 + rng.Intn(k-2)
		p := MustNew(gf2.RandomNonsingular(rng, k), gf2.RandomVec(rng, k))
		e, err := p.Embed(n)
		if err != nil {
			t.Fatal(err)
		}
		if !e.A.IsNonsingular() {
			t.Fatal("embedded matrix singular")
		}
		if e.RankGamma(b) != p.RankGamma(b) {
			t.Fatalf("rank gamma changed: %d -> %d", p.RankGamma(b), e.RankGamma(b))
		}
		// Low addresses map identically; high bits are fixed.
		for i := 0; i < 50; i++ {
			x := rng.Uint64() & uint64(gf2.Mask(k))
			hi := (rng.Uint64() & uint64(gf2.Mask(n))) &^ uint64(gf2.Mask(k))
			if e.Apply(x|hi) != p.Apply(x)|hi {
				t.Fatalf("embedding does not act segment-wise at %d", x|hi)
			}
		}
	}
	if _, err := Identity(8).Embed(4); err == nil {
		t.Error("shrinking embed accepted")
	}
	same, err := Identity(8).Embed(8)
	if err != nil || !same.IsIdentity() {
		t.Error("identity embed failed")
	}
}

func TestMorton(t *testing.T) {
	const lg = 3 // 8x8 matrix
	p := Morton(lg)
	if !p.IsBPC() {
		t.Fatal("Morton not BPC")
	}
	// Element (row, col) at row-major address row*8+col must land at the
	// interleaved Morton index.
	for row := uint64(0); row < 8; row++ {
		for col := uint64(0); col < 8; col++ {
			src := row<<lg | col
			var want uint64
			for t := 0; t < lg; t++ {
				want |= (col >> uint(t) & 1) << uint(2*t)
				want |= (row >> uint(t) & 1) << uint(2*t+1)
			}
			if got := p.Apply(src); got != want {
				t.Fatalf("morton(%d,%d): got %d, want %d", row, col, got, want)
			}
		}
	}
	inv := MortonInverse(lg)
	for x := uint64(0); x < 64; x++ {
		if inv.Apply(p.Apply(x)) != x {
			t.Fatalf("Morton inverse fails at %d", x)
		}
	}
}
