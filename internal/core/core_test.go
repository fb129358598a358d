package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

var coreConfig = pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}

func TestPermuterReportFields(t *testing.T) {
	p, err := NewPermuter(coreConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rev := perm.BitReversal(coreConfig.LgN())
	rep, err := p.Permute(rev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != perm.ClassBMMC {
		t.Errorf("class %v", rep.Class)
	}
	if rep.RankGamma != rev.RankGamma(coreConfig.LgB()) {
		t.Errorf("rank gamma %d", rep.RankGamma)
	}
	if rep.UpperBound != bounds.UpperBound(coreConfig, rep.RankGamma) {
		t.Errorf("upper bound %d", rep.UpperBound)
	}
	if rep.SortBaseline != bounds.MergeSortIOs(coreConfig) {
		t.Errorf("sort baseline %d", rep.SortBaseline)
	}
	if !strings.Contains(rep.String(), "passes") {
		t.Errorf("report string %q", rep.String())
	}
	if err := p.Verify(rev); err != nil {
		t.Fatal(err)
	}
}

func TestPermuterStatsAndReset(t *testing.T) {
	p, _ := NewPermuter(coreConfig)
	defer p.Close()
	if _, err := p.Permute(perm.GrayCode(coreConfig.LgN())); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ParallelIOs() == 0 {
		t.Error("no I/Os recorded")
	}
	p.ResetStats()
	if p.Stats().ParallelIOs() != 0 {
		t.Error("reset failed")
	}
	if p.Config() != coreConfig {
		t.Error("config mismatch")
	}
	if p.System() == nil {
		t.Error("nil system")
	}
}

func TestPermuterRejectsWrongWidth(t *testing.T) {
	p, _ := NewPermuter(coreConfig)
	defer p.Close()
	if _, err := p.Permute(perm.BitReversal(coreConfig.LgN() + 1)); err == nil {
		t.Fatal("wrong address width accepted")
	}
}

func TestPermuterLoadRecordsRoundTrip(t *testing.T) {
	p, _ := NewPermuter(coreConfig)
	defer p.Close()
	recs := make([]pdm.Record, coreConfig.N)
	for i := range recs {
		recs[i] = pdm.Record{Key: uint64(i) * 3, Tag: 7}
	}
	if err := p.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	got, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestPermuterInvalidConfig(t *testing.T) {
	if _, err := NewPermuter(pdm.Config{N: 100, D: 3, B: 5, M: 7}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDetectTargetsCore(t *testing.T) {
	want := perm.Transpose(5, coreConfig.LgN()-5)
	res, err := DetectTargets(coreConfig, want.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBMMC || !res.Perm.Equal(want) {
		t.Fatal("detection failed")
	}
}

// TestPermuterFaultSurface: a permuter built over a failing backend
// surfaces the injected error through Permute instead of corrupting data.
func TestPermuterFaultSurface(t *testing.T) {
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{FailAfterN: 5})
	sys, err := pdm.NewSystem(coreConfig, fb)
	if err != nil {
		t.Fatal(err)
	}
	// Build the permuter by hand around the faulty system. The record load
	// runs disarmed, so the fault trips a few operations into the
	// permutation.
	p := &Permuter{eng: NewEngine(), ds: &Dataset{sys: sys}}
	defer p.Close()
	recs := make([]pdm.Record, coreConfig.N)
	for i := range recs {
		recs[i] = pdm.MakeRecord(uint64(i))
	}
	fb.Disarm()
	if err := p.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	fb.Arm()
	_, err = p.Permute(perm.BitReversal(coreConfig.LgN()))
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("fault not surfaced: %v", err)
	}
}

func TestPermuteGeneralRandom(t *testing.T) {
	p, _ := NewPermuter(coreConfig)
	defer p.Close()
	rng := rand.New(rand.NewSource(9))
	target := rng.Perm(coreConfig.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }
	rep, err := p.PermuteGeneral(context.Background(), targetOf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes < 2 {
		t.Errorf("sort finished in %d passes", rep.Passes)
	}
	if err := p.VerifyMapping(targetOf); err != nil {
		t.Fatal(err)
	}
}

func TestPermuterInverseMLDDispatch(t *testing.T) {
	cfg := coreConfig
	rng := rand.New(rand.NewSource(10))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	mld := perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
	inv := mld.Inverse()
	if inv.IsMLD(b, m) || inv.IsMRC(m) {
		t.Skip("inverse degenerated to a forward one-pass class")
	}
	p, _ := NewPermuter(cfg)
	defer p.Close()
	rep, err := p.Permute(inv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes != 1 {
		t.Errorf("inverse-MLD dispatched to %d passes", rep.Passes)
	}
	if rep.Class != perm.ClassInvMLD {
		t.Errorf("report class %v, want %v", rep.Class, perm.ClassInvMLD)
	}
	if err := p.Verify(inv); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteComposedBatching: composing a sequence before running it is
// never more expensive than running it step by step, and a permutation
// followed by its inverse is free.
func TestPermuteComposedBatching(t *testing.T) {
	n := coreConfig.LgN()
	rev := perm.BitReversal(n)

	batched, _ := NewPermuter(coreConfig)
	defer batched.Close()
	rep, err := batched.PermuteComposed(rev, perm.GrayCode(n), perm.GrayCode(n).Inverse(), rev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParallelIOs != 0 {
		t.Errorf("self-cancelling batch cost %d I/Os", rep.ParallelIOs)
	}
	if err := batched.Verify(perm.Identity(n)); err != nil {
		t.Fatal(err)
	}

	// A non-trivial batch must still land correctly.
	b2, _ := NewPermuter(coreConfig)
	defer b2.Close()
	seq := []perm.BMMC{perm.GrayCode(n), rev, perm.RotateBits(n, 3)}
	if _, err := b2.PermuteComposed(seq...); err != nil {
		t.Fatal(err)
	}
	want := seq[2].Compose(seq[1]).Compose(seq[0])
	if err := b2.Verify(want); err != nil {
		t.Fatal(err)
	}

	// Empty batch is the identity.
	b3, _ := NewPermuter(coreConfig)
	defer b3.Close()
	rep, err = b3.PermuteComposed()
	if err != nil || rep.ParallelIOs != 0 {
		t.Fatalf("empty batch: %v, %d I/Os", err, rep.ParallelIOs)
	}
}

// TestPermuteAllPerJob: PermuteAll materializes every intermediate state,
// reports per-job costs, and serves repeated plans from the cache.
func TestPermuteAllPerJob(t *testing.T) {
	n := coreConfig.LgN()
	rev := perm.BitReversal(n)
	gray := perm.GrayCode(n)

	p, _ := NewPermuter(coreConfig)
	defer p.Close()
	batch, err := p.PermuteAll(context.Background(), []perm.BMMC{rev, gray, rev, rev})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 4 {
		t.Fatalf("got %d job reports, want 4", len(batch.Jobs))
	}
	// bitrev is a factored permutation here: three occurrences, one plan.
	if batch.Planned != 1 || batch.CacheHits != 2 {
		t.Errorf("planned %d, cache hits %d; want 1 planned, 2 hits", batch.Planned, batch.CacheHits)
	}
	if batch.Jobs[0].PlanCached || !batch.Jobs[2].PlanCached || !batch.Jobs[3].PlanCached {
		t.Errorf("per-job cache flags wrong: %v %v %v",
			batch.Jobs[0].PlanCached, batch.Jobs[2].PlanCached, batch.Jobs[3].PlanCached)
	}
	totalIOs, totalPasses := 0, 0
	for _, rep := range batch.Jobs {
		totalIOs += rep.ParallelIOs
		totalPasses += rep.Passes
	}
	if totalIOs != batch.ParallelIOs || totalPasses != batch.Passes {
		t.Errorf("aggregate (%d IOs, %d passes) != sum of jobs (%d, %d)",
			batch.ParallelIOs, batch.Passes, totalIOs, totalPasses)
	}
	// The stored records reflect the full applied sequence.
	want := rev.Compose(rev.Compose(gray.Compose(rev)))
	if err := p.Verify(want); err != nil {
		t.Fatal(err)
	}
	// Two misses: bitrev's factorization plus the cached one-pass
	// classification of the Gray code.
	if got := p.CacheStats(); got.Hits != 2 || got.Misses != 2 || got.Size != 2 {
		t.Errorf("cache stats %+v", got)
	}
	if len(batch.String()) == 0 {
		t.Error("empty batch report string")
	}
}
