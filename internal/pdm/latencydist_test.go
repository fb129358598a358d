package pdm

import (
	"math"
	"sort"
	"testing"
	"time"
)

// driveDistSchedule runs the fixed chaos workload under a latency wrapper
// configured with dist and returns the per-op delays it charged, in
// schedule order (sequential driver, so the order is deterministic).
func driveDistSchedule(t *testing.T, seed int64, dist LatencyDist) []time.Duration {
	t.Helper()
	log := &ChaosLog{}
	lb := NewLatencyBackend(MemBackend(), LatencyOptions{Seed: seed, Dist: dist, Log: log})
	chaosOpen(t, lb)
	lb.Disarm()
	chaosFill(t, lb)
	lb.Arm()
	got := make([]Record, chaosBS)
	for disk := 0; disk < chaosDisks; disk++ {
		for block := 0; block < chaosBlocks; block++ {
			if err := lb.ReadBlockRanges([]RangeXfer{{Disk: disk, Block: block, Blocks: vec(got, chaosBS)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var delays []time.Duration
	for _, op := range log.Ops() {
		delays = append(delays, op.Delay)
	}
	return delays
}

// TestChaosLatencyDistDeterminism pins the distribution catalog to the
// wrapper determinism contract: the same seed yields the same per-op delay
// schedule, a different seed a different one, and records are untouched.
func TestChaosLatencyDistDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		dist LatencyDist
	}{
		{"lognormal", LognormalLatency(50*time.Microsecond, 1.0)},
		{"pareto", ParetoLatency(20*time.Microsecond, 1.2, 5*time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := driveDistSchedule(t, 7, tc.dist)
			b := driveDistSchedule(t, 7, tc.dist)
			c := driveDistSchedule(t, 8, tc.dist)
			if len(a) == 0 {
				t.Fatal("no delays recorded")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("op %d: same seed drew %v then %v", i, a[i], b[i])
				}
			}
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("different seeds drew identical delay schedules")
			}
		})
	}
}

// sampleDist draws n deterministic samples straight from the law, the way
// the wrapper does, so distribution shape can be checked without sleeping.
func sampleDist(dist LatencyDist, seed int64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		u1 := distUniform(chaosHash(seed, saltDist, IORead, 0, i, 0))
		u2 := distUniform(chaosHash(seed, saltJitter, IORead, 0, i, 0))
		out[i] = float64(dist.sample(u1, u2))
	}
	sort.Float64s(out)
	return out
}

// TestChaosLatencyDistShape sanity-checks the catalog's laws over a large
// seeded sample set: the lognormal median lands near its parameter, the
// Pareto tail is far heavier than the lognormal body, and the Pareto cap
// clamps the extremes.
func TestChaosLatencyDistShape(t *testing.T) {
	const n = 4096
	median := 100 * time.Microsecond

	ln := sampleDist(LognormalLatency(median, 0.8), 11, n)
	if got := ln[n/2]; math.Abs(got-float64(median)) > 0.15*float64(median) {
		t.Fatalf("lognormal sample median %v, want near %v", time.Duration(got), median)
	}

	par := sampleDist(ParetoLatency(median, 1.1, 0), 11, n)
	if par[0] < float64(median) {
		t.Fatalf("pareto minimum %v below its scale %v", time.Duration(par[0]), median)
	}
	// p99.9 / median ratio: the power-law tail must dwarf the lognormal's.
	lnTail := ln[n-n/1000-1] / ln[n/2]
	parTail := par[n-n/1000-1] / par[n/2]
	if parTail < 4*lnTail {
		t.Fatalf("pareto tail (p99.9/median %.1f) not heavier than lognormal (%.1f)", parTail, lnTail)
	}

	cap := 400 * time.Microsecond
	capped := sampleDist(ParetoLatency(median, 1.1, cap), 11, n)
	if got := capped[n-1]; got > float64(cap) {
		t.Fatalf("capped pareto drew %v past cap %v", time.Duration(got), cap)
	}
	if capped[n-1] != float64(cap) {
		t.Fatalf("cap never engaged over %d samples: max %v", n, time.Duration(capped[n-1]))
	}
}

// TestChaosLatencyDistConstantUnchanged pins that leaving Dist nil keeps
// the original constant-plus-jitter law bit-for-bit: the golden-schedule
// contract for existing users.
func TestChaosLatencyDistConstantUnchanged(t *testing.T) {
	log := &ChaosLog{}
	lb := NewLatencyBackend(MemBackend(), LatencyOptions{
		Seed: 3, PerBlock: 100 * time.Microsecond, Jitter: 0.5, Log: log,
	})
	chaosOpen(t, lb)
	lb.Disarm()
	chaosFill(t, lb)
	lb.Arm()
	got := make([]Record, chaosBS)
	if err := lb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(got, chaosBS)}}); err != nil {
		t.Fatal(err)
	}
	ops := log.Ops()
	if len(ops) != 1 {
		t.Fatalf("logged %d ops, want 1", len(ops))
	}
	u := float64(chaosHash(3, saltJitter, IORead, 0, 0, 0)) / math.MaxUint64
	want := time.Duration(float64(100*time.Microsecond) * (1 + 0.5*(2*u-1)))
	if ops[0].Delay != want {
		t.Fatalf("constant law delay %v, want %v", ops[0].Delay, want)
	}
}
