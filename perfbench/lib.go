package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	bmmc "repro"
	"repro/internal/pdm"
)

// libCfg is the lib-file-20 geometry: 2^20 records of 16 bytes, so a
// dataset's source and target portions are 16 MiB each and fit in L3.
// At 2^24 and 2^22 (beyond L3) job times on a shared host follow the
// neighbours' memory traffic by up to 50% from minute to minute, more
// than any bound the benchmark can hold; see README.md.
var libCfg = bmmc.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 16}

// libRankGamma is the rank of the random permutation's gamma block: it
// fixes the pass count (2 at libCfg) independent of the seed.
const libRankGamma = 6

// maxDirtyAge is how long a library dataset serves timed jobs before it
// is replaced, untimed. The kernel writes back mapped pages that have
// been dirty for 30 s (vm.dirty_expire_centisecs); the jobs that then
// fault on the cleaned pages ran up to 3x slower, and there were enough
// of them in the last seconds of a run to move job_ms_tail.
const maxDirtyAge = 20 * time.Second

// libTarget is one file-backed dataset and where its rounds stand.
type libTarget struct {
	ds     *bmmc.Dataset
	dir    string
	born   time.Time        // when set-up made the dataset
	setup  time.Duration    // how long that set-up took
	traced bool             // backend instrumented, progress hooked
	cum    bmmc.Permutation // what the dataset holds: cum applied to the canonical records
	next   int              // index of the plan the next round runs
}

// runLib is the lib-file-20 workload: a seeded rank-6 BMMC and its
// inverse, planned once in set-up, executed alternately with
// Engine.Execute on a FileBackend dataset; every output is checked
// against the y = Ax xor c oracle outside the timed window. A traced run
// spends its first half on a plain dataset and its second on an
// instrumented one, so the hooks' cost shows as trace.overhead_frac.
func runLib(ctx context.Context, e *env) (*outcome, error) {
	rng := bmmc.NewRand(e.seed)
	fwd := bmmc.RandomWithRankGamma(rng, libCfg.LgN(), libCfg.LgB(), libRankGamma)
	perms := []bmmc.Permutation{fwd, fwd.Inverse()}
	o := &outcome{n: libCfg.N, blockRecords: libCfg.B}
	var eng *bmmc.Engine

	var plans []*bmmc.Plan
	setup := func(name string, traced bool) (*libTarget, error) {
		start := time.Now()
		dir := filepath.Join(e.dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		be := bmmc.FileBackend(dir)
		if traced {
			be = pdm.InstrumentBackend(be, e.tr.observe)
		}
		ds, err := bmmc.CreateDataset(libCfg, bmmc.WithBackend(be))
		if err != nil {
			return nil, err
		}
		// A fresh engine per set-up, so every set-up plans cold.
		eng = bmmc.NewEngine()
		plans = plans[:0]
		for _, p := range perms {
			t := time.Now()
			pl, err := eng.Plan(libCfg, p)
			if err != nil {
				ds.Close()
				return nil, err
			}
			e.tr.add("core.plan", "", -1, t, time.Now())
			o.planDur = append(o.planDur, time.Since(t))
			plans = append(plans, pl)
		}
		return &libTarget{ds: ds, dir: dir, born: time.Now(), setup: time.Since(start), traced: traced, cum: bmmc.Identity(libCfg.LgN())}, nil
	}
	var t *libTarget
	teardown := func() {
		if t != nil {
			t.ds.Close()
			os.RemoveAll(t.dir)
			t = nil
			runtime.GC() // the next set-up starts from a collected heap
		}
	}
	defer teardown()

	// exec runs the target's next plan as one job and checks the output
	// outside the job's timing.
	exec := func(name string) (jobSample, error) {
		pl := plans[t.next]
		t.next = 1 - t.next
		o.attempted++
		id := e.tr.begin(name, "")
		var opts []bmmc.Option
		if t.traced {
			var last time.Time
			opts = append(opts, bmmc.WithProgress(func(ev bmmc.PassEvent) {
				now := time.Now()
				if ev.Load > 0 { // Load 0 announces a pass; later events close one load each
					e.tr.add("engine.load", "", id, last, now)
				}
				last = now
			}))
		}
		start := time.Now()
		rep, err := eng.Execute(ctx, pl, t.ds, opts...)
		dur := time.Since(start)
		e.tr.end(id)
		if err != nil {
			o.failed++
			return jobSample{}, fmt.Errorf("perfbench: Execute: %w", err)
		}
		t.cum = pl.Permutation().Compose(t.cum)
		// The y = Ax xor c oracle through the compiled form of the same
		// matrix: Dataset.Verify's check at a third of its cost.
		if err := t.ds.VerifyMapping(t.cum.Compile().Apply); err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s output mismatch: %v\n", name, err)
		}
		runtime.GC() // collect the verification's record dump before the next timed call
		return jobSample{
			dur: dur, passes: pl.PassCount(), costIOs: pl.CostIOs(), lowerIOs: pl.LowerBoundIOs(),
			reported: rep.ParallelIOs, traced: t.traced, span: id,
		}, nil
	}
	// prepare sets up a dataset and runs one forward/inverse pair on it
	// untimed: the first writes to a fresh dataset's target portion
	// allocate the page-cache pages every later job reuses.
	prepare := func(name string, traced bool) error {
		teardown()
		var err error
		if t, err = setup(name, traced); err != nil {
			return err
		}
		for range plans {
			if _, err := exec("warmup"); err != nil {
				return err
			}
		}
		return nil
	}

	if e.tr == nil {
		// Set up several times from nothing and keep the last, so setup_s
		// is a median.
		for i := 0; i < setupRepeats-1; i++ {
			teardown()
			var err error
			if t, err = setup(fmt.Sprintf("lib-%d", i), false); err != nil {
				return nil, err
			}
			o.setups = append(o.setups, t.setup)
		}
	}
	if err := prepare("lib-plain", false); err != nil {
		return nil, err
	}
	o.setups = append(o.setups, t.setup)
	st := eng.CacheStats()
	o.planned, o.cacheHits = int(st.Hits+st.Misses), int(st.Hits)

	for !e.done(o.timed) {
		if e.tr != nil && !t.traced && o.timed >= e.seconds/2 {
			// Second half of a traced run: the same rounds on a fresh
			// instrumented dataset. Both datasets are never live at once,
			// so the page cache holds one run's worth of dirty data.
			if err := prepare("lib-traced", true); err != nil {
				return o, err
			}
		}
		if time.Since(t.born) > maxDirtyAge {
			if err := prepare(filepath.Base(t.dir), t.traced); err != nil {
				return o, err
			}
		}
		j, err := exec("job")
		if err != nil {
			return o, err
		}
		o.timed += j.dur
		o.jobs = append(o.jobs, j)
		e.between(o.timed)
	}
	if t.traced {
		id := e.tr.begin("pdm.sync", "")
		err := t.ds.Sync()
		e.tr.end(id)
		if err != nil {
			return o, err
		}
	}
	return o, nil
}
