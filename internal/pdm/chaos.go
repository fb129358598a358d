package pdm

// Adversarial storage: deterministic fault- and latency-injecting Backend
// wrappers. The paper's parallel-disk model assumes D independent,
// uniformly fast, always-correct disks; these wrappers let every engine
// path and the daemon's job/dataset lifecycle be exercised under disks
// that are slow, skewed, flaky, or tear range transfers midway — with the
// whole adversarial schedule reproducible from a single seed, so a
// failing chaos run shrinks to a replayable case.
//
// Composability: each wrapper takes any Backend and is itself a Backend,
// so adversaries stack over MemBackend, FileBackend, ShardedFileBackend,
// a custom third-party backend, or each other. A wrapper sees every
// transfer as the run the System issued — a one-block run from the
// per-operation path, a coalesced run from the grouped path — decides its
// fate, and forwards it to the inner backend unchanged (or, for a torn
// run, only its prefix), so fault injection composes with run coalescing
// instead of disabling it.
//
// Determinism contract:
//
//   - Probability decisions (FlakyOptions.Rate, TornOptions.Rate, latency
//     jitter, tear points) are pure functions of (seed, kind, disk, block,
//     visit), where visit counts prior armed operations on the same
//     (kind, disk, block). They are therefore independent of goroutine
//     interleaving: pipelined and concurrent runs trigger the same fault
//     set as sequential ones.
//   - Count triggers (FlakyOptions.FailAfterN, TornOptions.TearNth) use
//     the wrapper-global attempt ordinal, which is deterministic whenever
//     the backend observes a deterministic operation order — sequential,
//     unpipelined execution, as used by the golden-schedule tests.
//
// Every injected failure wraps ErrInjectedFault, so callers at any layer
// (System, engine, Engine.Execute, the bmmcd job manager) can
// errors.Is for it. Wrappers start armed; Disarm/Arm bracket setup
// phases (initial record loads) that should run clean.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// ErrInjectedFault is the sentinel wrapped by every fault an adversarial
// wrapper injects, so callers can errors.Is for it.
var ErrInjectedFault = errors.New("pdm: injected disk fault")

// FaultMode selects which operation kinds an adversary injects on.
type FaultMode int

const (
	// FaultReadWrite injects on both reads and writes (the zero value).
	FaultReadWrite FaultMode = iota
	// FaultReadOnly injects on reads only.
	FaultReadOnly
	// FaultWriteOnly injects on writes only.
	FaultWriteOnly
)

func (m FaultMode) matches(kind IOKind) bool {
	switch m {
	case FaultReadOnly:
		return kind == IORead
	case FaultWriteOnly:
		return kind == IOWrite
	}
	return true
}

// ChaosOp records one backend operation observed by an adversarial
// wrapper: its ordinal among the wrapper's armed operations, the blocks it
// addressed, its per-(kind,disk,block) visit number, and the fault it
// injected ("" for a clean operation).
type ChaosOp struct {
	Op     int    // armed-operation ordinal, from 0
	Kind   IOKind // read or write
	Disk   int    // disk addressed
	Block  int    // first block of the operation
	Blocks int    // blocks covered (1 for single-block ops, >1 for ranges)
	Visit  int    // prior armed ops on the same (kind, disk, block)
	Fault  string // injected fault description, "" when the op ran clean

	// Delay is the simulated service time a LatencyBackend charged the
	// operation (zero for fault-only wrappers). It is part of the
	// deterministic schedule — same seed, same workload, same delays —
	// but not of String, so golden schedules are latency-agnostic.
	Delay time.Duration
}

func (o ChaosOp) String() string {
	s := fmt.Sprintf("op%04d %s d%d b%d n%d v%d", o.Op, o.Kind, o.Disk, o.Block, o.Blocks, o.Visit)
	if o.Fault != "" {
		s += " FAULT " + o.Fault
	}
	return s
}

// ChaosLog accumulates the operations an adversarial wrapper observed —
// the fault schedule. Safe for concurrent use; under sequential execution
// the log is fully deterministic (same seed, same workload, same String),
// which is what the seed-reproducibility and golden-schedule tests pin.
type ChaosLog struct {
	mu  sync.Mutex
	ops []ChaosOp
}

func (l *ChaosLog) add(op ChaosOp) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// Ops returns a copy of the recorded operations in observation order.
func (l *ChaosLog) Ops() []ChaosOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ChaosOp(nil), l.ops...)
}

// Faults returns only the operations that injected a fault.
func (l *ChaosLog) Faults() []ChaosOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ChaosOp
	for _, op := range l.ops {
		if op.Fault != "" {
			out = append(out, op)
		}
	}
	return out
}

// Len returns the number of recorded operations.
func (l *ChaosLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Reset clears the log.
func (l *ChaosLog) Reset() {
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
}

// String renders the schedule one operation per line.
func (l *ChaosLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lines := make([]string, len(l.ops))
	for i, op := range l.ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}

// chaosHash mixes the decision coordinates through a splitmix64-style
// finalizer. salt separates independent decision streams (fault vs jitter
// vs tear point) drawn from the same coordinates.
func chaosHash(seed int64, salt uint64, kind IOKind, disk, block, visit int) uint64 {
	x := uint64(seed) ^ salt
	for _, v := range [...]uint64{uint64(kind) + 1, uint64(disk) + 1, uint64(block) + 1, uint64(visit) + 1} {
		x ^= v * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

const (
	saltFault  = 0x8e51_ecf3_27bd_1a01
	saltJitter = 0x1b87_3f04_9c4d_66fd
	saltTear   = 0x5ff2_ab09_d033_7e55
	saltDist   = 0x7a44_91de_0b5c_23c9
)

// chance reports a deterministic Bernoulli draw: true with probability p.
func chance(p float64, h uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h)/math.MaxUint64 < p
}

// visitKey identifies one (kind, disk, block) coordinate for visit counts.
type visitKey struct {
	kind        IOKind
	disk, block int
}

// chaosState is the bookkeeping shared by all adversarial wrappers: the
// armed flag, the attempt ordinal, per-coordinate visit counts, and the
// optional schedule log.
type chaosState struct {
	seed int64
	log  *ChaosLog

	mu     sync.Mutex
	armed  bool
	ops    int
	visits map[visitKey]int
}

func newChaosState(seed int64, log *ChaosLog) *chaosState {
	return &chaosState{seed: seed, log: log, armed: true, visits: make(map[visitKey]int)}
}

// next assigns the operation its ordinal and visit number. Disarmed
// operations are neither counted nor logged — they pass through clean, so
// setup phases (initial loads) never perturb the armed schedule.
func (c *chaosState) next(kind IOKind, disk, block int) (op, visit int, armed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return 0, 0, false
	}
	op = c.ops
	c.ops++
	k := visitKey{kind, disk, block}
	visit = c.visits[k]
	c.visits[k] = visit + 1
	return op, visit, true
}

// Arm enables injection and logging. Wrappers start armed.
func (c *chaosState) Arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

// Disarm makes the wrapper fully transparent: no faults, no latency, no
// counting, no logging — until Arm.
func (c *chaosState) Disarm() {
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
}

// Reset zeroes the attempt ordinal and visit counts (and the log, if any),
// restarting the schedule from the beginning.
func (c *chaosState) Reset() {
	c.mu.Lock()
	c.ops = 0
	c.visits = make(map[visitKey]int)
	c.mu.Unlock()
	if c.log != nil {
		c.log.Reset()
	}
}

// Ops returns the number of armed operations observed so far.
func (c *chaosState) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// chaosInner is the wrapped backend as the adversaries see it:
// forwarding for Open/Sync/Close/SetConcurrent, and one-run transfers.
type chaosInner struct {
	be Backend
}

func (ci *chaosInner) open(numDisks, numBlocks, blockSize int) error {
	return ci.be.Open(numDisks, numBlocks, blockSize)
}

func (ci *chaosInner) setConcurrent(on bool) {
	if cs, ok := ci.be.(concurrentSetter); ok {
		cs.SetConcurrent(on)
	}
}

// move forwards one run — a one-element batch — through the inner backend.
func (ci *chaosInner) move(kind IOKind, x []RangeXfer) error {
	if kind == IOWrite {
		return ci.be.WriteBlockRanges(x)
	}
	return ci.be.ReadBlockRanges(x)
}

// ---------------------------------------------------------------------------
// FlakyBackend

// FlakyOptions configures a FlakyBackend. The zero value (with a seed)
// injects nothing — arm a failure source explicitly via Rate or
// FailAfterN.
type FlakyOptions struct {
	// Seed drives every probability decision; the fault schedule is a pure
	// function of the seed and the operation stream.
	Seed int64
	// Rate is the per-operation failure probability, decided
	// deterministically per (kind, disk, block, visit). 0 disables.
	Rate float64
	// FailAfterN, when > 0, fails every matching operation from the N'th
	// armed attempt (1-based) onward: FailAfterN == 1 fails everything.
	// 0 disables count-triggered faults.
	FailAfterN int
	// RecoverAfter, when > 0 together with FailAfterN, bounds the failing
	// window to that many attempts — the transient-then-recover adversary:
	// operations at ordinals [FailAfterN-1, FailAfterN-1+RecoverAfter)
	// fail, later ones succeed again. 0 never recovers.
	RecoverAfter int
	// Mode restricts injection to reads or writes (read-only / write-only
	// flakiness). The zero value faults both.
	Mode FaultMode
	// Log, when non-nil, records the full operation schedule.
	Log *ChaosLog
}

// FlakyBackend injects seeded failures into any Backend: per-op fault
// probability, fail-after-N, read-only/write-only modes, and
// transient-then-recover windows. Injected errors wrap ErrInjectedFault
// and abort the batch at the faulted transfer: transfers earlier in the
// batch land, later ones are not attempted.
type FlakyBackend struct {
	inner chaosInner
	o     FlakyOptions
	st    *chaosState
}

// NewFlakyBackend wraps inner with seeded fault injection. The wrapper
// starts armed.
func NewFlakyBackend(inner Backend, o FlakyOptions) *FlakyBackend {
	return &FlakyBackend{inner: chaosInner{be: inner}, o: o, st: newChaosState(o.Seed, o.Log)}
}

// NewFaultyBackend wraps inner so every operation from number failAfter
// (0-based, reads and writes combined) onward fails — the simplest
// count-triggered adversary.
func NewFaultyBackend(inner Backend, failAfter int) *FlakyBackend {
	return NewFlakyBackend(inner, FlakyOptions{FailAfterN: failAfter + 1})
}

// Arm enables injection (wrappers start armed).
func (f *FlakyBackend) Arm() { f.st.Arm() }

// Disarm makes the wrapper transparent until Arm.
func (f *FlakyBackend) Disarm() { f.st.Disarm() }

// Reset restarts the fault schedule from operation 0.
func (f *FlakyBackend) Reset() { f.st.Reset() }

// Ops returns the number of armed operations observed.
func (f *FlakyBackend) Ops() int { return f.st.Ops() }

// inject decides the fate of one operation, logging it either way.
func (f *FlakyBackend) inject(kind IOKind, disk, block, blocks int) error {
	op, visit, armed := f.st.next(kind, disk, block)
	if !armed {
		return nil
	}
	fault := ""
	if f.o.Mode.matches(kind) {
		if f.o.FailAfterN > 0 && op >= f.o.FailAfterN-1 &&
			(f.o.RecoverAfter <= 0 || op < f.o.FailAfterN-1+f.o.RecoverAfter) {
			fault = "count"
		} else if chance(f.o.Rate, chaosHash(f.o.Seed, saltFault, kind, disk, block, visit)) {
			fault = "rate"
		}
	}
	var err error
	if fault != "" {
		word := "read"
		if kind == IOWrite {
			word = "write"
		}
		err = fmt.Errorf("%w: flaky %s of disk %d block %d (%s, visit %d)",
			ErrInjectedFault, word, disk, block, fault, visit)
	}
	ent := ChaosOp{Op: op, Kind: kind, Disk: disk, Block: block, Blocks: blocks, Visit: visit}
	if err != nil {
		ent.Fault = err.Error()
	}
	f.st.log.add(ent)
	return err
}

// Open implements Backend.
func (f *FlakyBackend) Open(numDisks, numBlocks, blockSize int) error {
	return f.inner.open(numDisks, numBlocks, blockSize)
}

// ReadBlockRanges implements Backend: each run is one injection decision,
// in batch order, so faults compose with coalesced grouped I/O. The runs
// before the first injected fault land; the faulted and following ones are
// not attempted.
func (f *FlakyBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return f.transfer(IORead, xfers)
}

// WriteBlockRanges implements Backend (see ReadBlockRanges).
func (f *FlakyBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return f.transfer(IOWrite, xfers)
}

func (f *FlakyBackend) transfer(kind IOKind, xfers []RangeXfer) error {
	for i, x := range xfers {
		if err := f.inject(kind, x.Disk, x.Block, len(x.Blocks)); err != nil {
			return err
		}
		if err := f.inner.move(kind, xfers[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// SetConcurrent forwards the dispatch toggle to the inner backend.
func (f *FlakyBackend) SetConcurrent(on bool) { f.inner.setConcurrent(on) }

// Sync implements Backend.
func (f *FlakyBackend) Sync() error { return f.inner.be.Sync() }

// Close implements Backend.
func (f *FlakyBackend) Close() error { return f.inner.be.Close() }

// ---------------------------------------------------------------------------
// LatencyBackend

// LatencyOptions configures a LatencyBackend.
type LatencyOptions struct {
	// Seed drives the deterministic per-op jitter.
	Seed int64
	// PerBlock is the mean service time per block transferred: a range of
	// k blocks takes k times as long, so coalescing changes syscall count
	// but not simulated service time.
	PerBlock time.Duration
	// Jitter varies each operation's latency by up to this fraction of its
	// mean, deterministically per (kind, disk, block, visit). 0 disables.
	Jitter float64
	// Dist, when non-nil, replaces the constant-plus-jitter law
	// (PerBlock/Jitter) with a per-block service-time distribution from
	// the catalog — LognormalLatency or ParetoLatency — sampled
	// deterministically per (kind, disk, block, visit) from Seed.
	// DiskFactors still apply on top.
	Dist LatencyDist
	// DiskFactors skews per-disk speed: disk d's latency is multiplied by
	// DiskFactors[d % len]. Nil means uniform disks; {10, 1, 1, 1} makes
	// disk 0 ten times slower than the rest.
	DiskFactors []float64
	// Log, when non-nil, records the operation schedule.
	Log *ChaosLog
}

// LatencyDist is a per-block service-time law for LatencyBackend: it maps
// two independent uniform draws in (0,1] — pure hashes of (seed, kind,
// disk, block, visit) — to one block's service time, so a distribution is
// exactly as deterministic and interleaving-independent as the constant
// law it replaces. Construct values with LognormalLatency or
// ParetoLatency.
type LatencyDist interface {
	// sample maps two uniforms in (0,1] to one block's service time.
	sample(u1, u2 float64) time.Duration
	// String names the distribution and its parameters.
	String() string
}

// lognormalDist models the body of real spinning-disk service-time traces:
// most operations near the median, a smooth right tail.
type lognormalDist struct {
	median time.Duration
	sigma  float64
}

// LognormalLatency returns a lognormal service-time law with the given
// median per-block time and log-scale shape sigma (sigma 0 degenerates to
// the constant law; 0.5 is a mild tail, 1.5 a heavy one). The mean is
// median * exp(sigma²/2).
func LognormalLatency(median time.Duration, sigma float64) LatencyDist {
	return lognormalDist{median: median, sigma: sigma}
}

func (d lognormalDist) sample(u1, u2 float64) time.Duration {
	// Box–Muller: z is standard normal; exp(sigma·z) is lognormal with
	// median 1.
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return time.Duration(float64(d.median) * math.Exp(d.sigma*z))
}

func (d lognormalDist) String() string {
	return fmt.Sprintf("lognormal(median=%v, sigma=%g)", d.median, d.sigma)
}

// paretoDist models the pathological tail: the occasional operation that
// takes orders of magnitude longer than the median (firmware stalls,
// sector retries).
type paretoDist struct {
	scale time.Duration
	alpha float64
	cap   time.Duration
}

// ParetoLatency returns a Pareto (power-law tail) service-time law:
// samples are scale * U^(-1/alpha), so scale is the minimum per-block time
// and smaller alpha means a heavier tail (alpha <= 1 has infinite mean).
// cap, when positive, clamps individual samples so a deterministic test
// schedule cannot stall for unbounded wall-clock; 0 leaves the tail
// unclamped.
func ParetoLatency(scale time.Duration, alpha float64, cap time.Duration) LatencyDist {
	return paretoDist{scale: scale, alpha: alpha, cap: cap}
}

func (d paretoDist) sample(u1, _ float64) time.Duration {
	t := time.Duration(float64(d.scale) * math.Pow(u1, -1/d.alpha))
	if d.cap > 0 && t > d.cap {
		t = d.cap
	}
	return t
}

func (d paretoDist) String() string {
	return fmt.Sprintf("pareto(scale=%v, alpha=%g, cap=%v)", d.scale, d.alpha, d.cap)
}

// distUniform maps a hash to a uniform draw in (0,1]: never exactly 0, so
// log and negative powers stay finite.
func distUniform(h uint64) float64 {
	return (float64(h>>11) + 1) / float64(1<<53)
}

// LatencyBackend delays every operation of any Backend by a seeded,
// per-disk-skewed service time. It honors the concurrent-dispatch toggle:
// with SetConcurrent(true) a batch's per-disk delays overlap the way D
// independent spindles would, so pipelining and concurrency win exactly
// when they would on real skewed hardware; sequential dispatch pays the
// sum. Latency changes wall-clock only — records, counts, and traces are
// untouched.
type LatencyBackend struct {
	inner      chaosInner
	o          LatencyOptions
	st         *chaosState
	mu         sync.Mutex
	concurrent bool
}

// NewLatencyBackend wraps inner with deterministic injected latency. The
// wrapper starts armed.
func NewLatencyBackend(inner Backend, o LatencyOptions) *LatencyBackend {
	return &LatencyBackend{inner: chaosInner{be: inner}, o: o, st: newChaosState(o.Seed, o.Log)}
}

// Arm enables latency injection (wrappers start armed).
func (l *LatencyBackend) Arm() { l.st.Arm() }

// Disarm makes the wrapper transparent until Arm.
func (l *LatencyBackend) Disarm() { l.st.Disarm() }

// Reset restarts the schedule from operation 0.
func (l *LatencyBackend) Reset() { l.st.Reset() }

// Ops returns the number of armed operations observed.
func (l *LatencyBackend) Ops() int { return l.st.Ops() }

// delay sleeps the operation's deterministic service time and logs it.
func (l *LatencyBackend) delay(kind IOKind, disk, block, blocks int) {
	op, visit, armed := l.st.next(kind, disk, block)
	if !armed {
		return
	}
	var d float64
	if l.o.Dist != nil {
		u1 := distUniform(chaosHash(l.o.Seed, saltDist, kind, disk, block, visit))
		u2 := distUniform(chaosHash(l.o.Seed, saltJitter, kind, disk, block, visit))
		d = float64(l.o.Dist.sample(u1, u2)) * float64(blocks)
	} else {
		d = float64(l.o.PerBlock) * float64(blocks)
		if l.o.Jitter > 0 {
			u := float64(chaosHash(l.o.Seed, saltJitter, kind, disk, block, visit)) / math.MaxUint64
			d *= 1 + l.o.Jitter*(2*u-1)
		}
	}
	if len(l.o.DiskFactors) > 0 {
		d *= l.o.DiskFactors[disk%len(l.o.DiskFactors)]
	}
	l.st.log.add(ChaosOp{Op: op, Kind: kind, Disk: disk, Block: block, Blocks: blocks, Visit: visit,
		Delay: time.Duration(d)})
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// each runs one operation per index, concurrently when the backend is in
// concurrent-dispatch mode (so per-disk delays overlap like real
// spindles), and returns the first error by index order.
func (l *LatencyBackend) each(n int, op func(int) error) error {
	l.mu.Lock()
	conc := l.concurrent
	l.mu.Unlock()
	if !conc || n == 1 {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = op(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Open implements Backend.
func (l *LatencyBackend) Open(numDisks, numBlocks, blockSize int) error {
	return l.inner.open(numDisks, numBlocks, blockSize)
}

// ReadBlockRanges implements Backend: a k-block run pays k blocks of
// latency in one delay, then moves through the inner backend.
func (l *LatencyBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return l.transfer(IORead, xfers)
}

// WriteBlockRanges implements Backend (see ReadBlockRanges).
func (l *LatencyBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return l.transfer(IOWrite, xfers)
}

func (l *LatencyBackend) transfer(kind IOKind, xfers []RangeXfer) error {
	return l.each(len(xfers), func(i int) error {
		l.delay(kind, xfers[i].Disk, xfers[i].Block, len(xfers[i].Blocks))
		return l.inner.move(kind, xfers[i:i+1])
	})
}

// SetConcurrent switches the wrapper (and the inner backend) between
// sequential and overlapped per-disk dispatch.
func (l *LatencyBackend) SetConcurrent(on bool) {
	l.mu.Lock()
	l.concurrent = on
	l.mu.Unlock()
	l.inner.setConcurrent(on)
}

// Sync implements Backend.
func (l *LatencyBackend) Sync() error { return l.inner.be.Sync() }

// Close implements Backend.
func (l *LatencyBackend) Close() error { return l.inner.be.Close() }

// ---------------------------------------------------------------------------
// TornBackend

// TornOptions configures a TornBackend.
type TornOptions struct {
	// Seed drives the tear probability and the tear point.
	Seed int64
	// Rate is the probability a multi-block range transfer tears midway,
	// decided deterministically per (kind, disk, block, visit). 0 disables.
	Rate float64
	// TearNth, when > 0, tears the N'th armed multi-block range transfer
	// (1-based) regardless of Rate. 0 disables count-triggered tears.
	TearNth int
	// Mode restricts tearing to reads or writes. The zero value tears both.
	Mode FaultMode
	// Log, when non-nil, records the range-transfer schedule.
	Log *ChaosLog
}

// TornBackend tears coalesced range transfers midway: a torn k-block
// range moves only a prefix of its vector, the first 1..k-1 blocks (the
// tear point is seeded), then fails with a wrapped ErrInjectedFault.
// Single-block runs are never torn — blocks land atomically, exactly the
// failure surface the grouped parallel-I/O path must survive: per-wave
// accounting must not double-count or lose operations, and the
// fallback-to-loop path must leave the records exactly as the per-block
// reference semantics would.
type TornBackend struct {
	inner chaosInner
	o     TornOptions
	st    *chaosState

	mu     sync.Mutex
	ranges int // armed multi-block range transfers seen, for TearNth
}

// NewTornBackend wraps inner with seeded torn range transfers. The
// wrapper starts armed.
func NewTornBackend(inner Backend, o TornOptions) *TornBackend {
	return &TornBackend{inner: chaosInner{be: inner}, o: o, st: newChaosState(o.Seed, o.Log)}
}

// Arm enables tearing (wrappers start armed).
func (tb *TornBackend) Arm() { tb.st.Arm() }

// Disarm makes the wrapper transparent until Arm.
func (tb *TornBackend) Disarm() { tb.st.Disarm() }

// Reset restarts the tear schedule from operation 0.
func (tb *TornBackend) Reset() {
	tb.st.Reset()
	tb.mu.Lock()
	tb.ranges = 0
	tb.mu.Unlock()
}

// Ops returns the number of armed runs observed, single-block ones
// included.
func (tb *TornBackend) Ops() int { return tb.st.Ops() }

// Open implements Backend.
func (tb *TornBackend) Open(numDisks, numBlocks, blockSize int) error {
	return tb.inner.open(numDisks, numBlocks, blockSize)
}

// ReadBlockRanges implements Backend, tearing scheduled runs.
func (tb *TornBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return tb.transfer(IORead, xfers)
}

// WriteBlockRanges implements Backend, tearing scheduled runs.
func (tb *TornBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return tb.transfer(IOWrite, xfers)
}

// transfer serves each run in batch order, torn or whole, and stops at the
// first tear.
func (tb *TornBackend) transfer(kind IOKind, xfers []RangeXfer) error {
	for i, x := range xfers {
		cut, err := tb.tear(kind, x)
		if err == nil {
			err = tb.inner.move(kind, xfers[i:i+1])
		} else if merr := tb.inner.move(kind, []RangeXfer{{Disk: x.Disk, Block: x.Block, Blocks: x.Blocks[:cut]}}); merr != nil {
			err = merr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tear decides one run's fate and logs it. A torn run reports how many of
// its leading blocks still land (1..blocks-1) and the injected fault; a
// whole run reports a nil error.
func (tb *TornBackend) tear(kind IOKind, x RangeXfer) (int, error) {
	blocks := len(x.Blocks)
	op, visit, armed := tb.st.next(kind, x.Disk, x.Block)
	if !armed {
		return 0, nil
	}
	cut := 0
	if blocks > 1 && tb.o.Mode.matches(kind) {
		tb.mu.Lock()
		tb.ranges++
		nth := tb.ranges
		tb.mu.Unlock()
		h := chaosHash(tb.o.Seed, saltTear, kind, x.Disk, x.Block, visit)
		if (tb.o.TearNth > 0 && nth == tb.o.TearNth) || chance(tb.o.Rate, chaosHash(tb.o.Seed, saltFault, kind, x.Disk, x.Block, visit)) {
			cut = 1 + int(h%uint64(blocks-1)) // 1..blocks-1 blocks land
		}
	}
	ent := ChaosOp{Op: op, Kind: kind, Disk: x.Disk, Block: x.Block, Blocks: blocks, Visit: visit}
	if cut == 0 {
		tb.st.log.add(ent)
		return 0, nil
	}
	word := "read"
	if kind == IOWrite {
		word = "write"
	}
	err := fmt.Errorf("%w: torn %s of disk %d blocks [%d,%d): only %d of %d blocks transferred",
		ErrInjectedFault, word, x.Disk, x.Block, x.Block+blocks, cut, blocks)
	ent.Fault = err.Error()
	tb.st.log.add(ent)
	return cut, err
}

// SetConcurrent forwards the dispatch toggle to the inner backend.
func (tb *TornBackend) SetConcurrent(on bool) { tb.inner.setConcurrent(on) }

// Sync implements Backend.
func (tb *TornBackend) Sync() error { return tb.inner.be.Sync() }

// Close implements Backend.
func (tb *TornBackend) Close() error { return tb.inner.be.Close() }
