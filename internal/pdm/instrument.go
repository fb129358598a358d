package pdm

import "time"

// OpSample describes one timed backend call: the operation shape plus its
// wall-clock duration. Runs counts the transfers the call carried — one per
// disk for a single parallel I/O, the coalesced runs for a grouped one — so
// Runs < Blocks marks a coalesced call. PerDisk, indexed by disk, holds the
// number of blocks moved on each disk (zero for disks the call did not
// touch); it is used for per-disk latency labels — the whole call shares
// one duration because the backend services its transfers as a unit.
type OpSample struct {
	Op      string // "read" | "write"
	Blocks  int    // total blocks moved
	Runs    int    // transfers issued
	PerDisk []int  // blocks moved per disk, len = number of disks
	Start   time.Time
	Dur     time.Duration
}

// End returns the completion time of the sampled call.
func (s OpSample) End() time.Time { return s.Start.Add(s.Dur) }

// OpObserver receives one sample per backend call. It runs on the calling
// goroutine (the engine's reader or writer), so it must be fast and must
// not call back into the backend.
type OpObserver func(OpSample)

// InstrumentBackend wraps be so every transfer call is timed and reported
// to obs. The wrapper preserves the inner backend's optional capabilities
// by delegation: BlockViewer and SetConcurrent.
func InstrumentBackend(be Backend, obs OpObserver) Backend {
	if obs == nil {
		return be
	}
	return &instrumented{be: be, obs: obs}
}

type instrumented struct {
	be    Backend
	obs   OpObserver
	disks int // captured at Open to size PerDisk
	bs    int // block size, captured at Open for block accounting
}

func (i *instrumented) Open(numDisks, numBlocks, blockSize int) error {
	i.disks, i.bs = numDisks, blockSize
	return i.be.Open(numDisks, numBlocks, blockSize)
}

func (i *instrumented) Sync() error  { return i.be.Sync() }
func (i *instrumented) Close() error { return i.be.Close() }

// SetConcurrent forwards when the inner backend supports it.
func (i *instrumented) SetConcurrent(on bool) {
	if cs, ok := i.be.(concurrentSetter); ok {
		cs.SetConcurrent(on)
	}
}

// BlockView delegates so the zero-copy dump path survives instrumentation
// (view access is not a counted operation and is deliberately untimed).
func (i *instrumented) BlockView(disk, block int) ([]Record, bool) {
	if v, ok := i.be.(BlockViewer); ok {
		return v.BlockView(disk, block)
	}
	return nil, false
}

func (i *instrumented) ReadBlockRanges(xfers []RangeXfer) error {
	start := time.Now()
	err := i.be.ReadBlockRanges(xfers)
	if err == nil {
		i.obs(i.sample("read", xfers, start))
	}
	return err
}

func (i *instrumented) WriteBlockRanges(xfers []RangeXfer) error {
	start := time.Now()
	err := i.be.WriteBlockRanges(xfers)
	if err == nil {
		i.obs(i.sample("write", xfers, start))
	}
	return err
}

func (i *instrumented) sample(op string, xfers []RangeXfer, start time.Time) OpSample {
	s := OpSample{Op: op, Runs: len(xfers), PerDisk: make([]int, i.disks), Start: start}
	for _, x := range xfers {
		n := len(x.Data) / i.bs
		s.Blocks += n
		s.PerDisk[x.Disk] += n
	}
	s.Dur = time.Since(start)
	return s
}
