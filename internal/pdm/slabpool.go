package pdm

import "sync"

// slabPools hands out reusable record arenas keyed by record count. The
// streaming data plane (System.LoadFrom/DumpTo, and through them every
// bmmcd upload/download stream) acquires one arena per stream instead of
// allocating per call, and System.AcquireBuffer draws the memoryload
// buffers of every engine pass from here, so a chain of passes reuses the
// same memoryloads instead of allocating and zeroing three per pass. A
// daemon serving many concurrent streams and jobs over datasets of
// differing geometries therefore keeps one pool per distinct slab size.
// The map holds *sync.Pool values and only grows — the set of geometries
// a process touches is small and stable.
var slabPools sync.Map // map[int]*sync.Pool

// AcquireSlab returns a record arena of exactly n records from the pool,
// allocating only when the pool is empty. Contents are unspecified —
// callers overwrite before reading. Release with ReleaseSlab.
func AcquireSlab(n int) []Record {
	p, ok := slabPools.Load(n)
	if !ok {
		p, _ = slabPools.LoadOrStore(n, &sync.Pool{
			New: func() any { s := make([]Record, n); return &s },
		})
	}
	return *p.(*sync.Pool).Get().(*[]Record)
}

// ReleaseSlab returns a slab obtained from AcquireSlab to its pool. The
// caller must not touch the slab afterwards.
func ReleaseSlab(s []Record) {
	if len(s) == 0 {
		return
	}
	if p, ok := slabPools.Load(len(s)); ok {
		p.(*sync.Pool).Put(&s)
	}
}
