package bmmc

import (
	"repro/internal/core"
	"repro/internal/pdm"
)

// Backend abstracts the storage a Permuter's D simulated disks live on.
// Its one transfer primitive is the block run (RangeXfer): every counted
// parallel I/O reaches the backend as one ReadBlockRanges or
// WriteBlockRanges call carrying one single-block run per participating
// disk, and a grouped parallel I/O arrives as one call carrying coalesced
// multi-block runs, possibly several per disk. Implement it to put the
// record store on anything — object storage, a network block service,
// compressed files — without touching the permutation engines; the disk
// system above the backend performs all model validation and cost
// accounting.
//
// Implementations must tolerate calls from distinct goroutines (the
// pipelined pass runner overlaps a prefetch read with an in-flight write),
// must serialize per-disk access themselves, and must not retain a
// transfer's block vector, or any slice in it, after the call returns; see the interface documentation
// in internal/pdm for the full contract. The three built-in backends —
// MemBackend, FileBackend, ShardedBackend — cover RAM, single-directory,
// and multi-volume layouts.
type Backend = pdm.Backend

// MemBackend returns the RAM storage backend — the default for
// NewPermuter, and the fastest way to simulate.
func MemBackend() Backend { return pdm.MemBackend() }

// FileBackend returns the file storage backend: one file per simulated
// disk inside dir. Parallel-I/O counts are identical to MemBackend runs
// (the model counts operations, not seconds), but wall-clock measurements
// then include genuine storage latency; combine with WithConcurrentIO to
// overlap the per-disk transfers.
func FileBackend(dir string) Backend { return pdm.FileBackend(dir) }

// ShardedBackend returns the multi-volume file backend: disk i's file
// lives in dirs[i mod len(dirs)], spreading the D simulated disks
// round-robin across the given directories. Mount each directory on a
// separate physical volume and the model's "D independent disks" become D
// independently seeking spindles.
func ShardedBackend(dirs ...string) Backend { return pdm.ShardedFileBackend(dirs...) }

// RangeXfer is one block run within a Backend batch: len(Blocks)
// consecutive physical blocks of disk Disk starting at Block, the k'th
// moving to or from Blocks[k] — one B-record slice per block, in block
// order, shaped like preadv/pwritev. A single-block transfer is a
// one-element vector.
type RangeXfer = pdm.RangeXfer

// ErrInjectedFault is the sentinel wrapped by every failure the chaos
// wrappers in repro/backendtest/chaos inject. Errors.Is-match it to tell
// a simulated adversarial-storage fault from a genuine backend error.
var ErrInjectedFault = pdm.ErrInjectedFault

// WithBackend selects the Permuter's storage backend. The Permuter opens
// and owns it: Close closes it. The default is MemBackend().
func WithBackend(b Backend) Option { return core.WithBackend(b) }
